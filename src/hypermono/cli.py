"""Command-line front end: compute, verify, eval, oracle.

Exit codes: 0 success, 2 input/validation error (argparse usage errors
included), 3 numerical failure.  Complex numbers serialize as [re, im]
pairs and matrices as row-major nested arrays, so every emitted report
re-parses losslessly.  Each subcommand takes only the flags its handler
reads, and the handlers read the parsed ``argparse.Namespace`` directly.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import os
import sys

import numpy as np

from . import circle_solutions, gammaprod, local_solutions, matrices, monodromy, ode_oracle
from .exponents import (
    MultiplicityStructure,
    group_exponents,
    parse_index_list,
    raw_exponent_data,
    validate_irreducible,
)
from .report import VerificationReport

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

KNOWN_CHECKS = ("ft", "cyclic", "identity", "pseudoreflection",
                "replication", "oracle", "stirling", "all")
#: the checks that read --tol; stirling and pseudoreflection have fixed bounds
TOL_CHECKS = ("ft", "cyclic", "identity", "replication", "oracle", "all")

#: the point flags of ``eval``, and the ones each ``--what`` reads
POINT_FLAGS = ("s", "j", "r", "z", "arg", "k", "phi")
EVAL_POINT_FLAGS = {
    "gamma": ("s",),
    "S_A": ("j", "r", "z", "arg"),
    "S_B": ("j", "r", "z", "arg"),
    "f": ("k", "phi"),
}

#: caught before input errors (any other ValueError): SingularMatrixError
#: and numpy's LinAlgError are ValueErrors too
NUMERICAL_ERRORS = (
    circle_solutions.QuadratureError,
    local_solutions.ConvergenceError,
    matrices.SingularMatrixError,
    np.linalg.LinAlgError,
    ode_oracle.StepFailure,
    ode_oracle.SingularityApproach,
)


def _finite(x, flag: str):
    """x (a float or complex), unless a part of it is infinite or NaN."""
    if not cmath.isfinite(x):
        raise ValueError(f"{flag} must be finite, got {x}")
    return x


_KIND_NAMES = {complex: "a complex number", float: "a real number", int: "an integer"}


def _parse_number(text: str, flag: str, kind: type = complex):
    """``text`` as a finite number of type ``kind`` (complex, float or int);
    for complex, a trailing i is the imaginary unit, as j is for ``complex``.
    Malformed text raises a ValueError that names ``flag``."""
    s = text.replace(" ", "")
    if kind is complex and s.endswith("i"):
        s = s[:-1] + "j"
    try:
        value = kind(s)
    except ValueError:
        raise ValueError(f"{flag} must be {_KIND_NAMES[kind]}, got {text!r}") from None
    return _finite(value, flag)


def _emit(payload, out: str | None, fmt: str = "json") -> None:
    """Write a JSON payload, or CSV rows, to ``out`` or stdout."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(payload)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _data_from(ns: argparse.Namespace, require_irreducible: bool = True):
    if ns.alpha is None or ns.beta is None:
        raise ValueError("--alpha and --beta are required")
    alpha = parse_index_list(ns.alpha)
    beta = parse_index_list(ns.beta)
    if require_irreducible:
        return validate_irreducible(alpha, beta)
    return raw_exponent_data(alpha, beta)


def cmd_compute(ns: argparse.Namespace) -> int:
    data = _data_from(ns)
    result = monodromy.monodromy_matrices(data, ns.basis, ns.l)
    _emit(result.to_jsonable(), ns.out)
    return EXIT_OK


def _check_ft(data, tol) -> VerificationReport:
    report = VerificationReport()
    if data.n == 1:
        svals = [-3, -2, -1, 0, 1, 2, 3, 1j, -1j]
        bound = tol or 1e-8
    else:
        svals = [-1, 0, 1, 1j]
        bound = tol or 1e-6
    residuals = circle_solutions.ft_residuals(data, svals)
    worst = max(residuals)
    report.add("ft", worst <= bound, worst,
               s_values=[[complex(s).real, complex(s).imag] for s in svals])
    return report


def _check_cyclic(ns: argparse.Namespace, tol) -> VerificationReport:
    if ns.A_values:
        values = [_parse_number(v, "--A") for v in ns.A_values.split(",")]
        mults = ([_parse_number(m, "--m", int) for m in ns.m_values.split(",")]
                 if ns.m_values else None)
        ms = MultiplicityStructure.from_values(values, mults)
    else:
        ms = group_exponents(_data_from(ns), "alpha")
    l = ns.l if ns.l is not None else 0
    bound = tol or 1e-9
    C = matrices.cyclic_conjugate(ms, l)
    n = ms.n
    pattern = np.zeros((n, n), dtype=complex)
    pattern[:, 0] = C.entries[:, 0]
    pattern[np.arange(n - 1), np.arange(1, n)] = 1.0
    off = float(np.max(np.abs(C.entries - pattern)))
    scale = float(np.max(np.abs(C.entries)))
    charpoly_diff = float(np.max(np.abs(
        matrices.char_poly(C)
        - matrices.poly_from_roots(ms.values, ms.multiplicities)
    )))
    column_diff = float(np.max(np.abs(C.entries[:, 0] - matrices.companion_data(ms, l))))
    report = VerificationReport()
    report.add("cyclic_shape", off <= bound * max(scale, 1.0), off,
               companion_column=[[z.real, z.imag] for z in C.entries[:, 0]])
    report.add("cyclic_charpoly", charpoly_diff <= max(bound * 10, 1e-8), charpoly_diff)
    report.add("companion_column", column_diff <= bound, column_diff)
    return report


def _check_identity(data, tol) -> VerificationReport:
    re, im = np.random.default_rng(0).uniform(-5, 5, (100, 2)).T
    bound = tol or 1e-10
    worst = float(np.max(gammaprod.gamma_identity_residual(data, re + 1j * im)))
    report = VerificationReport()
    report.add("gamma_identity", worst <= bound, worst, points=100)
    return report


def _check_stirling(data) -> VerificationReport:
    xs = np.arange(-20, 21, dtype=float)
    grid = [complex(x, y) for x in xs for y in xs if not (y == 0 and x <= 0)]
    report = gammaprod.stirling_bound_check(grid, C=5.0)
    report.merge(gammaprod.pw_growth_check(data))
    return report


def _check_oracle(data, tol) -> VerificationReport:
    sys_ = ode_oracle.companion_system(data)
    # both loops are based at |z| = 0.3, inside the disc of the series at 0
    basis = local_solutions.build_basis(data, "zero")
    m0 = ode_oracle.loop_monodromy(sys_, data, 0, basis=basis)
    ml = ode_oracle.loop_monodromy(sys_, data, "lambda", basis=basis)
    alg = monodromy.monodromy_matrices(data, "A")
    return ode_oracle.compare_invariants(alg, (m0, ml), tol=tol or 1e-6)


def cmd_verify(ns: argparse.Namespace) -> int:
    wanted = [c.strip() for c in ns.checks.split(",") if c.strip()]
    for c in wanted:
        if c not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {c!r}; choose from {KNOWN_CHECKS}")
    if ns.tol is not None and not any(c in TOL_CHECKS for c in wanted):
        raise ValueError(f"--tol is not read by {', '.join(wanted)}")
    run_all = "all" in wanted
    if run_all:
        wanted = ["identity", "stirling", "cyclic", "ft", "pseudoreflection",
                  "oracle", "replication"]
    report = VerificationReport()
    tol = ns.tol
    for check in wanted:
        if check == "cyclic":
            report.merge(_check_cyclic(ns, tol))
            continue
        if check == "ft":
            data = _data_from(ns, require_irreducible=False)
            if run_all and (data.n > 3 or not circle_solutions.is_smooth(data)):
                report.add("ft_skipped", True, 0.0,
                           reason="needs n <= 3 and positive index gaps")
                continue
            report.merge(_check_ft(data, tol))
            continue
        data = _data_from(ns)
        if check == "identity":
            report.merge(_check_identity(data, tol))
        elif check == "stirling":
            report.merge(_check_stirling(data))
        elif check == "pseudoreflection":
            result = monodromy.monodromy_matrices(data, ns.basis, ns.l)
            report.merge(monodromy.pseudoreflection_check(result))
        elif check == "oracle":
            report.merge(_check_oracle(data, tol))
        elif check == "replication":
            if run_all and data.n <= 3 and not circle_solutions.is_smooth(data):
                report.add("replication_skipped", True, 0.0,
                           reason="direct kernel needs positive index gaps")
                continue
            report.merge(monodromy.replication_identity_check(
                data, ns.l, tol=tol or 1e-5))
    _emit(report.to_jsonable(), ns.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_eval(ns: argparse.Namespace) -> int:
    unread = [f"--{name}" for name in POINT_FLAGS
              if name not in EVAL_POINT_FLAGS[ns.what] and getattr(ns, name) is not None]
    if unread:
        raise ValueError(f"--what {ns.what} does not read {', '.join(unread)}")
    j = 1 if ns.j is None else ns.j
    r = 0 if ns.r is None else ns.r
    k = 0 if ns.k is None else ns.k
    rows = [("input", "re", "im")]
    if ns.what == "gamma":
        data = _data_from(ns, require_irreducible=False)
        if ns.s is None:
            raise ValueError("--what gamma requires --s")
        stexts = ns.s.split(",")
        values = gammaprod.balanced_gamma(data, [_parse_number(t, "--s") for t in stexts])
        rows += [(t, v.real, v.imag) for t, v in zip(stexts, values.tolist())]
    elif ns.what in ("S_A", "S_B"):
        data = _data_from(ns)
        if ns.z is None or ns.arg is None:
            raise ValueError(f"--what {ns.what} requires --z and --arg")
        z = _parse_number(ns.z, "--z")
        arg = _finite(ns.arg, "--arg")
        side = "zero" if ns.what == "S_A" else "infinity"
        basis = local_solutions.build_basis(data, side)
        series = next((s for s in basis if s.j == j and s.r == r), None)
        if series is None:
            raise ValueError(f"no basis element (j={j}, r={r})")
        v = local_solutions.eval_series(series, z, arg)
        rows.append((ns.z, v.real, v.imag))
    else:
        data = _data_from(ns, require_irreducible=False)
        if ns.phi is None:
            raise ValueError("--what f requires --phi")
        grid = [_parse_number(p, "--phi", float) for p in ns.phi.split(",")]
        sample = circle_solutions.f_piece(data, k, grid)
        for p, v in zip(sample.grid, sample.values):
            rows.append((p, v.real, v.imag))
    if ns.format == "csv":
        _emit(rows, ns.out, "csv")
    else:
        _emit({"what": ns.what, "rows": [list(r) for r in rows[1:]]}, ns.out)
    return EXIT_OK


def cmd_oracle(ns: argparse.Namespace) -> int:
    data = _data_from(ns)
    report = _check_oracle(data, ns.tol)
    _emit(report.to_jsonable(), ns.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermono",
        description="Monodromy of regular hypergeometric systems with "
                    "closed-form matrices cross-checked by numerical oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared between subcommands; each subcommand adds only the ones
    # its handler reads
    shared = {
        "--alpha": dict(help="comma-separated indices, e.g. 0,1/2"),
        "--beta": dict(help="comma-separated indices, e.g. 1/4,3/4"),
        "--l": dict(type=int, default=None, help="branch integer"),
        "--tol": dict(type=float, default=None),
        "--precision": dict(choices=("double", "extended"), default=None),
        "--out": dict(default=None, help="output path (default stdout)"),
        "--basis": dict(choices=("A", "B", "f"), default="A"),
    }

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("compute", help="emit M0, Minf, Mlambda in a basis")
    add(p, "--alpha", "--beta", "--l", "--out", "--basis")

    p = sub.add_parser("verify", help="run identity checks")
    add(p, "--alpha", "--beta", "--l", "--tol", "--precision", "--out", "--basis")
    p.add_argument("--checks", default="all",
                   help=f"comma-separated subset of {KNOWN_CHECKS}")
    p.add_argument("--A", dest="A_values", default=None,
                   help="raw values for the cyclic check, e.g. 2,3")
    p.add_argument("--m", dest="m_values", default=None,
                   help="multiplicities for --A")

    p = sub.add_parser("eval", help="evaluate gamma, S_A, S_B or f")
    add(p, "--alpha", "--beta", "--precision", "--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--what", required=True, choices=("gamma", "S_A", "S_B", "f"))
    p.add_argument("--s", default=None, help="comma-separated s values")
    p.add_argument("--j", type=int, default=None, help="group index (default 1)")
    p.add_argument("--r", type=int, default=None, help="log order (default 0)")
    p.add_argument("--z", default=None)
    p.add_argument("--arg", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="piece index (default 0)")
    p.add_argument("--phi", "--phi-grid", dest="phi", default=None,
                   help="comma-separated phi grid")

    p = sub.add_parser("oracle", help="ODE-transport comparison report")
    add(p, "--alpha", "--beta", "--tol", "--precision", "--out")

    return parser


#: flags whose values may begin with a minus sign (negative numbers,
#: comma lists); joined into --flag=value form so argparse accepts them
_VALUE_FLAGS = {"--alpha", "--beta", "--s", "--z", "--arg", "--phi",
                "--phi-grid", "--A", "--m", "--tol", "--out", "--l"}


def _join_value_flags(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    ns = parser.parse_args(_join_value_flags(list(argv)))
    if getattr(ns, "tol", None) is not None and not 0 < ns.tol < float("inf"):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_INPUT
    handler = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "eval": cmd_eval,
        "oracle": cmd_oracle,
    }[ns.command]
    # HYPERMONO_PRECISION overrides the flag
    precision = (os.environ.get("HYPERMONO_PRECISION")
                 or getattr(ns, "precision", None) or "double")
    try:
        with gammaprod.precision_context(precision):
            return handler(ns)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # bad flag values, resonant indices, unmet preconditions
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
