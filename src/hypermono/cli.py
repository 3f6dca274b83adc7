"""Command-line front end: compute, verify, eval, oracle.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
Complex numbers serialize as [re, im] pairs and matrices as row-major
nested arrays, so every emitted report re-parses losslessly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import circle_solutions, gammaprod, local_solutions, matrices, monodromy, ode_oracle
from .exponents import (
    LengthMismatchError,
    MultiplicityStructure,
    ResonantPairError,
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

NUMERICAL_ERRORS = (
    circle_solutions.QuadratureError,
    local_solutions.ConvergenceError,
    matrices.SingularMatrixError,
    ode_oracle.StepFailure,
    ode_oracle.SingularityApproach,
)

INPUT_ERRORS = (
    ResonantPairError,
    LengthMismatchError,
    circle_solutions.PreconditionError,
    local_solutions.BranchRequiredError,
    ValueError,
)


@dataclass
class RunConfig:
    command: str
    alpha: str | None = None
    beta: str | None = None
    basis: str = "A"
    l: int | None = None
    checks: str = "all"
    what: str | None = None
    tol: float | None = None
    precision: str = "double"
    out: str | None = None
    fmt: str = "json"
    extra: dict = field(default_factory=dict)


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _emit(payload, cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = payload["rows"] if isinstance(payload, dict) and "rows" in payload else payload
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _data_from(cfg: RunConfig, require_irreducible: bool = True):
    if cfg.alpha is None or cfg.beta is None:
        raise ValueError("--alpha and --beta are required")
    alpha = parse_index_list(cfg.alpha)
    beta = parse_index_list(cfg.beta)
    if require_irreducible:
        return validate_irreducible(alpha, beta)
    return raw_exponent_data(alpha, beta)


def cmd_compute(cfg: RunConfig) -> int:
    data = _data_from(cfg)
    result = monodromy.monodromy_matrices(data, cfg.basis, cfg.l)
    _emit(result.to_jsonable(), cfg)
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


def _check_cyclic(cfg: RunConfig, tol) -> VerificationReport:
    if cfg.extra.get("A"):
        values = [_parse_complex(v) for v in cfg.extra["A"].split(",")]
        mults = ([int(m) for m in cfg.extra["m"].split(",")]
                 if cfg.extra.get("m") else None)
        ms = MultiplicityStructure.from_values(values, mults)
    else:
        ms = group_exponents(_data_from(cfg), "alpha")
    l = cfg.l if cfg.l is not None else 0
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
    rng = np.random.default_rng(0)
    bound = tol or 1e-10
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        worst = max(worst, gammaprod.gamma_identity_residual(data, s))
    report = VerificationReport()
    report.add("gamma_identity", worst <= bound, worst, points=100)
    return report


def _check_stirling(data, tol) -> VerificationReport:
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


def cmd_verify(cfg: RunConfig) -> int:
    wanted = [c.strip() for c in cfg.checks.split(",") if c.strip()]
    for c in wanted:
        if c not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {c!r}; choose from {KNOWN_CHECKS}")
    run_all = "all" in wanted
    if run_all:
        wanted = ["identity", "stirling", "cyclic", "ft", "pseudoreflection",
                  "oracle", "replication"]
    report = VerificationReport()
    tol = cfg.tol
    for check in wanted:
        if check == "cyclic":
            report.merge(_check_cyclic(cfg, tol))
            continue
        if check == "ft":
            data = _data_from(cfg, require_irreducible=False)
            if run_all and (data.n > 3 or not circle_solutions.is_smooth(data)):
                report.add("ft_skipped", True, 0.0,
                           reason="needs n <= 3 and positive index gaps")
                continue
            report.merge(_check_ft(data, tol))
            continue
        data = _data_from(cfg)
        if check == "identity":
            report.merge(_check_identity(data, tol))
        elif check == "stirling":
            report.merge(_check_stirling(data, tol))
        elif check == "pseudoreflection":
            result = monodromy.monodromy_matrices(data, cfg.basis, cfg.l)
            report.merge(monodromy.pseudoreflection_check(result))
        elif check == "oracle":
            report.merge(_check_oracle(data, tol))
        elif check == "replication":
            if run_all and data.n <= 3 and not circle_solutions.is_smooth(data):
                report.add("replication_skipped", True, 0.0,
                           reason="direct kernel needs positive index gaps")
                continue
            report.merge(monodromy.replication_identity_check(
                data, cfg.l, tol=tol or 1e-5))
    _emit(report.to_jsonable(), cfg)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_eval(cfg: RunConfig) -> int:
    what = cfg.what
    if what not in ("gamma", "S_A", "S_B", "f"):
        raise ValueError("--what must be one of gamma, S_A, S_B, f")
    rows = [("input", "re", "im")]
    if what == "gamma":
        data = _data_from(cfg, require_irreducible=False)
        if "s" not in cfg.extra:
            raise ValueError("--what gamma requires --s")
        for stext in cfg.extra["s"].split(","):
            s = _parse_complex(stext)
            v = gammaprod.balanced_gamma(data, s)
            rows.append((stext, v.real, v.imag))
    elif what in ("S_A", "S_B"):
        data = _data_from(cfg)
        if "z" not in cfg.extra or "arg" not in cfg.extra:
            raise ValueError(f"--what {what} requires --z and --arg")
        side = "zero" if what == "S_A" else "infinity"
        basis = local_solutions.build_basis(data, side)
        j = int(cfg.extra.get("j", 1))
        r = int(cfg.extra.get("r", 0))
        series = next((s for s in basis if s.j == j and s.r == r), None)
        if series is None:
            raise ValueError(f"no basis element (j={j}, r={r})")
        z = _parse_complex(cfg.extra["z"])
        arg = float(cfg.extra["arg"])
        v = local_solutions.eval_series(series, z, arg)
        rows.append((cfg.extra["z"], v.real, v.imag))
    else:
        data = _data_from(cfg, require_irreducible=False)
        if "phi" not in cfg.extra:
            raise ValueError("--what f requires --phi")
        k = int(cfg.extra.get("k", 0))
        grid = [float(p) for p in cfg.extra["phi"].split(",")]
        sample = circle_solutions.f_piece(data, k, grid)
        for p, v in zip(sample.grid, sample.values):
            rows.append((p, v.real, v.imag))
    if cfg.fmt == "csv":
        _emit(rows, cfg)
    else:
        _emit({"what": what, "rows": [list(r) for r in rows[1:]]}, cfg)
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    data = _data_from(cfg)
    report = _check_oracle(data, cfg.tol)
    _emit(report.to_jsonable(), cfg)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermono",
        description="Monodromy of regular hypergeometric systems with "
                    "closed-form matrices cross-checked by numerical oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", help="comma-separated indices, e.g. 0,1/2")
        p.add_argument("--beta", help="comma-separated indices, e.g. 1/4,3/4")
        p.add_argument("--l", type=int, default=None, help="branch integer")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--precision", choices=("double", "extended"),
                       default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("compute", help="emit M0, Minf, Mlambda in a basis")
    common(p)
    p.add_argument("--basis", choices=("A", "B", "f"), default="A")

    p = sub.add_parser("verify", help="run identity checks")
    common(p)
    p.add_argument("--basis", choices=("A", "B", "f"), default="A")
    p.add_argument("--checks", default="all",
                   help=f"comma-separated subset of {KNOWN_CHECKS}")
    p.add_argument("--A", dest="A_values", default=None,
                   help="raw values for the cyclic check, e.g. 2,3")
    p.add_argument("--m", dest="m_values", default=None,
                   help="multiplicities for --A")

    p = sub.add_parser("eval", help="evaluate gamma, S_A, S_B or f")
    common(p)
    p.add_argument("--what", required=True, choices=("gamma", "S_A", "S_B", "f"))
    p.add_argument("--s", default=None, help="comma-separated s values")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--z", default=None)
    p.add_argument("--arg", type=float, default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--phi", "--phi-grid", dest="phi", default=None,
                   help="comma-separated phi grid")

    p = sub.add_parser("oracle", help="ODE-transport comparison report")
    common(p)

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    # HYPERMONO_PRECISION overrides the flag
    precision = os.environ.get("HYPERMONO_PRECISION") or ns.precision or "double"
    cfg = RunConfig(
        command=ns.command,
        alpha=ns.alpha,
        beta=ns.beta,
        basis=getattr(ns, "basis", "A"),
        l=ns.l,
        checks=getattr(ns, "checks", "all"),
        what=getattr(ns, "what", None),
        tol=ns.tol,
        precision=precision,
        out=ns.out,
        fmt=ns.format,
    )
    for key, attr in (("A", "A_values"), ("m", "m_values"), ("s", "s"),
                      ("j", "j"), ("r", "r"), ("z", "z"), ("arg", "arg"),
                      ("k", "k"), ("phi", "phi")):
        if hasattr(ns, attr) and getattr(ns, attr) is not None:
            cfg.extra[key] = getattr(ns, attr)
    return cfg


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
    cfg = _config_from(ns)
    if cfg.tol is not None and cfg.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return EXIT_INPUT
    handler = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "eval": cmd_eval,
        "oracle": cmd_oracle,
    }[cfg.command]
    try:
        with gammaprod.precision_context(cfg.precision):
            return handler(cfg)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
