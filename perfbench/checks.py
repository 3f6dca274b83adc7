"""Output checks of the benchmark, run outside the timed region.

``check_job`` takes a job and what ``cli.main`` returned and printed, and
returns the reason the job failed (``None`` when it passed) together with
the residual margins of every numeric check the CLI reported.

The references share no code with the command under test:

- ``compute``: the emitted JSON is re-parsed and checked with numpy for
  M_lambda M_inf M_0 = I, rank(M_lambda - I) = 1, and the Levelt
  polynomials charpoly(M_0) = prod(x - e^(2 pi i alpha_j)) and
  charpoly(M_inf^-1) = prod(x - e^(2 pi i beta_j)) (Beukers-Heckman 1989);
- ``eval --what gamma``: an mpmath ``rgamma`` product;
- ``eval --what f``: ``monodromy.circle_basis_values``, from A-side
  transport for n <= 3 (where the command uses convolution quadrature)
  and from B-side transport for n >= 4 (where it uses the A side),
  within the replication check's default bound, which also yields a
  residual margin;
- ``verify`` and ``oracle``: exit code 0 and every reported check passing.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: normwise relative tolerances of the benchmark's own reference checks;
#: over 5k compute jobs, half with a class of 2..n equal indices, the worst
#: residuals were 3e-14 (product) and 2e-11 (Levelt) of this scale
MATRIX_TOL = 1e-9
GAMMA_TOL = 1e-10
#: rank(M_lambda - I) counts singular values above this share of the
#: largest, the threshold of monodromy.pseudoreflection_check
RANK_TOL = 1e-8
#: f_k against transported boundary values is the comparison the
#: replication check makes, so it gets that check's default bound
F_TOL = 1e-5


def _two_pi_i_exp(xs) -> np.ndarray:
    return np.exp(2j * np.pi * np.array([float(x) for x in xs]))


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(m))))


def check_compute(job, payload: dict) -> str | None:
    """The triple's defining relations, normwise: entries reach 1e6 at n = 6."""
    n = job.n
    m0, minf, mlam = (_matrix(payload[k]) for k in ("M0", "Minf", "Mlambda"))
    if m0.shape != (n, n):
        return f"M0 has shape {m0.shape}, expected {(n, n)}"
    resid = float(np.max(np.abs(mlam @ minf @ m0 - np.eye(n))))
    if not resid <= MATRIX_TOL * _scale(mlam) * _scale(minf) * _scale(m0):
        return f"|M_lambda M_inf M_0 - I| = {resid:.3e}"
    sv = np.linalg.svd(mlam - np.eye(n), compute_uv=False)
    if not sv[0] > 0 or (n > 1 and not sv[1] <= RANK_TOL * sv[0]):
        return f"M_lambda - I is not rank 1: singular values {sv}"
    for name, mat, xs in (("M0", m0, job.alpha),
                          ("Minf^-1", np.linalg.inv(minf), job.beta)):
        diff = float(np.max(np.abs(np.poly(mat) - np.poly(_two_pi_i_exp(xs)))))
        if not diff <= MATRIX_TOL * _scale(mat):
            return f"charpoly({name}) differs from the Levelt polynomial by {diff:.3e}"
    return None


def _rgamma_product(alpha, beta, s: complex) -> complex:
    import mpmath as mp

    with mp.workdps(30):
        sm = mp.mpc(s.real, s.imag)
        acc = mp.mpc(1)
        for a in alpha:
            acc *= mp.rgamma(sm - mp.mpf(a.numerator) / a.denominator + 1)
        for b in beta:
            acc *= mp.rgamma(-sm + mp.mpf(b.numerator) / b.denominator + 1)
        return complex(acc)


def check_eval_gamma(job, payload: dict) -> str | None:
    rows = payload["rows"]
    if len(rows) != len(job.params["s"]):
        return f"{len(rows)} rows for {len(job.params['s'])} s values"
    for (_, re, im), s in zip(rows, job.params["s"]):
        got = complex(re, im)
        ref = _rgamma_product(job.alpha, job.beta, s)
        if not abs(got - ref) <= GAMMA_TOL * abs(ref):
            return f"G({s}) = {got}, mpmath gives {ref}"
    return None


def reference_f(job) -> np.ndarray:
    """f_k on the job's grid from transported local solutions."""
    from hypermono.exponents import raw_exponent_data
    from hypermono.monodromy import circle_basis_values

    data = raw_exponent_data(job.alpha, job.beta)
    k = job.params["k"]
    side = "A" if job.n <= 3 else "B"
    return np.array([circle_basis_values(data, p, l=k, side=side)[k]
                     for p in job.params["phi"]])


def check_eval_f(job, payload: dict):
    """(failure reason or None, margin of the worst point)."""
    rows = payload["rows"]
    grid = [r[0] for r in rows]
    if grid != job.params["phi"]:
        return f"grid {grid} differs from the requested {job.params['phi']}", []
    got = np.array([complex(re, im) for _, re, im in rows])
    ref = reference_f(job)
    worst = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
    margins = [math.log10(F_TOL / worst)] if worst > 0 else []
    if not worst <= F_TOL:
        return f"f_{job.params['k']} differs from circle_basis_values by {worst:.3e}", margins
    return None, margins


def check_bound(name: str, outcome: dict, n: int) -> float | None:
    """The default bound ``cli`` applies to one reported error residual."""
    details = outcome.get("details", {})
    if name == "ft":
        return 1e-8 if n == 1 else 1e-6
    if name == "cyclic_shape":
        column = details.get("companion_column", [])
        return 1e-9 * max([1.0] + [math.hypot(re, im) for re, im in column])
    fixed = {
        "cyclic_charpoly": 1e-8,
        "companion_column": 1e-9,
        "gamma_identity": 1e-10,
        "pseudoreflection": 1e-8,
        "charpoly_M0": 1e-6,
        "charpoly_Mlambda": 1e-6,
        "charpoly_product": 1e-6,
        "replication_A": 1e-5,
        "replication_B": 1e-5,
    }
    # stirling_bound and pw_slope compare growth rates with analytic
    # bounds rather than errors with tolerances; the rank and Jordan checks
    # are exact and the skip markers carry no residual
    return fixed.get(name)


def report_margins(report: dict, n: int) -> list[float]:
    """log10(bound / residual) for every numeric check with nonzero residual."""
    out = []
    for name, outcome in report.items():
        bound = check_bound(name, outcome, n)
        resid = outcome["residual"]
        if bound is None or resid == 0:
            continue
        out.append(math.log10(bound / abs(resid)))
    return out


def check_job(job, code: int, stdout: str, stderr: str):
    """(failure reason or None, margins) for one finished job."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}", []
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", []
    if job.kind in ("verify", "oracle"):
        failed = [name for name, c in payload.items() if not c["pass"]]
        margins = report_margins(payload, job.n)
        if failed:
            return f"checks failed: {failed}", margins
        return None, margins
    if job.kind == "eval_f":
        return check_eval_f(job, payload)
    check = {"compute": check_compute, "eval_gamma": check_eval_gamma}[job.kind]
    return check(job, payload), []

