"""Seeded job mixes for the three benchmark workloads.

A job is one ``hypermono`` CLI invocation (its argv) plus the inputs the
output check needs.  Each workload is a fixed round of job templates;
every round draws fresh indices from one ``random.Random(seed)`` stream,
so the same seed always yields the same job sequence and every round has
the same mix of commands and sizes.

Indices are rationals p/q in [0, 1) with q in DENOMINATORS.  An input is
redrawn only for a property read off the input itself: some
alpha_i - beta_j is an integer (the operator is reducible); for the
direct circle-kernel commands (``ft`` and ``replication`` at n <= 3), a
sorted gap beta_i - alpha_i is not positive; for ``oracle``, a side has
more than two indices in one class mod 1 or two classes closer than
MIN_SEPARATION (see ``ROUNDS``).  Nothing is ever redrawn because of
what the program returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

DENOMINATORS = (1, 2, 3, 4, 5, 6, 8)
BRANCHES = range(-4, 5)

#: one round of each workload: (kind, n choices, extra template fields)
ROUNDS = {
    # closed-form path: exponents -> matrices -> monodromy -> JSON, plus
    # the scalar reciprocal-gamma loops of identity/stirling/eval gamma
    "closed_form": (
        ("compute", range(1, 7), {"basis": "A"}),
        ("compute", range(1, 7), {"basis": "B"}),
        ("compute", range(1, 7), {"basis": "f"}),
        ("verify", range(1, 7), {"checks": "cyclic"}),
        ("verify", range(1, 7), {"checks": "pseudoreflection"}),
        ("verify", range(1, 7), {"checks": "identity"}),
        # n = 6 is left out: pw_growth_check overflows double range there
        # (|G(40i)| ~ e^(6 pi 40) > 1.8e308), so the check exits 3
        ("verify", range(1, 6), {"checks": "stirling"}),
        ("eval_gamma", range(1, 7), {}),
    ),
    # ODE transport: Dormand-Prince loops, series jets, basis rebuilds.
    # oracle inputs are well separated (see _well_separated): at n = 5, 6
    # crowded exponentials such as alpha 0,0,0,0,0,0, or 3/4 three times
    # beside 2/3, 4/5, 5/6, or 3/5 beside 5/8, make the transported Jordan
    # ranks or charpoly(M_lambda) miss the 1e-6 bound, and oracle exits 3
    "transport": (
        ("oracle", (2,), {"separated": True}),
        ("oracle", (3,), {"separated": True}),
        ("oracle", (4,), {"separated": True}),
        ("oracle", (5,), {"separated": True}),
        ("oracle", (6,), {"separated": True}),
        ("verify", (4,), {"checks": "replication"}),
        ("verify", (5,), {"checks": "replication"}),
        ("verify", (6,), {"checks": "replication"}),
        ("eval_f", (4,), {}),
        ("eval_f", (5,), {}),
        ("eval_f", (6,), {}),
    ),
    # circle kernel: h_single, two- and three-factor convolutions.  The
    # piece k is fixed per template: a shift-reduced n = 3 job takes about
    # 2 s on the middle piece and 1 s on the outer ones.  Latencies form
    # clusters (under 40 ms; ft and replication at n = 2, about 0.25 s;
    # replication at n = 3, 0.6 s; shift-reduced n = 3, 2 s), so two
    # templates are doubled to put p50 inside the 0.25 s cluster and p90
    # inside the 2 s one rather than in the gaps between clusters
    "circle": (
        ("verify", (1,), {"checks": "ft"}),
        ("verify", (2,), {"checks": "ft"}),
        ("verify", (2,), {"checks": "ft"}),
        ("eval_f", (2,), {"gaps": "positive", "k": 0}),
        ("eval_f", (2,), {"gaps": "nonpositive", "k": 1}),
        ("eval_f", (3,), {"gaps": "positive", "k": 2}),
        ("eval_f", (3,), {"gaps": "nonpositive", "k": 1}),
        ("eval_f", (3,), {"gaps": "nonpositive", "k": 1}),
        ("verify", (2,), {"checks": "replication"}),
        ("verify", (2,), {"checks": "replication"}),
        ("verify", (3,), {"checks": "replication"}),
    ),
}

WORKLOADS = tuple(ROUNDS)


@dataclass
class Job:
    """One CLI call and the inputs its output check needs."""

    index: int
    kind: str                    # compute, verify, eval_gamma, eval_f, oracle
    n: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    argv: list[str]
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        extra = self.params.get("checks") or self.params.get("basis") or ""
        return f"{self.kind}{'-' + extra if extra else ''}-n{self.n}"


def _fmt_list(xs) -> str:
    return ",".join(str(x) for x in xs)


def _draw_index(rng: random.Random) -> Fraction:
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randrange(q), q)


def _sorted_gaps_positive(alpha, beta) -> bool:
    return all(b > a for a, b in zip(sorted(alpha), sorted(beta)))


#: closest spacing of distinct exponentials, as a fraction of the circle
MIN_SEPARATION = Fraction(1, 10)


def _well_separated(xs) -> bool:
    """At most two indices per class mod 1, distinct classes MIN_SEPARATION apart."""
    classes = sorted(set(xs))  # indices lie in [0, 1), so one per class
    if any(xs.count(c) > 2 for c in classes):
        return False
    gaps = [b - a for a, b in zip(classes, classes[1:])]
    gaps.append(classes[0] + 1 - classes[-1])
    return len(classes) == 1 or min(gaps) >= MIN_SEPARATION


def _draw_indices(rng: random.Random, n: int, gaps: str | None,
                  separated: bool = False):
    """alpha, beta with no integral alpha_i - beta_j and the gap sign asked
    for; with ``separated``, both sides well separated."""
    while True:
        alpha = tuple(_draw_index(rng) for _ in range(n))
        beta = tuple(_draw_index(rng) for _ in range(n))
        if any((a - b).denominator == 1 for a in alpha for b in beta):
            continue
        if separated and not (_well_separated(alpha) and _well_separated(beta)):
            continue
        if gaps is None:
            return alpha, beta
        if _sorted_gaps_positive(alpha, beta) == (gaps == "positive"):
            return alpha, beta


def _draw_phi_grid(rng: random.Random, n: int, k: int):
    """Three points spread over piece k's window (-n/2 + k, -n/2 + k + 1),
    one in each of its 0.1-0.3, 0.4-0.6 and 0.7-0.9 stretches."""
    lo = -n / 2 + k
    return [round(lo + rng.uniform(a, a + 0.2), 4) for a in (0.1, 0.4, 0.7)]


def _draw_s_values(rng: random.Random, count: int = 6) -> list[complex]:
    """Points off the real axis, where the gamma product has no zeros."""
    out = []
    for _ in range(count):
        re = round(rng.uniform(-6.0, 6.0), 3)
        im = round(rng.choice((-1, 1)) * rng.uniform(0.1, 4.0), 3)
        out.append(complex(re, im))
    return out


def _fmt_complex(s: complex) -> str:
    return f"{s.real!r}{s.imag:+}i"


def make_job(rng: random.Random, index: int, template) -> Job:
    kind, ns, extra = template
    n = rng.choice(tuple(ns))
    checks = extra.get("checks")
    gaps = extra.get("gaps")
    if checks in ("ft", "replication") and n <= 3:
        gaps = "positive"
    alpha, beta = _draw_indices(rng, n, gaps, extra.get("separated", False))
    base = ["--alpha", _fmt_list(alpha), "--beta", _fmt_list(beta)]
    params: dict = {}
    if kind == "compute":
        params = {"basis": extra["basis"], "l": rng.choice(BRANCHES)}
        argv = ["compute", *base, "--basis", params["basis"], "--l", str(params["l"])]
    elif kind == "verify":
        params = {"checks": checks}
        argv = ["verify", *base, "--checks", checks]
        if checks in ("cyclic", "pseudoreflection"):
            params["l"] = rng.choice(BRANCHES)
            argv += ["--l", str(params["l"])]
        if checks == "pseudoreflection":
            params["basis"] = rng.choice("ABf")
            argv += ["--basis", params["basis"]]
    elif kind == "eval_gamma":
        params = {"s": _draw_s_values(rng)}
        argv = ["eval", "--what", "gamma", *base,
                "--s", ",".join(_fmt_complex(s) for s in params["s"])]
    elif kind == "eval_f":
        k = extra["k"] if "k" in extra else rng.randrange(n)
        params = {"k": k, "phi": _draw_phi_grid(rng, n, k), "gaps": gaps}
        argv = ["eval", "--what", "f", *base, "--k", str(k),
                "--phi", ",".join(repr(p) for p in params["phi"])]
    elif kind == "oracle":
        argv = ["oracle", *base]
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return Job(index=index, kind=kind, n=n, alpha=alpha, beta=beta,
               argv=argv, params=params)


def rounds(workload: str, seed: int):
    """Endless sequence of rounds (lists of jobs); same seed, same jobs."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        batch = []
        for template in ROUNDS[workload]:
            batch.append(make_job(rng, index, template))
            index += 1
        yield batch
