"""hypermono benchmark: seeded CLI job mixes in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Workloads are defined in ``jobs.py``.  The package is imported from
``src/`` as checked out; nothing is installed.  Set-up time is measured
first, as fresh interpreters importing ``hypermono.cli`` one after the
other.  Then one fresh worker process (``worker.py``) runs the workload;
its peak RSS is the workload's memory.  Every job's output is checked.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from a traced
replay, whose spans are written to ``.perfbench_out/``.  Lines before it
give the same numbers with sample counts, the failure fraction and, for
a traced run, the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent

#: fresh-interpreter imports per run; set-up time is their median
SETUP_RUNS = 5
#: set-up times are rescaled to a machine on which a fresh interpreter runs
#: this import, which involves no hypermono code, in REFERENCE_S seconds
REFERENCE_IMPORT = "import numpy, json, decimal, email.parser"
REFERENCE_S = 0.17
#: every run must end within this many seconds
DEADLINE_S = 175.0
#: one job in flight, and at most two threads with numpy's BLAS pool
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(src: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("HYPERMONO_PRECISION", None)  # run the documented defaults
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def interpreter_seconds(code: str, env: dict) -> float:
    """Wall seconds for a fresh interpreter to run ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"{code!r} failed:\n{proc.stderr}")
    return elapsed


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters finishing ``import hypermono.cli``,
    one after another, and each rescaled to a reference interpreter taking
    REFERENCE_S; the reference runs before the first import and after each.
    """
    times, refs = [], [interpreter_seconds(REFERENCE_IMPORT, env)]
    for _ in range(SETUP_RUNS):
        times.append(interpreter_seconds("import hypermono.cli", env))
        refs.append(interpreter_seconds(REFERENCE_IMPORT, env))
    scaled = [t * REFERENCE_S / ((before + after) / 2)
              for t, before, after in zip(times, refs, refs[1:])]
    return times, scaled


def run_worker(args, env: dict, spans: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1).

    A beta-weighted mean of all order statistics.  A round of jobs mixes
    commands whose latencies form separate clusters; a plain sample
    quantile that falls between two clusters jumps with the extreme
    member of each, this estimate moves smoothly.
    """
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), xs))


def end_to_end(raw: dict, setup: list[float], setup_s: list[float]) -> dict:
    run = raw["untraced"]
    raw_lat = np.asarray(run["latencies"])
    scales = calibration.scales(run["midpoints"], run["calibration"])
    lat = raw_lat * scales
    p90 = harrell_davis(lat, 0.9)
    beyond = int(np.sum(lat > p90))
    kernel = [s for _, s in run["calibration"]]
    print(f"jobs: {run['jobs']} in {run['busy_s']:.3f} s measured; "
          f"latency samples {len(lat)}, {beyond} beyond p90")
    print(f"calibration: {len(kernel)} kernel samples, median "
          f"{statistics.median(kernel) * 1e3:.4f} ms; job times scaled by "
          f"{scales.min():.4f} to {scales.max():.4f}; unscaled jobs_per_s "
          f"{run['jobs'] / run['busy_s']:.4f}, p50 {harrell_davis(raw_lat, 0.5):.5f} s, "
          f"p90 {harrell_davis(raw_lat, 0.9):.5f} s")
    print(f"setup samples: {len(setup)} fresh imports, "
          f"unscaled {', '.join(f'{t:.4f}' for t in setup)} s, "
          f"scaled {', '.join(f'{t:.4f}' for t in setup_s)} s")
    if not run["margins"]:
        raise BenchmarkError("no residual check completed, so no margin")
    m = run["margins"]
    print(f"margin samples: {len(m)} residual checks; p10 "
          f"{np.percentile(m, 10):.4f} p50 {np.median(m):.4f} decades")
    print(f"margin_decades.min: {min(m)} decades (printed only, see README)")
    return {
        "jobs_per_s": (run["jobs"] / float(np.sum(lat)), "jobs/s"),
        "job_s.p50": (harrell_davis(lat, 0.5), "s"),
        "job_s.p90": (p90, "s"),
        "margin_decades.mean": (statistics.fmean(m), "decades"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw: dict) -> dict:
    untraced, traced = raw["untraced"], raw["traced"]
    plain = untraced["jobs"] / untraced["busy_s"]
    with_spans = traced["jobs"] / traced["busy_s"]
    overhead = plain / with_spans - 1.0
    print(f"traced {traced['jobs']} jobs, {traced['spans']} spans; "
          f"jobs_per_s untraced {plain:.4f}, traced {with_spans:.4f}, "
          f"tracing overhead {overhead:+.2%}")
    units = {"calls": "count", "self_s": "s", "total_s": "s", "points": "count",
             "jets": "count", "extra_jets": "count"}
    out = {name: (value, units[name.rpartition(".")[2]])
           for name, value in traced["layers"].items()}
    out["trace.jobs"] = (traced["jobs"], "count")
    out["trace.jobs_per_s"] = (with_spans, "jobs/s")
    out["trace.untraced_jobs_per_s"] = (plain, "jobs/s")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def outcome(raw: dict) -> tuple[int, list]:
    """Jobs attempted and failed jobs, over both phases of a traced run."""
    phases = [raw["untraced"]] + ([raw["traced"]] if "traced" in raw else [])
    return (sum(p["jobs"] for p in phases),
            [f for p in phases for f in p["failures"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    try:
        if not (src / "hypermono" / "cli.py").is_file():
            raise BenchmarkError(f"no hypermono sources under {src}; "
                                 "run from the repository root")
        env = child_env(src)
        setup = None if args.trace else measure_setup(env)
        spans = root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.npz"
        remaining = DEADLINE_S - (time.perf_counter() - started)
        raw = run_worker(args, env, spans, remaining)
        metrics = per_layer(raw) if args.trace else end_to_end(raw, *setup)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = outcome(raw)
    for f in failures:
        print(f"FAILED job {f['job']}: {' '.join(f['argv'])}: {f['reason']}")
    print(f"fail_frac: {len(failures) / attempted} ratio "
          f"({len(failures)} of {attempted} jobs; printed only, see README)")
    for name, (value, unit) in metrics.items():
        calls = metrics.get(name.rpartition(".")[0] + ".calls")
        samples = f" ({calls[0]} calls)" if calls and not name.endswith(".calls") else ""
        print(f"{name}: {value} {unit}{samples}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
