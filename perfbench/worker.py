"""One workload run in one fresh process: a closed loop over CLI jobs.

A single client calls ``hypermono.cli.main(argv)`` in-process and sends
the next job only after the previous one returned, so exactly one job is
in flight.  Latency runs from the call into ``cli.main`` to its return,
JSON emit included.  Output checks run between jobs, outside the timed
region.  Jobs come in whole rounds (see ``jobs.ROUNDS``); the loop stops
after the round that brings the measured time nearest ``--seconds``, so
every run has the same mix.

With ``--trace 1`` the loop runs twice over the same jobs: first
untraced for half the time, then traced (see ``tracing``), with every
traced output required to equal its untraced one.  The ratio of the two
throughputs is the tracing overhead.

Prints one JSON object with the raw results on its last stdout line;
``run.py`` turns it into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibration
import checks
import jobs
import tracing

WARMUP_S = 1.0
#: seconds between calibration samples, taken between jobs
CALIBRATE_EVERY_S = 0.1

def run_cli(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising job is a failed job, not a crash
            err.write(f"raised {type(exc).__name__}: {exc}")
            code = -1
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def closed_loop(cli, job_rounds, seconds: float, on_done):
    """Run whole rounds until the summed latency is nearest ``seconds``.

    Stops after the first round that leaves less than half a round's
    time to go, so a run measures ``seconds`` on average.
    """
    busy = 0.0
    count = 0
    rounds_done = 0
    while rounds_done == 0 or busy + busy / rounds_done / 2 < seconds:
        for job in next(job_rounds):
            code, out, err, elapsed = run_cli(cli, job.argv)
            busy += elapsed
            count += 1
            on_done(job, code, out, err, elapsed)
        rounds_done += 1
    return count, busy


def warm_up(cli, workload: str) -> None:
    """Fill lazy caches with jobs from a separate stream; nothing is recorded."""
    start = time.perf_counter()
    for job in next(jobs.rounds(workload, seed="warmup")):
        run_cli(cli, job.argv)
        if time.perf_counter() - start >= WARMUP_S:
            return


def measure(cli, workload: str, seed: int, seconds: float,
            keep_outputs: bool = False) -> dict:
    """The closed loop with output checks; ``keep_outputs`` keeps every
    job's stdout for a traced replay to compare against."""
    latencies, midpoints, margins, failures, outputs = [], [], [], [], []
    samples = [calibration.sample()]

    def calibrate_if_due():
        if time.perf_counter() - samples[-1][0] >= CALIBRATE_EVERY_S:
            samples.append(calibration.sample())

    def on_done(job, code, out, err, elapsed):
        midpoints.append(time.perf_counter() - elapsed / 2)
        calibrate_if_due()  # just after the job
        latencies.append(elapsed)
        if keep_outputs:
            outputs.append(out)
        try:
            reason, job_margins = checks.check_job(job, code, out, err)
        except Exception as exc:  # malformed output fails the job
            reason, job_margins = f"output check raised {type(exc).__name__}: {exc}", []
        margins.extend(job_margins)
        if reason:
            failures.append({"job": job.index, "argv": job.argv, "reason": reason})
        calibrate_if_due()  # just before the next job, if the check took a while

    count, busy = closed_loop(cli, jobs.rounds(workload, seed), seconds, on_done)
    samples.append(calibration.sample())
    return {"jobs": count, "busy_s": busy, "latencies": latencies,
            "midpoints": midpoints, "margins": margins, "failures": failures,
            "outputs": outputs, "calibration": samples}


def traced_replay(cli, workload: str, seed: int, untraced: dict,
                  spans_path: Path) -> dict:
    """Re-run the untraced phase's jobs with spans on; outputs must match."""
    tracer = tracing.Tracer()
    want = untraced["jobs"]
    failures = []
    labels = []
    busy = 0.0
    done = 0
    tracer.install()
    try:
        for batch in jobs.rounds(workload, seed):
            for job in batch:
                tracer.job_id = job.index
                code, out, err, elapsed = run_cli(cli, job.argv)
                busy += elapsed
                labels.append(job.label)
                if out != untraced["outputs"][done]:
                    failures.append({"job": job.index, "argv": job.argv,
                                     "reason": "traced output differs from untraced"})
                done += 1
            if done >= want:
                break
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    tracer.save(spans_path, labels)
    return {"jobs": done, "busy_s": busy, "failures": failures,
            "layers": tracing.layer_metrics(spans), "spans": len(spans["name"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where --trace 1 writes its spans (.npz)")
    args = parser.parse_args(argv)

    import hypermono.cli as cli

    warm_up(cli, args.workload)
    if args.trace:
        untraced = measure(cli, args.workload, args.seed, args.seconds / 2,
                           keep_outputs=True)
        traced = traced_replay(cli, args.workload, args.seed, untraced, args.spans)
        result = {"untraced": untraced, "traced": traced}
    else:
        result = {"untraced": measure(cli, args.workload, args.seed, args.seconds)}
    result["untraced"].pop("outputs")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
