"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench

The tiny runs call the worker in-process, one round per workload, so the
whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import hypermono.cli as cli  # noqa: E402
import hypermono.local_solutions as local_solutions  # noqa: E402
import hypermono.monodromy as monodromy  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ONE_ROUND = 1e-9  # any positive budget runs exactly one whole round


def first_rounds(workload, seed, count=3):
    stream = jobs.rounds(workload, seed)
    return [[job.argv for job in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generated_inputs_meet_preconditions(workload):
    stream = jobs.rounds(workload, 5)
    for _ in range(20):
        for job in next(stream):
            assert len(job.alpha) == len(job.beta) == job.n
            assert all((a - b).denominator != 1 for a in job.alpha for b in job.beta)
            positive = jobs._sorted_gaps_positive(job.alpha, job.beta)
            if job.params.get("checks") in ("ft", "replication") and job.n <= 3:
                assert positive
            if job.params.get("gaps"):
                assert positive == (job.params["gaps"] == "positive")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_run_passes(workload):
    res = worker.measure(cli, workload, seed=3, seconds=ONE_ROUND)
    assert res["jobs"] == len(jobs.ROUNDS[workload])
    assert res["failures"] == []
    assert res["margins"] and min(res["margins"]) > 0


def perturbing_cli(edit):
    """A stand-in for ``hypermono.cli`` whose output passes through ``edit``."""

    class PerturbedCli:
        @staticmethod
        def main(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            sys.stdout.write(edit(argv, buf.getvalue()))
            return code

    return PerturbedCli


def test_perturbed_m0_counts_in_fail_frac():
    def edit(argv, out):
        if argv[0] != "compute":
            return out
        payload = json.loads(out)
        m0 = payload["M0"]
        m0[0][0][0] += 1e-6 * max(abs(complex(*z)) for row in m0 for z in row)
        return json.dumps(payload)

    res = worker.measure(perturbing_cli(edit), "closed_form", seed=3, seconds=ONE_ROUND)
    attempted, failures = run.outcome({"untraced": res})
    computes = sum(1 for kind, _, _ in jobs.ROUNDS["closed_form"] if kind == "compute")
    assert attempted == len(jobs.ROUNDS["closed_form"])
    assert len(failures) == computes
    assert all(f["argv"][0] == "compute" for f in failures)


def test_perturbed_f_value_counts_in_fail_frac(monkeypatch):
    monkeypatch.setitem(jobs.ROUNDS, "f_only", (("eval_f", (2,), {"gaps": "positive"}),
                                                ("eval_f", (4,), {})))

    def edit(argv, out):
        payload = json.loads(out)
        row = payload["rows"][-1]
        row[1] += 1e-4 * (1 + abs(complex(row[1], row[2])))
        return json.dumps(payload)

    res = worker.measure(perturbing_cli(edit), "f_only", seed=3, seconds=ONE_ROUND)
    attempted, failures = run.outcome({"untraced": res})
    assert attempted == 2
    assert len(failures) == 2
    assert all("circle_basis_values" in f["reason"] for f in failures)


def test_nonzero_exit_counts_as_failure():
    job = next(jobs.rounds("closed_form", 1))[0]
    reason, margins = checks.check_job(job, 3, "", "numerical failure")
    assert reason.startswith("exit code 3") and margins == []


def test_margins_use_cli_default_bounds():
    report = {"charpoly_M0": {"pass": True, "residual": 1e-9, "details": {}},
              "ft": {"pass": True, "residual": 1e-10, "details": {}},
              "rank_Mlambda_minus_I": {"pass": True, "residual": 0.0, "details": {}},
              "pw_slope": {"pass": True, "residual": 18.8, "details": {"slope_bound": 18.9}}}
    assert checks.report_margins(report, n=2) == pytest.approx([3.0, 4.0])


def test_each_job_scaled_by_the_samples_around_it():
    cal = calibration.CALIBRATION_S
    samples = [[0.0, cal], [1.0, 2 * cal], [2.0, 2 * cal], [3.0, cal]]
    # a job between the two slow samples ran at half speed
    assert calibration.scales([1.5], samples) == pytest.approx([0.5])
    assert calibration.scales([0.5, 2.5], samples) == pytest.approx([2 / 3, 2 / 3])
    # before the first and after the last sample, the two nearest count
    assert calibration.scales([-1.0, 9.0], samples) == pytest.approx([2 / 3, 2 / 3])


def test_layer_metrics_self_time():
    name_of = tracing.NAMES.index
    spans = {
        "name": [name_of("cli.main"), name_of("local_solutions.build_basis"),
                 name_of("gammaprod.balanced_gamma_jet"),
                 name_of("circle_solutions.h_single")],
        "parent": [-1, 0, 1, 0],
        "job": [0, 0, 0, 0],
        "start": [0.0, 1.0, 2.0, 6.0],
        "end": [10.0, 5.0, 3.0, 7.0],
        "points": [0, 0, 0, 40],
    }
    out = tracing.layer_metrics({k: np.asarray(v) for k, v in spans.items()})
    assert out["cli.main.total_s"] == 10.0
    assert out["cli.main.self_s"] == 5.0
    assert out["local_solutions.build_basis.self_s"] == 3.0
    assert out["local_solutions.build_basis.jets"] == 1
    assert out["local_solutions.eval_series.extra_jets"] == 0
    assert out["circle_solutions.h_single.points"] == 40


def test_tracer_wraps_every_binding_and_restores():
    originals = (cli.main, monodromy.build_basis, local_solutions.build_basis)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert monodromy.build_basis is local_solutions.build_basis
        assert monodromy.build_basis is not originals[1]
        tracer.job_id = 0
        worker.run_cli(cli, ["compute", "--alpha", "0,1/3", "--beta", "1/4,1/2"])
    finally:
        tracer.uninstall()
    assert (cli.main, monodromy.build_basis, local_solutions.build_basis) == originals
    out = tracing.layer_metrics(tracer.arrays())
    assert out["cli.main.calls"] == 1
    assert out["monodromy.monodromy_matrices.calls"] == 1
    assert out["matrices.vandermonde.calls"] == 2


def run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", "closed_form",
         "--seed", "1", "--seconds", "0.05", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, key):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


#: inputs the workloads leave out because the program fails on them today
#: (see jobs.ROUNDS); each test starts passing once the defect is fixed,
#: and then the workload should take such inputs again
KNOWN_FAILURES = [
    ("stirling-n6", ["verify", "--alpha", "4/5,1/6,1/3,0,0,0",
                     "--beta", "2/3,1/4,3/5,1/5,3/4,1/4", "--checks", "stirling"]),
    ("oracle-class-of-six", ["oracle", "--alpha", "0,0,0,0,0,0",
                             "--beta", "3/4,2/3,2/3,1/2,2/5,2/5"]),
    ("oracle-crowded-class-of-three", ["oracle", "--alpha", "3/4,3/4,4/5,3/4,5/6,2/3",
                                       "--beta", "1/4,0,1/2,0,1/3,0"]),
    ("oracle-crowded-pair", ["oracle", "--alpha", "5/8,2/5,3/5,0,2/3,2/3",
                             "--beta", "1/6,1/8,1/4,1/8,1/6,1/3"]),
]


@pytest.mark.xfail(strict=True, reason="known defect: exits 3 on this input")
@pytest.mark.parametrize("argv", [argv for _, argv in KNOWN_FAILURES],
                         ids=[name for name, _ in KNOWN_FAILURES])
def test_known_failure_still_excluded(argv):
    code, _, err, _ = worker.run_cli(cli, argv)
    assert code == 0, err


@pytest.mark.xfail(strict=True, reason="known defect: 8.8e-5 error on a narrow grid")
def test_narrow_shift_reduced_grid_still_excluded():
    alpha, beta = (F(0), F(0), F(7, 8)), (F(1, 4), F(3, 5), F(1, 3))
    phi = [0.0707, 0.081, 0.0815]
    argv = ["eval", "--what", "f", "--alpha", "0,0,7/8", "--beta", "1/4,3/5,1/3",
            "--k", "1", "--phi", ",".join(map(str, phi))]
    job = jobs.Job(index=0, kind="eval_f", n=3, alpha=alpha, beta=beta, argv=argv,
                   params={"k": 1, "phi": phi})
    code, out, err, _ = worker.run_cli(cli, argv)
    assert checks.check_job(job, code, out, err)[0] is None


def test_workloads_exclude_known_failures():
    for workload in jobs.WORKLOADS:
        stream = jobs.rounds(workload, 11)
        for _ in range(50):
            for job in next(stream):
                if job.kind == "oracle":
                    assert jobs._well_separated(job.alpha) and jobs._well_separated(job.beta)
                if job.params.get("checks") == "stirling":
                    assert job.n <= 5
                if job.kind == "eval_f":
                    lo = -job.n / 2 + job.params["k"]
                    assert max(job.params["phi"]) - min(job.params["phi"]) > 0.4
                    assert all(lo < p < lo + 1 for p in job.params["phi"])
