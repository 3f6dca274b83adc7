"""Per-call layer timings by job size, from the spans of a traced run.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 30 --trace 1
    python3 perfbench/layers.py .perfbench_out/spans-transport-1.npz

For each job label (command, check or basis, and n) and each traced
function, prints the number of calls and the mean total seconds per
call; ``loop_monodromy`` is split into its loop around 0 and its loop
around lambda (the first and second call of an ``oracle`` job), and the
two point-counting kernels also print seconds per phi point.
"""

from __future__ import annotations

import sys

import numpy as np

SHOWN = ("local_solutions.build_basis", "ode_oracle.loop_monodromy",
         "ode_oracle.transport", "monodromy.circle_basis_values",
         "circle_solutions.h_convolution", "circle_solutions.h_single",
         "circle_solutions.f_piece", "circle_solutions.ft_residuals",
         "monodromy.monodromy_matrices", "gammaprod.balanced_gamma")


def summarize(path: str) -> list[str]:
    spans = np.load(path)
    names = [str(x) for x in spans["names"]]
    labels = [str(x) for x in spans["job_labels"]]
    fid, job = spans["name"], spans["job"]
    keep = np.isin(fid, [names.index(f) for f in SHOWN if f in names])
    order = np.lexsort((spans["start"], job))
    order = order[keep[order]]
    fid, job = fid[order], job[order]
    dur = (spans["end"] - spans["start"])[order]
    points = spans["points"][order]
    # the n-th loop_monodromy call of a job runs around 0 for even n, lambda for odd
    loop = fid == names.index("ode_oracle.loop_monodromy")
    nth = np.zeros(len(fid), dtype=int)
    loop_jobs = job[loop]
    first = np.r_[0, np.flatnonzero(np.diff(loop_jobs)) + 1]
    nth[loop] = np.arange(len(loop_jobs)) - np.repeat(first, np.diff(np.r_[first, len(loop_jobs)]))
    fname = np.array(names, dtype=object)[fid]
    fname[loop] = [f"ode_oracle.loop_monodromy[{('0', 'lambda')[a]}]"
                   for a in nth[loop] % 2]
    label = np.array(labels, dtype=object)[job]
    keys = np.array([f"{lb}\0{fn}" for lb, fn in zip(label, fname)])
    uniq, inverse = np.unique(keys, return_inverse=True)
    calls = np.bincount(inverse)
    seconds = np.bincount(inverse, weights=dur)
    pts = np.bincount(inverse, weights=points).astype(int)
    out = []
    for key, c, s, p in zip(uniq, calls, seconds, pts):
        lb, fn = key.split("\0")
        line = f"{lb:28s} {fn:40s} calls {c:6d}  {s / c:.4f} s/call"
        if p:
            line += f"  {s / p:.5f} s/point ({p} points)"
        out.append(line)
    return out


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print("\n".join(summarize(arg)))
