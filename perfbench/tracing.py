"""Spans around the public functions of each ``hypermono`` layer.

The tracer wraps functions from outside the package: every namespace in
``sys.modules`` under ``hypermono`` that binds a traced function (the
defining module and every ``from ... import`` of it) gets the same
wrapper, and ``OdeSystem.coefficient_matrix`` is wrapped on its class.
Each call appends one span (function, parent span, job, start, end,
points) to flat in-memory arrays; nothing is written until ``save``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, qualified name) of every traced function, grouped by layer
TRACED = (
    ("cli", "main"),
    ("exponents", "validate_irreducible"),
    ("exponents", "group_exponents"),
    ("gammaprod", "reciprocal_gamma"),
    ("gammaprod", "balanced_gamma"),
    ("gammaprod", "balanced_gamma_jet"),
    ("gammaprod", "stirling_bound_check"),
    ("gammaprod", "pw_growth_check"),
    ("matrices", "vandermonde"),
    ("matrices", "block_diagonal"),
    ("matrices", "invert"),
    ("matrices", "cyclic_conjugate"),
    ("matrices", "char_poly"),
    ("local_solutions", "build_basis"),
    ("local_solutions", "eval_series"),
    ("monodromy", "monodromy_matrices"),
    ("monodromy", "circle_basis_values"),
    ("monodromy", "replication_identity_check"),
    ("ode_oracle", "transport"),
    ("ode_oracle", "loop_monodromy"),
    ("ode_oracle", "fundamental_matrix"),
    ("ode_oracle", "OdeSystem.coefficient_matrix"),
    ("ode_oracle", "compare_invariants"),
    ("circle_solutions", "h_single"),
    ("circle_solutions", "h_convolution"),
    ("circle_solutions", "_conv2_batch"),
    ("circle_solutions", "_conv3_batch"),
    ("circle_solutions", "f_piece"),
    ("circle_solutions", "ft_residuals"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)

#: functions whose spans also record how many phi points they evaluated
_POINTS_ARG = {"circle_solutions.h_single": (2, "phi"),
               "circle_solutions.h_convolution": (1, "phi")}


def _points(args, kwargs, spec) -> int:
    pos, name = spec
    value = args[pos] if len(args) > pos else kwargs[name]
    return int(np.size(value))


class Tracer:
    """Flat span arrays plus the wrappers that fill them."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.job_id = -1
        self._stack = [-1]
        self._restore = []

    def _wrap(self, fid: int, fn):
        name, parent, job = self.name, self.parent, self.job
        start, end, points = self.start, self.end, self.points
        stack = self._stack
        spec = _POINTS_ARG.get(NAMES[fid])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(fid)
            parent.append(stack[-1])
            job.append(self.job_id)
            points.append(_points(args, kwargs, spec) if spec else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "hypermono" or key.startswith("hypermono.")]
        for fid, (mod, qual) in enumerate(TRACED):
            module = importlib.import_module(f"hypermono.{mod}")
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(fid, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(fid, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def save(self, path: Path, job_labels) -> None:
        """Write the spans, the function names and each job's label (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(NAMES),
                            job_labels=np.array(job_labels), **self.arrays())


def layer_metrics(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-function calls, self and total seconds, plus the work counters.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap because one job runs at a time.
    """
    k = len(NAMES)
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    self_s = np.bincount(name, weights=dur - child, minlength=k)
    out = {}
    for fid, fname in enumerate(NAMES):
        out[f"{fname}.calls"] = int(calls[fid])
        out[f"{fname}.self_s"] = float(self_s[fid])
        out[f"{fname}.total_s"] = float(total[fid])
    points = np.bincount(name, weights=spans["points"], minlength=k)
    for fname in _POINTS_ARG:
        out[f"{fname}.points"] = int(points[NAMES.index(fname)])
    jet = NAMES.index("gammaprod.balanced_gamma_jet")
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    is_jet = name == jet
    out["local_solutions.build_basis.jets"] = int(np.sum(
        is_jet & (parent_name == NAMES.index("local_solutions.build_basis"))))
    out["local_solutions.eval_series.extra_jets"] = int(np.sum(
        is_jet & (parent_name == NAMES.index("local_solutions.eval_series"))))
    return out
