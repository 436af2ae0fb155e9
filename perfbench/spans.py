"""In-memory spans around invctrl's public entry points.

A span is (name, start, end, parent, study).  The recorder wraps functions
where their callers look them up (module attributes of ``invctrl.pipeline``
and ``invctrl.verify``) and methods on their classes, so the program itself
is unchanged.  Spans stay in memory until the run ends.

Two wrap sets exist.  ``LIGHT`` covers only what the end-to-end metrics
and the correctness gate need (one ``Controller.control`` call per
closed-loop step, whose returned input and certificate are kept, and each
``load_artifacts`` call); ``FULL`` adds every layer boundary for the traced
run.  An entry point the program no longer has is skipped, so a layer that
a later change removes reads zero instead of breaking the run.  Stage spans
(``stage.build`` ...) come from ``workloads.run_study``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from invctrl import pipeline, verify
from invctrl.bounds import DeviationBounds
from invctrl.controller import Controller
from invctrl.interpolant import Interpolant
from invctrl.kernels import ArdMatern52Kernel, IsotropicKernel
from invctrl.plants import NumericalPlant, PendulumPlant

# (owner, attribute) -> span name; modules are patched where callers look
# the name up, classes where the method is defined.
LIGHT = {
    (pipeline, "load_artifacts"): "pipeline.load_artifacts",
    (Controller, "control"): "controller.control",
}
FULL = {
    **LIGHT,
    (pipeline, "load_dataset"): "narx.load_dataset",
    (pipeline, "collect_numerical_trajectories"): "plants.collect",
    (pipeline, "collect_pendulum_trajectories"): "plants.collect",
    (pipeline, "fit_interpolant"): "interpolant.fit",
    (pipeline, "dump_interpolant"): "interpolant.dump",
    (pipeline, "load_interpolant"): "interpolant.load",
    (pipeline, "pairwise_distances"): "levelsets.pairwise",
    (pipeline, "build_level_family"): "levelsets.build_family",
    (pipeline, "check_nesting"): "levelsets.check_nesting",
    (verify, "check_nesting"): "levelsets.check_nesting",
    (pipeline, "dump_family"): "levelsets.dump",
    (pipeline, "load_family"): "levelsets.load",
    (pipeline, "simulate_one"): "pipeline.simulate_one",
    (verify, "run_all"): "verify.run_all",
    (Controller, "__init__"): "controller.init",
    (Controller, "locate"): "controller.locate",
    (Controller, "select_reference"): "controller.select_reference",
    (Controller, "assert_descent"): "controller.assert_descent",
    (Interpolant, "predict"): "interpolant.predict",
    (IsotropicKernel, "gram"): "kernels.gram",
    (ArdMatern52Kernel, "gram"): "kernels.gram",
    (DeviationBounds, "state_dev_inv"): "bounds.state_dev_inv",
    (NumericalPlant, "advance"): "plants.advance",
    (PendulumPlant, "advance"): "plants.advance",
}


KEEP = "controller.control"   # span whose return values are kept


class Tracer:
    """Span store in parallel lists; ``study`` tags new spans.  ``kept``
    holds (study, return value) of every ``KEEP`` call."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.studies = [], [], [], [], []
        self.kept = []
        self._stack = []
        self.study = -1

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.studies.append(self.study)
        self.ends.append(None)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if name == KEEP:
                self.kept.append((self.study, out))
            return out
        return wrapper

    @contextmanager
    def installed(self, points):
        """Patch every (owner, attribute) in ``points``; undo on exit."""
        saved = []
        try:
            for (owner, attr), name in points.items():
                orig = owner.__dict__.get(attr)
                if orig is None:
                    continue
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # ------------------------------------------------------------ queries

    def returns(self, study):
        """Return values of the ``KEEP`` calls made in one study, in order."""
        return [out for s, out in self.kept if s == study]

    def _ids(self, name, study=None):
        return [i for i, n in enumerate(self.names)
                if n == name and (study is None or self.studies[i] == study)]

    def durations(self, name, study=None):
        return np.array([self.ends[i] - self.starts[i] for i in self._ids(name, study)])

    def count(self, name, study=None):
        return len(self._ids(name, study))

    def per_study(self, name, studies, self_time=False):
        """Total (or self) time of ``name`` spans in each study."""
        child = self._child_totals() if self_time else None
        out = []
        for s in studies:
            tot = 0.0
            for i in self._ids(name, s):
                tot += self.ends[i] - self.starts[i] - (child[i] if self_time else 0.0)
            out.append(tot)
        return np.array(out)

    def per_parent(self, name, parent_name):
        """Total time of ``name`` spans under each ``parent_name`` span."""
        totals = {i: 0.0 for i in self._ids(parent_name)}
        for i in self._ids(name):
            p = self.parents[i]
            while p != -1 and p not in totals:
                p = self.parents[p]
            if p != -1:
                totals[p] += self.ends[i] - self.starts[i]
        return np.array(list(totals.values()))

    def _child_totals(self):
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p != -1:
                child[p] += self.ends[i] - self.starts[i]
        return child
