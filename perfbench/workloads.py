"""The study workloads, their input pools and the correctness gate.

Each workload draws its inputs from a finite pool fixed by ``POOL_SEED``:
numerical initial conditions (ICs), and pendulum ICs at rest or moving.
The workload seed picks from the pool, so the reference digests in
``reference.json`` (recorded once with ``run.py --record-reference``) cover
every seed.  The program only ever sees the generated config values: ICs.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import sys
import time
import types
from dataclasses import dataclass, field, replace

import numpy as np

from invctrl import pipeline
from invctrl.config import default_config
from invctrl.plants import NumericalPlant

POOL_SEED = 20260310
NUMERICAL_POOL = 1024       # ICs drawn uniformly over NumericalPlant.state_box()
NUMERICAL_PER_STUDY = 100   # ICs per study: 1000 control steps
PENDULUM_POOL = 16          # per kind: at rest, and with a small velocity
PENDULUM_REST_AMPL = 0.1    # |y(t-1)|, |y(t)| <= 0.1, u = 0
PENDULUM_MAX_VEL = 0.003    # |y(t) - y(t-1)| for moving ICs
# Moving ICs the seed code fails to regulate; kept in the pool on purpose.
PENDULUM_KNOWN_MISSES = ((-0.0859, -0.0881, 0.0), (0.0897, 0.0904, 0.0))


@dataclass(frozen=True)
class Workload:
    name: str
    plant: str
    why: str
    setup_probes: int       # load_artifacts calls after every build
    extra_builds: dict      # stage -> n more collect + build after that stage


# Extra builds and probes only add build_s and setup_s samples; they run
# outside study_s.  The pendulum's are spread over the study, so that one
# run's few samples do not all fall into one slow period of the host.
WORKLOADS = {w.name: w for w in (
    Workload("numerical-sweep", "numerical",
             "tiny families and the sound-bound path: per-step Python, "
             "nearest-neighbour fallback, bisection and verify sampling; "
             "family storage and locate changes should not move it",
             setup_probes=2, extra_builds={"build": 4}),
    Workload("pendulum-clean", "pendulum",
             "about 840k family entries: family build, text dump and "
             "re-parse, and locate over the stacked families; moving ICs "
             "force full scans and show the regulation defect",
             setup_probes=1, extra_builds={"simulate": 1, "verify": 1}),
)}

# Workloads that the benchmark does not run, and why.
DROPPED = {
    "pendulum-noisy": "with verify, one study takes about 30 s and its "
                      "figures depend on the drawn noise seed (step_ms.p99 "
                      "spread 0.30 over five seeds, one study per run); "
                      "averaging several noise seeds would need runs of two "
                      "minutes or more; without verify, verify_s would read 0",
}


def _numerical_pool():
    box = NumericalPlant().state_box()
    rng = np.random.default_rng([POOL_SEED, 1])
    ics = rng.uniform(box[:, 0], box[:, 1], size=(NUMERICAL_POOL, 3))
    return {f"n{k:04d}": tuple(float(v) for v in ic) for k, ic in enumerate(ics)}


def _pendulum_pool():
    rng = np.random.default_rng([POOL_SEED, 2])
    rest, moving = {}, {}
    for k in range(PENDULUM_POOL):
        a = rng.uniform(-PENDULUM_REST_AMPL, PENDULUM_REST_AMPL)
        rest[f"r{k:02d}"] = (float(a), float(a), 0.0)
    for k, ic in enumerate(PENDULUM_KNOWN_MISSES):
        moving[f"m{k:02d}"] = ic
    k = len(moving)
    while k < PENDULUM_POOL:
        a = rng.uniform(-PENDULUM_REST_AMPL, PENDULUM_REST_AMPL)
        v = rng.uniform(-PENDULUM_MAX_VEL, PENDULUM_MAX_VEL)
        if abs(a + v) <= PENDULUM_REST_AMPL:
            moving[f"m{k:02d}"] = (float(a), float(a + v), 0.0)
            k += 1
    return rest, moving


def pools():
    """Every pool entry: workload -> {key: IC}."""
    rest, moving = _pendulum_pool()
    study = default_config("pendulum").initial_conditions
    return {
        "numerical-sweep": _numerical_pool(),
        "pendulum-clean": {**{f"s{k}": ic for k, ic in enumerate(study)},
                           **rest, **moving},
    }


def study_inputs(workload, seed, index, pool, max_loops=None):
    """(pool keys per closed-loop run, config) for study ``index`` of a run
    seeded with ``seed``; ``max_loops`` keeps only the first closed loops."""
    rng = np.random.default_rng([int(seed), int(index)])
    cfg = default_config(WORKLOADS[workload].plant)
    if workload == "numerical-sweep":
        keys = sorted(pool)
        pick = rng.choice(len(keys), size=NUMERICAL_PER_STUDY, replace=False)
        keys = [keys[i] for i in pick]
        cfg.initial_conditions = tuple(pool[k] for k in keys)
    else:
        keys = ([f"s{k}" for k in range(len(cfg.initial_conditions))]
                + [f"r{rng.integers(PENDULUM_POOL):02d}",
                   f"m{rng.integers(PENDULUM_POOL):02d}"])
        cfg.initial_conditions = tuple(pool[k] for k in keys)
    if max_loops is not None:
        keys = keys[:max_loops]
        cfg.initial_conditions = cfg.initial_conditions[:max_loops]
    return keys, cfg


# ---------------------------------------------------------------- gate


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def digests(result, steps):
    """Exact digests of one closed loop: the outputs, the applied inputs and
    the (delta, kappa, record) certificate sequence.  ``steps`` are the
    (input, certificate) pairs ``Controller.control`` returned, so neither
    the run logs nor ``RunResult.rows`` are read."""
    outputs = np.asarray(result.outputs, dtype=np.float64)
    inputs = np.array([u for u, _ in steps], dtype=np.float64)
    certs = "\n".join(f"{c.delta!r},{c.kappa!r},{c.index!r}" for _, c in steps)
    return {"outputs": _digest(outputs.tobytes()),
            "inputs": _digest(inputs.tobytes()),
            "certs": _digest(certs.encode())}


def split_steps(calls, results):
    """Per closed loop, its (input, certificate) pairs: simulate runs the
    loops one after another, each for the same horizon."""
    horizon = len(calls) // len(results) if results else 0
    if horizon * len(results) != len(calls):
        raise RuntimeError(f"{len(calls)} control calls do not split into "
                           f"{len(results)} closed loops")
    return [calls[k * horizon:(k + 1) * horizon] for k in range(len(results))]


def regulated(plant, result):
    """The study's own regulation test: criterion 08 for the pendulum,
    criterion 06 for the numerical plant."""
    y = np.abs(np.asarray(result.outputs))
    if plant == "pendulum":
        return bool(result.rmse <= 0.08 and y[401:].max() <= 0.1)
    return bool(y[4:].max() <= 0.15)


# ---------------------------------------------------------------- study


@dataclass
class StudyRecord:
    index: int
    keys: list
    stages: dict = field(default_factory=dict)   # stage -> seconds
    builds: list = field(default_factory=list)   # collect + build seconds, extra ones too
    study_s: float = 0.0
    ok: bool = True                               # no stage raised, verify/report true
    results: list = field(default_factory=list)
    steps: list = field(default_factory=list)     # per closed loop: (input, certificate)
    artifact_bytes: int = 0
    family_bytes: int = 0
    families: list = None                         # family_sizes() of the probe
    records: int = 0
    controller_bytes: int = 0


def _tree_bytes(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
           types.MethodType)


def family_sizes(controller):
    """(delta, entries per level, truncated_at) per family, or None when
    the families no longer expose per-level entries."""
    try:
        return [(f.delta, [len(e) for e in f.levels], f.truncated_at)
                for f in controller.families]
    except (AttributeError, TypeError):
        return None


def reachable_bytes(root):
    """Memory held by the objects reachable from ``root``: array buffers by
    ``nbytes`` (counted once per base), other objects by ``sys.getsizeof``.
    Stops at modules, classes and functions, which no load creates."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
            else:
                total += obj.nbytes
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def run_study(workload, seed, index, pool, workdir, tracer, max_loops=None,
              probe=False, deadline=None):
    """collect -> build -> simulate -> verify -> report in a fresh output
    directory.  Outside ``study_s``, the workload's ``extra_builds`` repeat
    collect + build into a second directory, untagged by the study so
    that per-study spans and counts keep one build, and every build is
    followed by ``setup_probes`` extra ``load_artifacts`` calls on what it
    wrote.  An extra build is skipped when the last build's duration says
    it would end past ``deadline`` (a ``time.perf_counter()`` value), so a
    slow host does not stretch the run.  With ``probe``, the study build's
    first probe also yields the loaded counts and the memory a ready
    controller holds."""
    w = WORKLOADS[workload]
    keys, cfg = study_inputs(workload, seed, index, pool, max_loops)
    cfg.outdir = os.path.join(workdir, f"study_{index:03d}")
    extra_cfg = replace(cfg, outdir=cfg.outdir + "_extra")
    rec = StudyRecord(index=index, keys=keys)
    quiet = lambda *a, **k: None
    tracer.study = index

    def stage(name, fn):
        t0 = time.perf_counter()
        with tracer.span(f"stage.{name}"):
            out = fn(cfg, log=quiet)
        rec.stages[name] = time.perf_counter() - t0
        return out

    def extra(after):
        for _ in range(w.extra_builds.get(after, 0)):
            if deadline is not None and time.perf_counter() + rec.builds[-1] > deadline:
                return
            tracer.study = -1
            t0 = time.perf_counter()
            pipeline.cmd_collect(extra_cfg, log=quiet)
            pipeline.cmd_build(extra_cfg, log=quiet)
            rec.builds.append(time.perf_counter() - t0)
            for _ in range(w.setup_probes):
                pipeline.load_artifacts(extra_cfg)
            tracer.study = index

    try:
        stage("collect", pipeline.cmd_collect)
        stage("build", pipeline.cmd_build)
        rec.builds.append(rec.stages["collect"] + rec.stages["build"])
        rec.artifact_bytes = (_tree_bytes(os.path.join(cfg.outdir, "model.txt"))
                              + _tree_bytes(os.path.join(cfg.outdir, "families")))
        rec.family_bytes = _tree_bytes(os.path.join(cfg.outdir, "families"))
        for k in range(w.setup_probes):
            loaded = pipeline.load_artifacts(cfg)
            if probe and k == 0:
                dataset, _, controller = loaded
                rec.records = len(dataset)
                rec.families = family_sizes(controller)
                rec.controller_bytes = reachable_bytes(loaded)
                del dataset, controller
            del loaded
        extra("build")
        rec.results = stage("simulate", pipeline.cmd_simulate)
        rec.steps = split_steps(tracer.returns(index), rec.results)
        extra("simulate")
        rec.ok = stage("verify", pipeline.cmd_verify) and rec.ok
        extra("verify")
        rec.ok = stage("report", pipeline.cmd_report) and rec.ok
    finally:
        tracer.study = -1
        shutil.rmtree(cfg.outdir, ignore_errors=True)
        shutil.rmtree(extra_cfg.outdir, ignore_errors=True)
    rec.study_s = sum(rec.stages.values())
    return rec
