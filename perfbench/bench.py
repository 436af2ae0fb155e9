"""Run loop, metrics, correctness gate and the auxiliary modes of run.py."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve

from invctrl import pipeline
from invctrl.config import default_config
from invctrl.plants import PendulumPlant

from spans import FULL, LIGHT, Tracer
from workloads import (DROPPED, WORKLOADS, StudyRecord, digests, pools, regulated,
                       run_study, split_steps, study_inputs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKDIR = ROOT / ".perfbench_work"
RUN_SECONDS = 60
TRACED_SEEDS = 3    # --all: traced runs per workload, for the tracing overhead
# Tail of the per-step latency.  Not p99: a clean study's p99 rests on 30
# steps, which the drawn ICs and host bursts move by more than the bound.
STEP_Q = 0.95
DIGEST_KINDS = ("outputs", "inputs", "certs")

# name, unit, better, bound (share of the parent's median)
# Timings get the largest bound: on the 2-core host they were measured on,
# same-input runs a few minutes apart differ by up to 20 %.
END_TO_END = (
    ("study_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("build_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("step_ms.p95", "ms", "lower", 0.25),
    ("controller_mb", "MB", "lower", 0.05),
    ("artifact_mb", "MB", "lower", 0.05),
)
PER_LAYER = (
    ("narx.load_dataset_s", "s", "lower"),
    ("kernels.gram_s", "s", "lower"),
    ("interpolant.fit_s", "s", "lower"),
    ("interpolant.dump_s", "s", "lower"),
    ("interpolant.load_s", "s", "lower"),
    ("interpolant.predict_calls", "count", "lower"),
    ("interpolant.predict_us.p50", "us", "lower"),
    ("bounds.state_dev_inv_calls", "count", "lower"),
    ("bounds.state_dev_inv_s", "s", "lower"),
    ("levelsets.pairwise_s", "s", "lower"),
    ("levelsets.build_family_s", "s", "lower"),
    ("levelsets.check_nesting_s", "s", "lower"),
    ("levelsets.dump_s", "s", "lower"),
    ("levelsets.dump_bytes", "bytes", "lower"),
    ("levelsets.load_s", "s", "lower"),
    ("levelsets.entries", "count", "lower"),
    ("controller.init_s", "s", "lower"),
    ("controller.control_us.p50", "us", "lower"),
    ("controller.locate_calls", "count", "lower"),
    ("controller.locate_us.p50", "us", "lower"),
    ("controller.locate_us.p99", "us", "lower"),
    ("controller.relocate_ratio", "ratio", "lower"),
    ("controller.select_reference_us.p50", "us", "lower"),
    ("controller.fallback_frac", "ratio", "lower"),
    ("controller.assert_descent_us.p50", "us", "lower"),
    ("controller.deadline_miss_frac", "ratio", "lower"),
    ("plants.collect_s", "s", "lower"),
    ("plants.advance_us.p50", "us", "lower"),
    ("pipeline.build_self_s", "s", "lower"),
    ("pipeline.simulate_self_s", "s", "lower"),
    ("pipeline.report_s", "s", "lower"),
    ("verify.run_all_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("trace.study_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}


def manifest():
    """The content of BENCHMARK.json, generated from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------- environment


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    """Versions, thread counts and the BLAS warm-up, which is done here so
    that no timed stage pays for it."""
    t0 = time.perf_counter()
    a = np.random.default_rng(0).normal(size=(300, 300))
    cho_solve(cho_factor(a @ a.T + 300 * np.eye(300)), np.ones(300))
    warmup = time.perf_counter() - t0
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_warmup_s": round(warmup, 4),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------- statistics


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _tail_q(n):
    """Quantile for the tail: 0.99, or the highest one with at least 10
    samples beyond it."""
    return min(0.99, 1.0 - 10.0 / n) if n > 20 else 0.5


def _quantile(values, q):
    return float(np.quantile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------- one run


def run_one(workload, seed, trace):
    if workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    env = environment()
    reference = json.loads(REFERENCE.read_text())["workloads"][workload]
    pool = pools()[workload]
    tracer = Tracer()
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    studies = []
    t_start = time.perf_counter()
    try:
        with tracer.installed(FULL if trace else LIGHT):
            last = 0.0
            # at least one study; another only if it should end within budget
            while not studies or time.perf_counter() - t_start + last <= RUN_SECONDS:
                t0 = time.perf_counter()
                rec = _guarded_study(workload, seed, len(studies), pool, workdir, tracer,
                                     probe=not studies, deadline=t_start + RUN_SECONDS)
                last = time.perf_counter() - t0
                studies.append(rec)
                if not rec.ok:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORKDIR)

    gate = check(workload, studies, reference)
    values, notes = (per_layer(workload, studies, tracer), {}) if trace \
        else end_to_end(studies, tracer)
    print(f"ENV {json.dumps(env)}")
    print(f"RUN workload={workload} seed={seed} trace={int(trace)} "
          f"studies={len(studies)} closed_loops={gate['attempted']} "
          f"wall_s={time.perf_counter() - t_start:.2f}")
    print(f"GATE {json.dumps(gate)}")
    print(f"COUNTS {json.dumps(study_counts(workload, studies[0], tracer, trace), sort_keys=True)}")
    for name, value in values.items():
        print(f"METRIC {name} = {value:.6g} {UNITS[name]} {notes.get(name, '')}".rstrip())
    print(json.dumps(result_line(gate, values)))
    return 0


def result_line(gate, values):
    return {
        "correct": gate["failed"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()},
    }


def _guarded_study(workload, seed, index, pool, workdir, tracer, max_loops=None,
                   probe=False, deadline=None):
    """A study whose exceptions are recorded, not raised: the run must
    still report how many closed loops it attempted."""
    try:
        return run_study(workload, seed, index, pool, workdir, tracer, max_loops, probe,
                         deadline)
    except Exception:
        traceback.print_exc()
        keys, _ = study_inputs(workload, seed, index, pool, max_loops)
        return StudyRecord(index=index, keys=keys, ok=False)


def _remove_if_empty(path):
    try:
        path.rmdir()
    except OSError:
        pass


def check(workload, studies, reference):
    """Correctness gate: every closed loop's digests equal the reference
    recorded on the seed code, and no stage raised or returned false.
    Regulation misses are counted separately: they are the studies' own
    outcome, reproduced exactly, not a failed operation."""
    plant = WORKLOADS[workload].plant
    attempted = failed = misses = 0
    mismatched = []
    for rec in studies:
        for k, key in enumerate(rec.keys):
            attempted += 1
            res = rec.results[k] if k < len(rec.results) else None
            ref = reference.get(key)
            got = digests(res, rec.steps[k]) if k < len(rec.steps) else {}
            bad = [kind for kind in DIGEST_KINDS
                   if ref is None or got.get(kind) != ref[kind]]
            if bad:
                mismatched.append(f"{key}:{'/'.join(bad)}")
            if bad or not rec.ok:
                failed += 1
            if res is not None and not regulated(plant, res):
                misses += 1
    return {"attempted": attempted, "failed": failed,
            "regulation_misses": misses, "mismatched": mismatched[:10]}


def end_to_end(studies, tracer):
    """Metric values, and a sample-count note for each."""
    ok = [s for s in studies if s.ok] or studies
    # tail per study, so a burst of host noise in one study does not set it
    steps = [tracer.durations("controller.control", s.index) * 1e3 for s in ok]
    fewest = min(len(x) for x in steps)
    loads = tracer.durations("pipeline.load_artifacts")
    builds = [b for s in ok for b in s.builds]
    values = {
        "study_s": _median([s.study_s for s in ok]),
        "setup_s": _median(loads),
        "build_s": _median(builds),
        "verify_s": _median([s.stages.get("verify", 0.0) for s in ok]),
        "step_ms.p95": _median([_quantile(x, STEP_Q) for x in steps]),
        "controller_mb": studies[0].controller_bytes / 1e6,
        "artifact_mb": _median([s.artifact_bytes for s in ok]) / 1e6,
    }
    notes = {
        "study_s": f"(median of {len(ok)} studies)",
        "setup_s": f"(median of {len(loads)} load_artifacts calls)",
        "build_s": f"(median of {len(builds)} collect + build)",
        "verify_s": f"(median of {len(ok)} studies)",
        "step_ms.p95": f"(median over {len(ok)} studies of the quantile {STEP_Q:g} "
                       f"of their {fewest}+ control calls)",
        "controller_mb": "(1 load_artifacts call)",
        "artifact_mb": f"(median of {len(ok)} builds)",
    }
    return values, notes


def per_layer(workload, studies, tr):
    """Layer metrics from the traced run.  Times are medians (per call, per
    load_artifacts call, or per study); counts are the first study's."""
    idx = [s.index for s in studies]
    first = studies[0].index

    def us(name, q=0.5):
        return _quantile(tr.durations(name), q) * 1e6

    def per_call(name):
        return _median(tr.durations(name))

    def per_study(name, self_time=False):
        return _median(tr.per_study(name, idx, self_time))

    control = tr.count("controller.control", first)
    locate = tr.count("controller.locate", first)
    steps = tr.durations("controller.control")
    pendulum = WORKLOADS[workload].plant == "pendulum"
    return {
        "narx.load_dataset_s": per_call("narx.load_dataset"),
        "kernels.gram_s": per_call("kernels.gram"),
        "interpolant.fit_s": per_study("interpolant.fit"),
        "interpolant.dump_s": per_study("interpolant.dump"),
        "interpolant.load_s": per_call("interpolant.load"),
        "interpolant.predict_calls": tr.count("interpolant.predict", first),
        "interpolant.predict_us.p50": us("interpolant.predict"),
        "bounds.state_dev_inv_calls": tr.count("bounds.state_dev_inv", first),
        "bounds.state_dev_inv_s": per_study("bounds.state_dev_inv"),
        "levelsets.pairwise_s": per_study("levelsets.pairwise"),
        "levelsets.build_family_s": per_study("levelsets.build_family"),
        "levelsets.check_nesting_s": per_study("levelsets.check_nesting"),
        "levelsets.dump_s": per_study("levelsets.dump"),
        "levelsets.dump_bytes": studies[0].family_bytes,
        "levelsets.load_s": _median(tr.per_parent("levelsets.load",
                                                  "pipeline.load_artifacts")),
        "levelsets.entries": sum(sum(sizes) for _, sizes, _ in studies[0].families or ()),
        "controller.init_s": per_call("controller.init"),
        "controller.control_us.p50": us("controller.control"),
        "controller.locate_calls": locate,
        "controller.locate_us.p50": us("controller.locate"),
        "controller.locate_us.p99": us("controller.locate",
                                       _tail_q(tr.count("controller.locate"))),
        "controller.relocate_ratio": locate / control if control else 0.0,
        "controller.select_reference_us.p50": us("controller.select_reference"),
        "controller.fallback_frac": (sum(not c.certified for loop in studies[0].steps
                                         for _, c in loop) / control if control else 0.0),
        "controller.assert_descent_us.p50": us("controller.assert_descent"),
        "controller.deadline_miss_frac": (float(np.mean(steps > PendulumPlant().ts))
                                          if pendulum and len(steps) else 0.0),
        "plants.collect_s": per_study("plants.collect"),
        "plants.advance_us.p50": us("plants.advance"),
        "pipeline.build_self_s": per_study("stage.build", self_time=True),
        "pipeline.simulate_self_s": per_study("stage.simulate", self_time=True),
        "pipeline.report_s": per_study("stage.report"),
        "verify.run_all_s": per_study("verify.run_all"),
        "verify.self_s": per_study("verify.run_all", self_time=True),
        "process.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace.study_s": _median([s.study_s for s in studies]),
        "trace.spans": sum(1 for s in tr.studies if s == first),
    }


def study_counts(workload, rec, tracer, trace):
    """Deterministic counts of the run's first study; equal between runs of
    one seed on one program (``locate_calls`` in traced runs only)."""
    plant = WORKLOADS[workload].plant
    out = {
        "records": rec.records,
        "artifact_bytes": rec.artifact_bytes,
        "controller_bytes": rec.controller_bytes,
        "family_bytes": rec.family_bytes,
        "families": None if rec.families is None else {
            format(d, "g"): {"entries": sum(sizes), "truncated_at": trunc}
            for d, sizes, trunc in rec.families},
        "steps": sum(len(loop) for loop in rec.steps),
        "certified": sum(c.certified for loop in rec.steps for _, c in loop),
        "fallbacks": sum(not c.certified for loop in rec.steps for _, c in loop),
        "descent_violations": sum(r.descent_violations for r in rec.results),
        "regulation_misses": sum(not regulated(plant, r) for r in rec.results),
    }
    if trace:
        out["locate_calls"] = tracer.count("controller.locate", rec.index)
    return out


# ---------------------------------------------------------------- reference


def record_reference():
    """Digests of every pool entry on the current program.  Run it only on
    the seed code, whose behaviour the gate pins."""
    all_pools = pools()
    out = {"commit": _git_commit(), "workloads": {}}
    workdir = WORKDIR / f"reference-{os.getpid()}"
    quiet = lambda *a, **k: None
    tracer = Tracer()
    try:
        for name, w in WORKLOADS.items():
            pool = all_pools[name]
            entries = {}
            # one build, then every pool entry as a closed loop
            cfg = default_config(w.plant)
            cfg.outdir = str(workdir / name)
            keys = list(pool)
            cfg.initial_conditions = tuple(pool[k] for k in keys)
            t0 = time.perf_counter()
            pipeline.cmd_collect(cfg, log=quiet)
            pipeline.cmd_build(cfg, log=quiet)
            tracer.kept.clear()
            with tracer.installed(LIGHT):
                results = pipeline.cmd_simulate(cfg, log=quiet)
            steps = split_steps(tracer.returns(tracer.study), results)
            for k, res, loop in zip(keys, results, steps):
                entries[k] = {
                    "ic": list(res.initial_condition),
                    **digests(res, loop),
                    "regulated": regulated(w.plant, res),
                    "fallbacks": res.fallback_steps,
                    "descent_violations": res.descent_violations,
                }
            shutil.rmtree(cfg.outdir, ignore_errors=True)
            print(f"reference {name}: {len(results)} closed loops "
                  f"in {time.perf_counter() - t0:.1f}s", flush=True)
            out["workloads"][name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORKDIR)
    # one line per pool entry keeps the file short and its diffs readable
    blocks = []
    for name, entries in out["workloads"].items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in sorted(entries.items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    REFERENCE.write_text(f'{{"commit": {json.dumps(out["commit"])}, "workloads": {{\n'
                         + ",\n".join(blocks) + "\n}}\n")
    return 0


# ---------------------------------------------------------------- self-test


def selftest():
    """Each workload once at minimal size, traced, then: every metric is
    emitted with its unit, the gate passes on the real reference and fires
    on each perturbed digest."""
    reference = json.loads(REFERENCE.read_text())["workloads"]
    all_pools = pools()
    problems = []
    for name in WORKLOADS:
        tracer = Tracer()
        workdir = WORKDIR / f"selftest-{os.getpid()}"
        t0 = time.perf_counter()
        try:
            with tracer.installed(FULL):
                rec = _guarded_study(name, 0, 0, all_pools[name], workdir, tracer,
                                     max_loops=1, probe=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            _remove_if_empty(WORKDIR)
        ref = reference[name]
        gate = check(name, [rec], ref)
        if gate["attempted"] != 1 or gate["failed"]:
            problems.append(f"{name}: gate rejects the unperturbed run: {gate}")
        for kind in DIGEST_KINDS:
            bad = {**ref, rec.keys[0]: {**ref[rec.keys[0]], kind: "0" * 16}}
            if check(name, [rec], bad)["failed"] != 1:
                problems.append(f"{name}: gate misses a perturbed {kind} digest")
        for values, spec in ((end_to_end([rec], tracer)[0], END_TO_END),
                             (per_layer(name, [rec], tracer), PER_LAYER)):
            line = json.loads(json.dumps(result_line(gate, values)))
            for metric, unit, *_ in spec:
                got = line["metrics"].get(metric)
                if (got is None or got["unit"] != unit
                        or not isinstance(got["value"], (int, float))
                        or not math.isfinite(got["value"])):
                    problems.append(f"{name}: metric {metric} missing or malformed: {got}")
            extra = set(line["metrics"]) - {m for m, *_ in spec}
            if extra:
                problems.append(f"{name}: unexpected metrics {sorted(extra)}")
        print(f"selftest {name}: 1 closed loop, {time.perf_counter() - t0:.1f}s", flush=True)
    on_disk = ROOT / "BENCHMARK.json"
    if on_disk.is_file() and json.loads(on_disk.read_text()) != manifest():
        problems.append("BENCHMARK.json differs from the definitions in bench.py")
    for p in problems:
        print(f"selftest FAIL {p}")
    print(f"selftest {'PASS' if not problems else 'FAIL'}")
    return 1 if problems else 0


# ---------------------------------------------------------------- all workloads


def _subrun(workload, seed, trace):
    """One run in a fresh process; (parsed lines, error text or None)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("ENV", "GATE", "COUNTS"):
            out[tag] = json.loads(rest)
    return out, None


def _spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def run_all(seeds):
    seeds = [int(s) for s in seeds.split(",")]
    summary = {}
    for name in WORKLOADS:
        runs, traced, errors = [], [], []
        for seed in seeds:
            out, err = _subrun(name, seed, 0)
            if err:
                errors.append(f"seed {seed}: {err}")
            else:
                runs.append((seed, out))
        for seed in seeds[:TRACED_SEEDS]:
            out, err = _subrun(name, seed, 1)
            if err:
                errors.append(f"traced seed {seed}: {err}")
            else:
                traced.append((seed, out))
        if errors or not runs:
            print(f"\n== {name}: DROPPED ({'; '.join(errors)})")
            summary[name] = {"dropped": errors}
            continue
        if "ENV" in runs[0][1] and not summary:
            print(f"ENV {json.dumps(runs[0][1]['ENV'])}")
        attempted = sum(o["result"]["attempted"] for _, o in runs)
        failed = sum(o["result"]["failed"] for _, o in runs)
        misses = sum(o["GATE"]["regulation_misses"] for _, o in runs)
        print(f"\n== {name}: {len(runs)} untraced runs, seeds {seeds}; "
              f"closed loops {attempted}, failed {failed}, "
              f"regulation misses {misses} (failed_frac with misses "
              f"{(failed + misses) / attempted:.3f})")
        entry = {"attempted": attempted, "failed": failed,
                 "regulation_misses": misses, "end_to_end": {}}
        for metric, unit, _, bound in END_TO_END:
            vals = [o["result"]["metrics"][metric]["value"] for _, o in runs]
            med, q1, q3, spread = _spread(vals)
            flag = "" if spread <= bound / 3 else "  <-- spread above bound/3"
            print(f"  {metric:<14} median {med:10.4f} {unit:<3} q1 {q1:10.4f} "
                  f"q3 {q3:10.4f} spread {spread:6.3f} bound {bound} "
                  f"n={len(vals)}{flag}")
            entry["end_to_end"][metric] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "values": vals}
        untraced = dict(runs)
        for seed, out in traced:
            mismatch = [k for k, v in untraced[seed]["COUNTS"].items()
                        if out["COUNTS"].get(k) != v]
            print(f"  counts, seed {seed} untraced vs traced: "
                  f"{'match' if not mismatch else 'DIFFER in ' + ', '.join(mismatch)}")
        # overhead per seed: traced minus untraced study_s on the same inputs
        diffs = [out["result"]["metrics"]["trace.study_s"]["value"]
                 - untraced[seed]["result"]["metrics"]["study_s"]["value"]
                 for seed, out in traced]
        overhead = statistics.median(diffs)
        untraced_s = statistics.median(
            untraced[seed]["result"]["metrics"]["study_s"]["value"] for seed, _ in traced)
        print(f"  tracing overhead, median over seeds {[s for s, _ in traced]} of "
              f"traced - untraced study_s: {overhead:+.3f} s "
              f"({overhead / untraced_s:+.1%}); per seed "
              f"{', '.join(f'{d:+.3f}' for d in diffs)} s")
        layers = {k: v["value"] for k, v in traced[0][1]["result"]["metrics"].items()}
        print(f"  per-layer metrics, traced seed {traced[0][0]}:")
        for metric, value in layers.items():
            print(f"  {metric:<36} {value:14.6g} {UNITS[metric]}")
        entry.update(counts=untraced[traced[0][0]]["COUNTS"],
                     traced_counts=traced[0][1]["COUNTS"],
                     per_layer=layers, tracing_overhead_s=diffs)
        summary[name] = entry
    for name, why in DROPPED.items():
        print(f"\n== {name}: not run: {why}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    print("\nwrote BENCHMARK.json")
    print(json.dumps(summary))
    return 0
