"""Offline/online pipeline stages behind the CLI.

Stage outputs live under the configured output directory:

    trajectories/traj_NNNN.csv   collect
    manifest.txt
    model.txt                    build
    families/delta_*.npy
    build_report.txt
    runs/ic_NN.csv               simulate
    summary.txt
    verify_report.txt            verify

The family files are raw ``.npy`` radius tables (see ``levelsets``); every
other file is plain delimiter-separated text with full-precision floats.
Repeated runs with one config and seed are byte-identical (wall-clock
timings go to stdout only).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from .bounds import DeviationBounds
from .config import PENDULUM_NOISY_LAM, ConfigError, RunConfig
from .controller import Controller
from .interpolant import dump_interpolant, fit_interpolant, load_interpolant
from .kernels import ArdMatern52Kernel, make_kernel
from .levelsets import (build_level_family, check_nesting, dump_family,
                        load_family, pairwise_distances)
from .narx import (FLOAT_FMT, NarxDataset, build_dataset, merge_datasets,
                   read_trajectory, shift_state, write_trajectory)
from .plants import (STREAM_ONLINE_NOISE, NoiseSpec, NumericalPlant,
                     PendulumPlant, add_noise, collect_numerical_trajectories,
                     collect_pendulum_trajectories, rng_stream)

__all__ = [
    "RunResult",
    "make_plant",
    "make_bounds",
    "effective_lam",
    "cmd_collect",
    "cmd_build",
    "cmd_simulate",
    "cmd_verify",
    "cmd_report",
    "load_artifacts",
    "simulate_one",
    "displayed_rmse",
]


def _fmt(x):
    return format(float(x), FLOAT_FMT)


def make_plant(cfg: RunConfig):
    if cfg.plant == "numerical":
        return NumericalPlant()
    return PendulumPlant()


def make_kernel_from_config(cfg: RunConfig):
    return make_kernel(cfg.kernel_family, cfg.sigma_f, cfg.sigma_l)


def make_bounds(cfg: RunConfig, kernel) -> DeviationBounds:
    """Bounds with the kernel's scalar profile; anisotropic kernels use the
    conservative profile at their smallest length scale."""
    if isinstance(kernel, ArdMatern52Kernel):
        smin = min(kernel.sigma_l)
        scale = np.sqrt(2.0) * smin
        profile = lambda r: kernel.profile(np.asarray(r) / scale)
        deficit = lambda r: kernel.profile_deficit(np.asarray(r) / scale)
    else:
        profile = kernel.profile
        deficit = kernel.profile_deficit
    return DeviationBounds(
        lip_f=cfg.lip_f, lip_c=cfg.lip_c, rkhs_bound=cfg.rkhs_bound,
        delay=cfg.delay, eta_mode=cfg.eta_mode, profile=profile,
        profile_deficit=deficit,
        gamma_mode=cfg.gamma_mode, gamma_slope=cfg.gamma_slope,
    )


def effective_lam(cfg: RunConfig):
    """Ridge weight actually used by build: noisy pendulum runs default to
    the calibrated ridge when the config leaves lambda at zero."""
    if cfg.noisy and cfg.plant == "pendulum" and cfg.lam == 0.0:
        return PENDULUM_NOISY_LAM
    return cfg.lam


def _paths(cfg: RunConfig):
    out = cfg.outdir
    return {
        "out": out,
        "trajdir": os.path.join(out, "trajectories"),
        "manifest": os.path.join(out, "manifest.txt"),
        "model": os.path.join(out, "model.txt"),
        "famdir": os.path.join(out, "families"),
        "build_report": os.path.join(out, "build_report.txt"),
        "rundir": os.path.join(out, "runs"),
        "summary": os.path.join(out, "summary.txt"),
        "verify_report": os.path.join(out, "verify_report.txt"),
    }


def _family_path(paths, delta):
    tag = format(delta, "g").replace(".", "p")
    return os.path.join(paths["famdir"], f"delta_{tag}.npy")


# ---------------------------------------------------------------- collect


def cmd_collect(cfg: RunConfig, log=print):
    """Write trajectory files and a sidecar manifest; idempotent for a
    fixed seed."""
    if cfg.noisy and cfg.plant != "pendulum":
        raise ConfigError("the measurement-noise study is defined for the "
                          "pendulum benchmark only")
    paths = _paths(cfg)
    os.makedirs(paths["trajdir"], exist_ok=True)
    if cfg.plant == "numerical":
        trajs = collect_numerical_trajectories(seed=cfg.seed)
    else:
        trajs = collect_pendulum_trajectories()
        if cfg.noisy:
            spec = NoiseSpec(sigma_d=cfg.sigma_d, sigma=cfg.sigma, seed=cfg.seed)
            trajs = [add_noise(t, spec, stream_offset=k)
                     for k, t in enumerate(trajs)]
    names = []
    for k, traj in enumerate(trajs):
        name = f"traj_{k:04d}.csv"
        write_trajectory(os.path.join(paths["trajdir"], name), traj)
        names.append(name)
    with open(paths["manifest"], "w") as fh:
        fh.write(f"plant = {cfg.plant}\n")
        fh.write(f"seed = {cfg.seed}\n")
        fh.write(f"noisy = {int(cfg.noisy)}\n")
        if cfg.noisy:
            fh.write(f"sigma_d = {_fmt(cfg.sigma_d)}\n")
        fh.write(f"count = {len(names)}\n")
        for name in names:
            fh.write(f"file = {name}\n")
    log(f"collect: wrote {len(names)} trajectories to {paths['trajdir']}")
    return names


def _read_manifest(paths):
    names = []
    with open(paths["manifest"]) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            if key.strip() == "file":
                names.append(val.strip())
    return names


def load_dataset(cfg: RunConfig) -> NarxDataset:
    """Rebuild the training dataset from the collected trajectory files."""
    paths = _paths(cfg)
    names = _read_manifest(paths)
    parts = []
    for name in names:
        traj = read_trajectory(os.path.join(paths["trajdir"], name))
        parts.append(build_dataset(traj, cfg.order, cfg.delay, noisy=cfg.noisy))
    return merge_datasets(parts)


# ---------------------------------------------------------------- build


def cmd_build(cfg: RunConfig, log=print):
    """Fit the inverse-model interpolant, build one level family per
    accuracy, dump everything, and report the level-0-in-level-1 status."""
    paths = _paths(cfg)
    os.makedirs(paths["famdir"], exist_ok=True)
    t0 = time.perf_counter()
    dataset = load_dataset(cfg)
    kernel = make_kernel_from_config(cfg)
    lam = effective_lam(cfg)
    model = fit_interpolant(kernel, dataset, lam=lam)
    dump_interpolant(paths["model"], model)
    bounds = make_bounds(cfg, kernel)
    dists = pairwise_distances(dataset)
    lines = [
        f"plant = {cfg.plant}",
        f"records = {len(dataset)}",
        f"lambda = {_fmt(lam)}",
        f"jitter = {_fmt(model.jitter)}",
    ]
    if lam == 0.0:
        lines.append(f"rkhs_norm_estimate = {_fmt(model.rkhs_norm())}")
    empty_warned = False
    for delta in cfg.deltas:
        fam = build_level_family(dataset, bounds, delta, cfg.depth, _dists=dists)
        dump_family(_family_path(paths, delta), fam)
        sizes = fam.sizes()
        nested = check_nesting(fam)
        trunc = fam.truncated_at if fam.truncated_at is not None else ""
        lines.append(
            f"family delta={format(delta, 'g')}: entries={sum(sizes)} "
            f"level0={sizes[0]} nested={'yes' if nested else 'unverified'} "
            f"truncated_at={trunc}")
        if sizes[0] == 0 and not empty_warned:
            log(f"build: warning: family delta={delta:g} is empty")
            empty_warned = True
    with open(paths["build_report"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    log(f"build: {len(dataset)} records, jitter {model.jitter:g}, "
        f"{len(cfg.deltas)} families in {time.perf_counter() - t0:.1f}s")
    return lines


def load_artifacts(cfg: RunConfig):
    """(dataset, model, controller) reloaded from the build outputs."""
    paths = _paths(cfg)
    dataset = load_dataset(cfg)
    model = load_interpolant(paths["model"])
    families = [load_family(_family_path(paths, delta), dataset, delta, cfg.depth)
                for delta in cfg.deltas]
    controller = Controller(families, model)
    return dataset, model, controller


# ---------------------------------------------------------------- simulate


def displayed_rmse(outputs):
    """sqrt(sum |y(t)|^2) / (T+1) over y(0..T), matching the reported
    metric's displayed normalization."""
    y = np.asarray(outputs, dtype=float)
    return float(np.sqrt(np.sum(y * y)) / len(y))


@dataclass
class RunResult:
    initial_condition: tuple
    outputs: np.ndarray            # true outputs y(0..T)
    rows: List[tuple]              # per-step log rows
    rmse: float
    certified_fraction: float
    descent_violations: int
    fallback_steps: int
    wall_clock: float


def simulate_one(cfg: RunConfig, plant, controller, ic, ic_index) -> RunResult:
    """Closed loop from one initial condition for the configured horizon."""
    t0 = time.perf_counter()
    state_true = np.asarray(ic, dtype=float)
    n = cfg.order
    noisy = cfg.noisy
    rng = rng_stream(cfg.seed, STREAM_ONLINE_NOISE, ic_index) if noisy else None
    if noisy:
        meas = state_true.copy()
        meas[:n] = meas[:n] + rng.normal(0.0, cfg.sigma, size=n)
    else:
        meas = state_true.copy()
    outputs = [float(state_true[n - 1])]
    rows = []
    ncert = nviol = nfall = 0
    for t in range(cfg.horizon):
        u, cert = controller.control(meas)
        y_next, state_true = plant.advance(state_true, u)
        y_meas = y_next + (rng.normal(0.0, cfg.sigma) if noisy else 0.0)
        meas = shift_state(meas, y_meas, u)
        descent = controller.assert_descent(cert, meas)
        if cert.certified:
            ncert += 1
            if descent is False:
                nviol += 1
        else:
            nfall += 1
        rows.append((t, cert.delta, cert.kappa, cert.index, cert.slack,
                     cert.certified, u, y_next,
                     "skip" if descent is None else ("1" if descent else "0")))
        outputs.append(y_next)
    outputs = np.array(outputs)
    return RunResult(
        initial_condition=tuple(float(v) for v in ic),
        outputs=outputs,
        rows=rows,
        rmse=displayed_rmse(outputs),
        certified_fraction=ncert / cfg.horizon,
        descent_violations=nviol,
        fallback_steps=nfall,
        wall_clock=time.perf_counter() - t0,
    )


def _write_run_log(path, ic, result: RunResult):
    with open(path, "w") as fh:
        fh.write("# ic = " + ",".join(_fmt(v) for v in ic) + "\n")
        fh.write("t,delta,kappa,i1,slack,certified,u,y_next,descent_ok\n")
        for (t, delta, kappa, i1, slack, certified, u, y_next, desc) in result.rows:
            fh.write(",".join([
                str(t),
                "" if delta is None else format(delta, "g"),
                "" if kappa is None else str(kappa),
                str(i1),
                "" if slack is None else _fmt(slack),
                "1" if certified else "0",
                _fmt(u),
                _fmt(y_next),
                desc,
            ]) + "\n")


def cmd_simulate(cfg: RunConfig, log=print) -> List[RunResult]:
    """Run the closed loop from every configured initial condition, write
    per-run logs and the summary, and print timing to stdout."""
    paths = _paths(cfg)
    os.makedirs(paths["rundir"], exist_ok=True)
    dataset, model, controller = load_artifacts(cfg)
    plant = make_plant(cfg)
    results = []
    summary = []
    for k, ic in enumerate(cfg.initial_conditions):
        res = simulate_one(cfg, plant, controller, ic, k)
        results.append(res)
        _write_run_log(os.path.join(paths["rundir"], f"ic_{k:02d}.csv"), ic, res)
        summary.append(
            f"ic_{k:02d}: ic={','.join(format(v, 'g') for v in ic)} "
            f"rmse={_fmt(res.rmse)} certified={res.certified_fraction:.3f} "
            f"descent_violations={res.descent_violations} "
            f"fallbacks={res.fallback_steps}")
        log(f"simulate ic_{k:02d}: rmse={res.rmse:.6f} "
            f"certified={res.certified_fraction:.1%} "
            f"violations={res.descent_violations} "
            f"({res.wall_clock:.2f}s)")
    with open(paths["summary"], "w") as fh:
        fh.write("\n".join(summary) + "\n")
    return results


# ---------------------------------------------------------------- report


def read_run_log(path):
    """(ic, rows) from a run log; rows as typed tuples.  A malformed line
    raises ``ConfigError`` naming the file and line number."""
    rows = []
    with open(path) as fh:
        first = fh.readline().strip()
        try:
            ic = tuple(float(v) for v in first.partition("=")[2].split(","))
        except ValueError:
            raise ConfigError(f"{path}:1: bad initial condition {first!r}") from None
        header = fh.readline()
        if not header.startswith("t,"):
            raise ConfigError(f"{path}: not a run log (header {header.strip()!r})")
        for lineno, line in enumerate(fh, start=3):
            try:
                t, delta, kappa, i1, slack, certified, u, y_next, desc = line.strip().split(",")
                rows.append((int(t),
                             float(delta) if delta else None,
                             int(kappa) if kappa else None,
                             int(i1),
                             float(slack) if slack else None,
                             certified == "1",
                             float(u), float(y_next), desc))
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad run log row {line.strip()!r}") from None
    return ic, rows


def cmd_report(cfg: RunConfig, log=print):
    """Summarize runs, recomputing the error metric from the logged outputs
    and cross-checking the stored summary; exit nonzero on mismatch."""
    paths = _paths(cfg)
    stored = {}
    with open(paths["summary"]) as fh:
        for line in fh:
            tag = line.split(":")[0].strip()
            for tok in line.split():
                if tok.startswith("rmse="):
                    stored[tag] = float(tok[5:])
    ok = True
    for k in range(len(cfg.initial_conditions)):
        tag = f"ic_{k:02d}"
        path = os.path.join(paths["rundir"], f"{tag}.csv")
        ic, rows = read_run_log(path)
        if len(ic) != 2 * cfg.order - 1:
            raise ConfigError(f"{path}:1: initial condition has {len(ic)} values, "
                              f"the order-{cfg.order} state has {2 * cfg.order - 1}")
        if tag not in stored:
            raise ConfigError(f"{paths['summary']}: no rmse for {tag}")
        outputs = [ic[cfg.order - 1]] + [r[7] for r in rows]
        rmse = displayed_rmse(outputs)
        match = abs(rmse - stored[tag]) <= 1e-12
        ok = ok and match
        ncert = sum(1 for r in rows if r[5])
        nviol = sum(1 for r in rows if r[8] == "0")
        log(f"{tag}: rmse={rmse:.6f} recompute={'ok' if match else 'MISMATCH'} "
            f"certified={ncert}/{len(rows)} descent_violations={nviol}")
    return ok


# ---------------------------------------------------------------- verify

from . import verify as _verify  # noqa: E402  (cycle-free: verify imports nothing back)


def cmd_verify(cfg: RunConfig, log=print):
    """Run the property suites against the built artifacts; returns True
    when every checked property holds.  Details land in verify_report.txt."""
    paths = _paths(cfg)
    report = _verify.run_all(cfg, log=log)
    with open(paths["verify_report"], "w") as fh:
        for name, passed, detail in report:
            fh.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
    return all(passed for _, passed, _ in report)
