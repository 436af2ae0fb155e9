"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The numbered criteria pin the tolerances; runtime limits are asserted where
stated.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from invctrl import pipeline
from invctrl.bounds import DeviationBounds
from invctrl.cli import main
from invctrl.config import default_config
from invctrl.interpolant import fit_interpolant
from invctrl.narx import shift_state
from invctrl.plants import rng_stream
from invctrl.verify import sample_in_ball

from conftest import sampled_inradius, single_ball_inradius


def report(num, passed, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def numerical_runs(numerical_cfg):
    t0 = time.perf_counter()
    results = pipeline.cmd_simulate(numerical_cfg, log=lambda *a: None)
    return results, time.perf_counter() - t0


def test_criterion_01_interpolation_exactness(numerical_cfg, pendulum_cfg):
    t0 = time.perf_counter()
    worst = 0.0
    for cfg in (numerical_cfg, pendulum_cfg):
        ds = pipeline.load_dataset(cfg)
        kernel = pipeline.make_kernel_from_config(cfg)
        model = fit_interpolant(kernel, ds, lam=0.0)
        worst = max(worst, float(np.max(np.abs(model.predict(ds.features)
                                               - ds.controls))))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-8 and elapsed < 5.0,
           f"max training residual {worst:.2e} (tol 1e-8), {elapsed:.2f}s (<5s)")


def test_criterion_02_inverse_oracle_agreement(numerical_artifacts):
    plant = numerical_artifacts["plant"]
    model = numerical_artifacts["model"]
    ds = numerical_artifacts["dataset"]
    t0 = time.perf_counter()
    box = plant.state_box()
    g = np.linspace(-1.0, 1.0, 10)
    gu = np.linspace(box[2, 0], box[2, 1], 10)
    pts = np.array([[a, b, c, d] for a in g for b in g for c in g for d in gu])
    from scipy.spatial.distance import cdist
    eps = cdist(pts, ds.features).min(axis=1)
    err = np.abs(plant.oracle(pts) - model.predict(pts))
    bound = np.sqrt(-np.expm1(-eps**2 / 16.0))  # the benchmark's closed form
    slack = float(np.max(err - bound))
    elapsed = time.perf_counter() - t0
    report(2, slack <= 1e-9 and elapsed < 30.0,
           f"10^4-grid max (error - bound) = {slack:.2e} (tol 1e-9), "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_03_deviation_bounds_oracle(numerical_artifacts):
    plant = numerical_artifacts["plant"]
    model = numerical_artifacts["model"]
    ds = numerical_artifacts["dataset"]
    bounds = numerical_artifacts["bounds"]
    t0 = time.perf_counter()
    rng = rng_stream(numerical_artifacts["cfg"].seed, 31)
    box = plant.state_box()
    worst = -np.inf
    skipped = 0
    for _ in range(1000):
        i = int(rng.integers(len(ds)))
        z = rng.uniform(box[:, 0], box[:, 1])
        eps = float(np.linalg.norm(ds.states[i] - z))
        u_hat = model.predict(np.concatenate([[ds.targets[i]], z]))
        worst = max(worst, abs(ds.controls[i] - u_hat) - bounds.input_dev(eps))
        if not plant.input_feasible(z, u_hat):
            skipped += 1  # dynamics not evaluable for this pair
            continue
        y_act = plant.step(z, u_hat)
        worst = max(worst, abs(ds.targets[i] - y_act) - bounds.output_dev(eps))
        _, z_next = plant.advance(z, u_hat)
        gap = float(np.linalg.norm(ds.succ_states[i] - z_next))
        worst = max(worst, gap - bounds.state_dev(eps))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-9 and skipped <= 50 and elapsed < 10.0,
           f"1000 samples, worst bound slack {worst:.2e} (tol 1e-9), "
           f"{skipped} non-evaluable pairs, {elapsed:.1f}s (<10s)")


def test_criterion_04_delayed_map_bounds(pendulum_artifacts):
    cfg = pendulum_artifacts["cfg"]
    plant = pendulum_artifacts["plant"]
    model = pendulum_artifacts["model"]
    ds = pendulum_artifacts["dataset"]
    kernel = model.kernel
    smin = min(kernel.sigma_l)
    scale = math.sqrt(2.0) * smin
    honest = DeviationBounds(
        lip_f=cfg.lip_f, lip_c=cfg.lip_c, rkhs_bound=cfg.rkhs_bound, delay=2,
        eta_mode="profile",
        profile=lambda r: kernel.profile(np.asarray(r) / scale),
        profile_deficit=lambda r: kernel.profile_deficit(np.asarray(r) / scale),
        gamma_mode="composed")
    rng = rng_stream(cfg.seed, 41)
    lo = ds.states.min(axis=0) - 0.02
    hi = ds.states.max(axis=0) + 0.02
    violations = 0
    for _ in range(1000):
        i = int(rng.integers(len(ds)))
        z = rng.uniform(lo, hi)
        eps = float(np.linalg.norm(ds.states[i] - z))
        u_hat = model.predict(np.concatenate([[ds.targets[i]], z]))
        if abs(ds.controls[i] - u_hat) > honest.input_dev(eps) + 1e-9:
            violations += 1
        _, z_next = plant.advance(z, u_hat)
        gap = float(np.linalg.norm(ds.succ_states[i] - z_next))
        if gap > honest.input_dev(eps) + (1.0 + cfg.lip_f) * eps + 1e-9:
            violations += 1
    report(4, violations == 0,
           f"1000 samples of the two-step-delay bounds, {violations} violations")


def test_criterion_05_certified_descent(numerical_runs):
    results, _ = numerical_runs
    ncert = sum(1 for r in results for row in r.rows if row[5])
    nviol = sum(r.descent_violations for r in results)
    report(5, ncert > 0 and nviol == 0,
           f"{ncert} certified steps across 5 runs, {nviol} descent violations")


def test_criterion_06_practical_regulation(numerical_runs):
    results, elapsed = numerical_runs
    worst = max(float(np.max(np.abs(r.outputs[4:]))) for r in results)
    report(6, worst <= 0.15 and elapsed < 10.0,
           f"max |y(t>=4)| = {worst:.4f} over 5 initial conditions "
           f"(tol 0.15), {elapsed:.1f}s (<10s)")


def test_criterion_07_pendulum_regulation(pendulum_cfg):
    t0 = time.perf_counter()
    results = pipeline.cmd_simulate(pendulum_cfg, log=lambda *a: None)
    elapsed = time.perf_counter() - t0
    worst = max(r.rmse for r in results)
    report(7, worst <= 0.05 and elapsed < 60.0,
           f"noise-free pendulum worst metric {worst:.4f} (tol 0.05), "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_08_noisy_robustness(tmp_path_factory):
    passes = 0
    details = []
    for seed in range(10):
        cfg = default_config("pendulum")
        cfg.noisy = True
        cfg.seed = seed
        cfg.outdir = str(tmp_path_factory.mktemp(f"noisy_{seed}"))
        pipeline.cmd_collect(cfg, log=lambda *a: None)
        pipeline.cmd_build(cfg, log=lambda *a: None)
        results = pipeline.cmd_simulate(cfg, log=lambda *a: None)
        worst_rmse = max(r.rmse for r in results)
        worst_tail = max(float(np.max(np.abs(r.outputs[401:]))) for r in results)
        ok = worst_rmse <= 0.08 and worst_tail <= 0.1
        passes += ok
        details.append(f"s{seed}:{'ok' if ok else 'FAIL'}")
    report(8, passes >= 9,
           f"noisy pendulum {passes}/10 seeds pass "
           f"(metric<=0.08, tail<=0.1): {' '.join(details)}")


def test_criterion_09_geometry_soundness(numerical_artifacts):
    rng = np.random.default_rng(2024)
    worst_gap = -np.inf
    for trial in range(100):
        balls = [(rng.uniform(-1, 1, size=3), rng.uniform(0.2, 1.0))
                 for _ in range(int(rng.integers(1, 7)))]
        centers = np.array([c for c, _ in balls])
        radii = np.array([r for _, r in balls])
        k = int(rng.integers(len(balls)))
        p = centers[k] + rng.normal(size=3) * radii[k] * 0.3
        est = single_ball_inradius([p], centers, radii)[0]
        if est <= 0:
            continue
        true_est = sampled_inradius(p, centers, radii, seed=trial)
        worst_gap = max(worst_gap, est - true_est)
    under_ok = worst_gap <= 1e-9

    escapes = 0
    checked = 0
    rng2 = rng_stream(numerical_artifacts["cfg"].seed, 91)
    for fam in numerical_artifacts["controller"].families:
        ds = fam.dataset
        for j in range(1, len(fam.inradius)):
            idx = fam.present(j)
            prev_c, prev_r = fam.centers_radii(j - 1)
            for i, r in zip(idx, fam.inradius[j, idx]):
                pts = sample_in_ball(rng2, ds.succ_states[i], r, 200)
                d = np.linalg.norm(pts[:, None, :] - prev_c[None, :, :], axis=2)
                inside = (d <= prev_r[None, :]).any(axis=1)
                checked += 1
                if not np.all(inside):
                    escapes += 1
    report(9, under_ok and escapes == 0,
           f"union-inradius underestimate gap {worst_gap:.2e} over 100 configs; "
           f"level recursion: {escapes} escapes over {checked} entries x200 samples")


def test_criterion_10_inversion(numerical_artifacts, pendulum_artifacts):
    worst = -np.inf
    for art in (numerical_artifacts, pendulum_artifacts):
        b = art["bounds"]
        rs = np.logspace(-6, 2, 100)
        back = b.state_dev(b.state_dev_inv(rs))
        worst = max(worst, float(np.max(np.abs(back - rs) / np.maximum(1.0, rs))))
    report(10, worst <= 1e-9,
           f"composed and linear inversion worst relative error {worst:.2e}")


def test_criterion_11_determinism(tmp_path_factory):
    outs = []
    for tag in ("first", "second"):
        out = str(tmp_path_factory.mktemp(f"det_{tag}"))
        for cmd in ("collect", "build", "simulate"):
            assert main([cmd, "--plant", "numerical", "--out", out]) == 0
        outs.append(out)
    a, b = outs
    same = filecmp.cmp(os.path.join(a, "summary.txt"),
                       os.path.join(b, "summary.txt"), shallow=False)
    run_names = sorted(os.listdir(os.path.join(a, "runs")))
    for nm in run_names:
        same = same and filecmp.cmp(os.path.join(a, "runs", nm),
                                    os.path.join(b, "runs", nm), shallow=False)
    same = same and filecmp.cmp(os.path.join(a, "model.txt"),
                                os.path.join(b, "model.txt"), shallow=False)
    report(11, same,
           f"two full pipelines byte-identical over {len(run_names)} run logs, "
           "summary and model dump")
