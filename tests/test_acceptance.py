"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The numbered criteria pin the tolerances; runtime limits are asserted where
stated.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from invctrl import pipeline, verify
from invctrl.cli import main
from invctrl.config import default_config
from invctrl.interpolant import fit_interpolant
from invctrl.levelsets import margin
from invctrl.narx import shift_state
from invctrl.plants import rng_stream

from conftest import sample_in_ball, sampled_inradius


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
        kernel = cfg.make_kernel()
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


def oracle(art, stream, box):
    """``verify.oracle_violations`` over the artifacts on its own stream."""
    return verify.oracle_violations(art["plant"], art["dataset"], art["model"],
                                    art["bounds"], rng_stream(art["cfg"].seed, stream), box)


def test_criterion_03_deviation_bounds_oracle(numerical_artifacts):
    t0 = time.perf_counter()
    viol_u, viol_y, viol_g, skipped = oracle(numerical_artifacts, 31,
                                             numerical_artifacts["plant"].state_box())
    elapsed = time.perf_counter() - t0
    report(3, viol_u + viol_y + viol_g == 0 and skipped <= 50 and elapsed < 10.0,
           f"{verify.ORACLE_DRAWS} samples, violations u/y/state "
           f"{viol_u}/{viol_y}/{viol_g} (tol 1e-9), {skipped} non-evaluable pairs, "
           f"{elapsed:.1f}s (<10s)")


def test_criterion_04_delayed_map_bounds(pendulum_artifacts):
    # the delay-2 oracle checks input_dev and input_dev + (1 + lip_f) eps,
    # which do not depend on the configured slope
    states = pendulum_artifacts["dataset"].states
    box = np.stack([states.min(axis=0) - 0.02, states.max(axis=0) + 0.02], axis=1)
    viol_u, _, viol_g, _ = oracle(pendulum_artifacts, 41, box)
    report(4, viol_u + viol_g == 0,
           f"{verify.ORACLE_DRAWS} samples of the two-step-delay bounds, "
           f"{viol_u + viol_g} violations")


def test_criterion_05_certified_descent(numerical_runs):
    results, _ = numerical_runs
    ncert = sum(1 for r in results for row in r.rows if row.certified == "certified")
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
        est = margin([p], centers, radii)[0]
        if est <= 0:
            continue
        true_est = sampled_inradius(p, centers, radii, seed=trial)
        worst_gap = max(worst_gap, est - true_est)
    under_ok = worst_gap <= 1e-9

    # level recursion: 200 samples from every entry's successor inradius ball
    # must lie in the previous level's union: each is tested against the
    # entry's witness ball, and only the samples outside it against every ball
    rng2 = rng_stream(numerical_artifacts["cfg"].seed, 91)
    checked = escapes = 0
    for fam, inr, wit in zip(numerical_artifacts["controller"].families,
                             numerical_artifacts["inradii"], numerical_artifacts["witnesses"]):
        for j in range(1, len(fam.radius)):
            prev_c, prev_r = fam.centers_radii(j - 1)
            for i in fam.present(j):
                pts = sample_in_ball(rng2, fam.dataset.succ_states[i], inr[j - 1, i], 200)
                k = wit[j - 1, i]
                out = np.linalg.norm(pts - fam.centers(j - 1)[k], axis=1) > fam.radius[j - 1, k]
                d = np.linalg.norm(pts[out][:, None, :] - prev_c[None, :, :], axis=2)
                escapes += not (d <= prev_r).any(axis=1).all()
                checked += 1
    report(9, under_ok and escapes == 0 and checked > 0,
           f"union-inradius underestimate gap {worst_gap:.2e} over 100 configs; "
           f"level recursion: {escapes} entries with an escape over "
           f"{checked} entries x200 samples")


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
