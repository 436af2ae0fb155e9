"""Artifact property suites behind the ``verify`` subcommand.

Each check returns (name, passed, detail).  Checks run against the files a
``build`` (and optionally ``simulate``) left on disk, so corrupted dumps are
caught; failures carry the offending entry as a counterexample.

The recursion-soundness check draws a level's samples as per-entry
``sample_in_ball`` calls would and tests each entry's samples first against
its previous-level ball of largest slack ``radius - dist(entry center, ball
center)``, in one vectorised distance summed as ``cdist`` sums; that ball
almost always decides.  Only samples it leaves go to the full scan, one
``cdist`` over row blocks of at most ``CDIST_CELLS`` distances.  The verdicts
equal the full scan's: a sample counts as inside only by a real ``dist <=
radius`` comparison on a ``cdist`` distance, as escaped only after the scan.

The bound-validity oracle draws its ``ORACLE_DRAWS`` (record, state) pairs
one pair at a time, so the random stream interleaves as in a per-sample
loop, then evaluates the model and the bounds once over all of them; only
the plant steps stay per sample.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.spatial.distance import cdist

from .levelsets import check_nesting
from .plants import rng_stream

STREAM_VERIFY = 7
CDIST_CELLS = 1 << 20  # largest (samples x balls) distance block held at once
ORACLE_DRAWS = 1000


def sample_in_ball(rng, center, radius, count):
    """Uniform samples from a closed ball (for soundness spot checks)."""
    center = np.asarray(center, dtype=float)
    return sample_in_balls(rng, center[None], [radius], count)[0]


def sample_in_balls(rng, centers, radii, count):
    """``count`` uniform samples from each closed ball, shape (balls, count,
    dim).  Drawn ball by ball, directions then radii, so each ball's samples
    equal a ``sample_in_ball`` call's at that point of the stream."""
    dim = centers.shape[1]
    dirs, u = map(np.stack, zip(*[(rng.normal(size=(count, dim)),
                                   rng.uniform(0.0, 1.0, size=count)) for _ in centers]))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    r = np.asarray(radii, dtype=float)[:, None] * u ** (1.0 / dim)
    return centers[:, None, :] + dirs * r[:, :, None]


def paired_distances(pts, centers):
    """Distance of each ``pts[i, s]`` to ``centers[i]``, summed coordinate by
    coordinate as ``cdist`` sums, hence equal to its distances bit for bit."""
    return np.sqrt(sum((pts[..., k] - centers[:, None, k]) ** 2
                       for k in range(pts.shape[-1])))


def recursion_escapes(fam, level, idx, samples, rng):
    """Per record of ``idx`` (ascending, present at ``level`` >= 1): whether
    any of ``samples`` uniform draws from its level ball lies outside the
    level-(level-1) union.  Draws entry by entry, in ``idx`` order."""
    centers = fam.dataset.succ_states[idx]
    pts = sample_in_balls(rng, centers, fam.inradius[level, idx], samples)
    prev_c, prev_r = fam.centers_radii(level - 1)
    if not len(prev_c):
        return np.ones(len(idx), dtype=bool)
    best = np.argmax(prev_r - cdist(centers, prev_c), axis=1)  # largest slack
    inside = paired_distances(pts, prev_c[best]) <= prev_r[best, None]
    miss = np.flatnonzero(~inside.ravel())
    if miss.size:
        rest = pts.reshape(-1, pts.shape[2])[miss]
        rows = max(1, CDIST_CELLS // len(prev_c))
        inside.flat[miss] = np.concatenate([
            (cdist(rest[s:s + rows], prev_c) <= prev_r).any(axis=1)
            for s in range(0, len(rest), rows)])
    return ~inside.all(axis=1)


def oracle_violations(plant, dataset, model, bounds, rng):
    """Deviation-bound violations against the true plant over
    ``ORACLE_DRAWS`` (record, state) draws, as (input, output, state,
    infeasible skips).

    States are drawn from ``plant.state_box()`` for the delay-1 plant and
    from the data's state range widened by 5 % otherwise.  A delay-1 plant
    checks ``input_dev``, ``output_dev`` and ``state_dev`` on feasible
    pairs; a delay-2 plant checks ``input_dev`` and the composed successor
    bound ``input_dev + (1 + lip_f) eps``, never the configured slope."""
    if plant.delay == 1:
        box = plant.state_box()
        lo, hi = box[:, 0], box[:, 1]
    else:
        spread = 0.05 * np.abs(dataset.states).max(axis=0)
        lo = dataset.states.min(axis=0) - spread
        hi = dataset.states.max(axis=0) + spread
    rec = np.empty(ORACLE_DRAWS, dtype=int)
    z = np.empty((ORACLE_DRAWS, len(lo)))
    for k in range(ORACLE_DRAWS):
        rec[k] = rng.integers(len(dataset))
        z[k] = rng.uniform(lo, hi)
    eps = np.linalg.norm(dataset.states[rec] - z, axis=1)
    u_hat = model.predict(np.concatenate([dataset.targets[rec, None], z], axis=1))
    viol_u = np.abs(dataset.controls[rec] - u_hat) > bounds.input_dev(eps) + 1e-9
    feasible = np.array([plant.input_feasible(zk, uk) for zk, uk in zip(z, u_hat)])
    y_next = np.zeros(ORACLE_DRAWS)
    z_next = np.zeros_like(z)
    for k in np.flatnonzero(feasible):
        y_next[k], z_next[k] = plant.advance(z[k], u_hat[k])
    gap = np.linalg.norm(dataset.succ_states[rec] - z_next, axis=1)
    if plant.delay == 1:
        viol_y = np.abs(dataset.targets[rec] - y_next) > bounds.output_dev(eps) + 1e-9
        lim = bounds.state_dev(eps)
    else:
        viol_y = np.zeros(ORACLE_DRAWS, dtype=bool)
        lim = bounds.input_dev(eps) + (1.0 + bounds.lip_f) * eps
    viol_g = gap > lim + 1e-9
    return (int(viol_u.sum()), int((viol_y & feasible).sum()),
            int((viol_g & feasible).sum()), int((~feasible).sum()))


def run_all(cfg, log=print):
    from . import pipeline  # lazy: pipeline imports this module at bottom

    checks = []

    def add(name, passed, detail=""):
        checks.append((name, bool(passed), detail))
        log(f"verify {'PASS' if passed else 'FAIL'} {name}"
            + (f": {detail}" if detail else ""))

    dataset, model, controller = pipeline.load_artifacts(cfg)
    plant = pipeline.make_plant(cfg)
    kernel = model.kernel
    bounds = pipeline.make_bounds(cfg, kernel)
    rng = rng_stream(cfg.seed, STREAM_VERIFY)
    big = len(dataset) > 400

    # kernels -------------------------------------------------------------
    pts = rng.uniform(-1.0, 1.0, size=(40, dataset.feature_dim))
    sym = max(abs(kernel(a, b) - kernel(b, a))
              for a in pts[:10] for b in pts[10:20])
    add("kernel_symmetry", sym == 0.0, f"max asymmetry {sym:g}")
    rr = np.linspace(0.0, 10.0, 2001)
    prof = np.asarray(kernel.profile(rr))
    add("kernel_profile_monotone", bool(np.all(np.diff(prof) <= 1e-15)),
        "non-increasing on [0, 10]")

    # dataset structure ----------------------------------------------------
    cat = np.concatenate([dataset.targets[:, None], dataset.states], axis=1)
    feats_ok = np.array_equal(cat, dataset.features)
    n = dataset.order
    succ = dataset.succ_states
    sel_ok = (np.array_equal(succ[:, :n - 1], dataset.states[:, 1:n])
              and np.array_equal(succ[:, n:2 * n - 2], dataset.states[:, n + 1:])
              and np.array_equal(succ[:, -1], dataset.controls))
    add("dataset_feature_layout", feats_ok, "features = [target; state]")
    add("dataset_successor_shift", sel_ok, "successors are exact shifts")

    # interpolant ----------------------------------------------------------
    if model.lam == 0.0:
        resid = np.max(np.abs(model.predict(dataset.features) - dataset.controls))
        add("interpolation_exactness", resid <= 1e-8, f"max residual {resid:.2e}")
        sub = rng.choice(len(dataset), size=min(64, len(dataset)), replace=False)
        pw = np.max(model.power(dataset.features[sub]))
        add("power_function_at_data", pw <= 1e-3 * kernel.sigma_f,
            f"max power at data {pw:.2e}")
    else:
        add("interpolation_exactness", True,
            f"skipped (ridge fit, lambda={model.lam:g})")

    # bounds ---------------------------------------------------------------
    grid = np.logspace(-9, 3, 1000)
    names = [("interp_err", bounds.interp_err, False),
             ("input_dev", bounds.input_dev, True),
             ("state_dev", bounds.state_dev, True)]
    if cfg.delay == 1:
        names.append(("output_dev", bounds.output_dev, True))
    kinf_ok, kinf_detail = True, []
    for nm, fn, strict_all in names:
        vals = fn(grid)
        if strict_all:
            mono = bool(np.all(np.diff(vals) > 0))
        else:
            # class-K bounds may saturate at their supremum in float64;
            # demand strict growth below saturation, monotone overall
            live = vals < vals[-1] * (1.0 - 1e-12)
            mono = (bool(np.all(np.diff(vals[live]) > 0))
                    and bool(np.all(np.diff(vals) >= 0)))
        ok = fn(0.0) == 0.0 and mono
        kinf_ok = kinf_ok and ok
        if not ok:
            kinf_detail.append(nm)
    add("bounds_class_k", kinf_ok,
        "zero at zero, strictly increasing" if kinf_ok
        else f"violated by {kinf_detail}")
    rs = np.logspace(-6, 3, 100)
    back = bounds.state_dev(bounds.state_dev_inv(rs))
    inv_err = np.max(np.abs(back - rs) / np.maximum(1.0, rs))
    add("bounds_inversion", inv_err <= 1e-9, f"max relative error {inv_err:.2e}")

    # oracle-backed deviation bounds ----------------------------------------
    viol_u, viol_y, viol_g, skipped = oracle_violations(
        plant, dataset, model, bounds, rng)
    if cfg.plant == "numerical":
        add("bound_validity_oracle", viol_u + viol_y + viol_g == 0,
            f"violations u/y/state {viol_u}/{viol_y}/{viol_g}, "
            f"{skipped} infeasible-pair skips of {ORACLE_DRAWS}")
    else:
        viol = viol_u + viol_g
        add("bound_validity_oracle", viol == 0,
            f"{viol} violations over {ORACLE_DRAWS} delayed-map samples")

    # level families ---------------------------------------------------------
    neg = slab_bad = cert_bad = None
    for fam in controller.families:
        for j in range(len(fam.inradius)):
            idx = fam.present(j)
            if idx.size == 0:
                continue
            r, c = fam.inradius[j, idx], fam.cert_radius[j, idx]
            if np.any(r <= 0):
                neg = (fam.delta, j, int(idx[np.argmin(r)]), float(r.min()))
            if j == 0:
                margin = np.abs(dataset.succ_states[idx, dataset.order - 1]) + r
                if np.any(margin > fam.delta + 1e-12):
                    k = int(np.argmax(margin))
                    slab_bad = (fam.delta, int(idx[k]), float(margin[k]))
            gap = bounds.state_dev(c) - r
            if np.any(gap > 1e-9):
                k = int(np.argmax(gap))
                cert_bad = (fam.delta, j, int(idx[k]), float(gap[k]))
    add("family_positive_radii", neg is None,
        "all entry inradii positive" if neg is None
        else f"delta={neg[0]:g} level={neg[1]} record={neg[2]} r={neg[3]:g}")
    add("family_slab_soundness", slab_bad is None,
        "level-0 balls inside the output slab" if slab_bad is None
        else f"delta={slab_bad[0]:g} record={slab_bad[1]} reach={slab_bad[2]:g}")
    add("family_certificate_consistency", cert_bad is None,
        "state_dev(cert_radius) <= inradius + 1e-9" if cert_bad is None
        else f"delta={cert_bad[0]:g} level={cert_bad[1]} record={cert_bad[2]}")

    per_level = None if not big else 8
    samples = 200 if not big else 50
    fail = None
    for fam in controller.families:
        for j in range(1, len(fam.inradius)):
            idx = fam.present(j)
            if idx.size == 0:
                continue
            if per_level is not None:
                idx = idx[np.unique(np.linspace(0, len(idx) - 1, per_level).astype(int))]
            escaped = recursion_escapes(fam, j, idx, samples, rng)
            if escaped.any():
                fail = (fam.delta, j, int(idx[np.argmax(escaped)]))
                break
        if fail:
            break
    add("family_recursion_soundness", fail is None,
        f"{samples} samples/entry"
        + ("" if per_level is None else f", {per_level} entries/level")
        + ("" if fail is None
           else f"; escape at delta={fail[0]:g} level={fail[1]} record={fail[2]}"))

    nest = ", ".join(
        f"{fam.delta:g}:{'yes' if check_nesting(fam) else 'unverified'}"
        for fam in controller.families)
    add("family_nesting_status", True, nest)

    # run logs ----------------------------------------------------------------
    paths = pipeline._paths(cfg)
    if os.path.exists(paths["summary"]):
        ok = pipeline.cmd_report(cfg, log=lambda *_: None)
        add("rmse_recompute", ok, "summary matches recomputed metric")

    return checks
