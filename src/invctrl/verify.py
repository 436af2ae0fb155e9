"""Artifact property suites behind the ``verify`` subcommand.

Each check returns (name, passed, detail) over artifacts that a ``build``
left on disk, loaded by the caller, so corrupted dumps are caught; failures
carry the offending entry as a counterexample.

The family suites make one pass per family, over the successor inradii that
``levelsets.successor_inradii`` re-derives from the stored witness table, so
every certificate is checked against an inradius computed here, not one the
build stored.  The radius, slab and certificate checks compare whole
``(levels, records)`` tables and name what a level-by-level loop names: the
first extreme of the last offending (family, level).  The certificate check
tests ``state_dev(radius) <= inradius`` with no slack on every entry of levels
>= 1.  The inradius is ``R_k - dist(succ, c_k)`` for the witness ball k, so
the inradius ball lies inside ball k and this is the recursion property of the
entry: from anywhere in its certified ball the successor lands in the previous
level.

The bound oracle draws its ``ORACLE_DRAWS`` (record, state) pairs from a
box one at a time, as a per-sample loop would, and evaluates their kernel
rows at once; each estimate is a one-row product, bit for bit ``predict``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .levelsets import ABSENT, check_nesting, successor_inradii
from .plants import rng_stream

STREAM_VERIFY = 7
ORACLE_DRAWS = 1000


def family_offenders(families, inradii, bounds):
    """Details of the non-positive radius (the smaller of an entry's radius and
    its successor inradius from ``inradii``), slab reach and certificate
    (``state_dev(radius) <= inradius`` with no slack, levels >= 1, radius > 0)
    checks, each None or the first extreme of the last offending (family,
    level), as a level-by-level loop names it."""
    found = [None, None, None]
    for fam, inradius in zip(families, inradii):
        inner = np.concatenate([fam.radius[:1], inradius])  # successor inradii by level
        present = fam.radius != ABSENT
        radius = np.where(present, np.minimum(inner, fam.radius), np.inf)
        live = present & (fam.radius > 0)
        live[:1] = False  # level 0 has no certified radius
        gap = np.full(radius.shape, ABSENT)
        gap[live] = bounds.state_dev(fam.radius[live]) - inner[live]
        rows = np.flatnonzero((radius <= 0).any(axis=1))
        if rows.size:
            j, k = rows[-1], np.argmin(radius[rows[-1]])
            found[0] = f"delta={fam.delta:g} level={j} record={k} r={radius[j, k]:g}"
        if len(radius):  # an ABSENT inradius keeps an ABSENT margin
            ds = fam.dataset
            margin = np.abs(ds.succ_states[:, ds.order - 1]) + fam.radius[0]
            if np.any(margin > fam.delta + 1e-12):
                k = np.argmax(margin)
                found[1] = f"delta={fam.delta:g} record={k} reach={margin[k]:g}"
        rows = np.flatnonzero((gap > 0).any(axis=1))
        if rows.size:
            found[2] = f"delta={fam.delta:g} level={rows[-1]} record={np.argmax(gap[rows[-1]])}"
    return found


def oracle_draws(rng, records, box):
    """``ORACLE_DRAWS`` (record, state) pairs drawn in turn, a record index
    below ``records`` then a state in ``box``.  Each state is a ``random``
    draw mapped onto the box after the loop by ``uniform``'s own arithmetic,
    ``low + (high - low) * draw``, so the states and the stream left behind
    equal those of one ``rng.uniform(low, high)`` per draw, bit for bit."""
    rec = np.empty(ORACLE_DRAWS, dtype=int)
    z = np.empty((ORACLE_DRAWS, len(box)))
    for k in range(ORACLE_DRAWS):
        rec[k] = rng.integers(records)
        rng.random(out=z[k])
    return rec, box[:, 0] + (box[:, 1] - box[:, 0]) * z


def oracle_violations(plant, dataset, model, bounds, rng, box):
    """Deviation-bound violations against the true plant over ``ORACLE_DRAWS``
    (record, state) draws, states uniform in ``box`` (a (low, high) row per
    coordinate), as (input, output, state, infeasible skips).

    A delay-1 plant checks ``input_dev``, ``output_dev`` and ``state_dev``
    on feasible pairs; a delay-2 plant checks ``input_dev`` and the composed
    successor bound ``input_dev + (1 + lip_f) eps``, never the configured
    slope."""
    rec, z = oracle_draws(rng, len(dataset), box)
    eps = np.linalg.norm(dataset.states[rec] - z, axis=1)
    kx = model.kernel.cross(np.concatenate([dataset.targets[rec, None], z], axis=1),
                            model.train_x)
    # one row per product: a batched gemv differs from ``predict(x)`` in the last bits
    u_hat = np.array([(kx[k:k + 1] @ model.alpha)[0] for k in range(ORACLE_DRAWS)])
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


def add_check(checks, log, name, passed, detail=""):
    """Append one check to ``checks`` and log its verdict line."""
    checks.append((name, bool(passed), detail))
    log(f"verify {'PASS' if passed else 'FAIL'} {name}"
        + (f": {detail}" if detail else ""))


def run_all(cfg, dataset, model, controller, witnesses, plant, bounds, log=print):
    """Every artifact suite over loaded artifacts, as (name, passed, detail)
    checks in report order; ``witnesses`` holds each family's witness table."""
    checks = []
    add = partial(add_check, checks, log)
    kernel = model.kernel
    rng = rng_stream(cfg.seed, STREAM_VERIFY)

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

    # interpolant: one training kernel matrix for the residual and the power --
    if model.lam != 0.0:
        add("interpolation_exactness", True,
            f"skipped (ridge fit, lambda={model.lam:g})")
    elif not np.array_equal(model.train_x, dataset.features):
        add("interpolation_exactness", False,
            "the model's training features are not the dataset's features")
    else:
        # equals ``gram`` bit for bit: cdist is symmetric bit for bit
        K = kernel.cross(dataset.features, model.train_x)
        resid = np.max(np.abs(K @ model.alpha - dataset.controls))
        add("interpolation_exactness", resid <= 1e-8, f"max residual {resid:.2e}")
        sub = rng.choice(len(dataset), size=min(64, len(dataset)), replace=False)
        # the columns copied C-contiguous, as ``power`` passes its own
        pw = np.max(model.power_of_columns(np.ascontiguousarray(K[:, sub]), gram=K))
        add("power_function_at_data", pw <= 1e-3 * kernel.sigma_f,
            f"max power at data {pw:.2e}")

    # bounds ---------------------------------------------------------------
    grid = np.logspace(-9, 3, 1000)
    names = [("interp_err", bounds.interp_err, False),
             ("input_dev", bounds.input_dev, True),
             ("state_dev", bounds.state_dev, True)]
    if plant.delay == 1:
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
    over = int(np.count_nonzero(back > rs))
    add("bounds_inversion", inv_err <= 1e-9 and over == 0,
        f"max relative error {inv_err:.2e}" + (f", {over} radii overshot" if over else ""))

    # oracle-backed deviation bounds; delay 2: the data range widened 5 % ---
    if plant.delay == 1:
        box = plant.state_box()
    else:
        spread = 0.05 * np.abs(dataset.states).max(axis=0)
        box = np.stack([dataset.states.min(axis=0) - spread,
                        dataset.states.max(axis=0) + spread], axis=1)
    viol_u, viol_y, viol_g, skipped = oracle_violations(
        plant, dataset, model, bounds, rng, box)
    if plant.delay == 1:
        add("bound_validity_oracle", viol_u + viol_y + viol_g == 0,
            f"violations u/y/state {viol_u}/{viol_y}/{viol_g}, "
            f"{skipped} infeasible-pair skips of {ORACLE_DRAWS}")
    else:
        viol = viol_u + viol_g
        add("bound_validity_oracle", viol == 0,
            f"{viol} violations over {ORACLE_DRAWS} delayed-map samples")

    # level families ---------------------------------------------------------
    inradii = [successor_inradii(fam, w) for fam, w in zip(controller.families, witnesses)]
    neg, slab, cert = family_offenders(controller.families, inradii, bounds)
    add("family_positive_radii", neg is None, neg or "all entry inradii positive")
    add("family_slab_soundness", slab is None, slab or "level-0 balls inside the output slab")
    bound = ("composed bound" if bounds.gamma_mode == "composed"
             else f"linear gamma slope {bounds.gamma_slope:g}")
    bound += "" if cfg.sound else ", heuristic"
    add("family_certificate_consistency", cert is None,
        f"{cert or 'state_dev(cert_radius) <= inradius'}, exact, every entry; {bound}")

    nest = ", ".join(
        f"{fam.delta:g}:{'yes' if check_nesting(fam) else 'unverified'}"
        for fam in controller.families)
    add("family_nesting_status", True, nest)

    return checks
