import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invctrl import verify
from invctrl.bounds import DeviationBounds
from invctrl.config import default_config
from invctrl.kernels import Kernel
from invctrl.levelsets import build_level_family, pairwise_distances, successor_inradii

from conftest import inradius_by_level

SE = Kernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))

# the benchmark's constants: lip_f = 6.5, lip_c = 0.22, norm bound 1
BENCH = DeviationBounds(lip_f=6.5, lip_c=0.22, rkhs_bound=1.0, kernel=SE, delay=1)

LINEAR = DeviationBounds(lip_f=3.59, lip_c=336000.0, rkhs_bound=20.0, kernel=SE, delay=2,
                         gamma_mode="linear", gamma_slope=1.005)


def eta_closed_form(eps):
    # independent oracle: sqrt(1 - exp(-eps^2/16)), cancellation-free
    return math.sqrt(-math.expm1(-eps * eps / 16.0))


def test_interp_err_zero_at_zero():
    assert BENCH.interp_err(0.0) == 0.0
    assert eta_closed_form(0.0) == 0.0


def test_interp_err_known_value():
    assert BENCH.interp_err(4.0) == pytest.approx(eta_closed_form(4.0), rel=1e-12)
    assert BENCH.interp_err(4.0) == pytest.approx(0.7950600976206501, rel=1e-12)


def test_interp_err_saturates_at_norm_bound():
    assert BENCH.interp_err(1e6) == pytest.approx(1.0, abs=1e-12)


def test_profile_mode_reproduces_closed_form():
    # with the squared-exponential profile at scale 2*sqrt(2) and norm bound 1
    # the profile-derived bound equals sqrt(1 - exp(-eps^2/16)) exactly
    eps = np.concatenate([np.logspace(-8, 1.3, 200), [0.0]])
    want = np.array([eta_closed_form(e) for e in eps])
    assert np.allclose(BENCH.interp_err(eps), want, rtol=1e-12, atol=1e-15)


def test_input_dev_values():
    assert BENCH.input_dev(0.0) == 0.0
    expected = 0.22 + eta_closed_form(1.0)
    assert BENCH.input_dev(1.0) == pytest.approx(expected, rel=1e-12)
    assert BENCH.input_dev(2.0) > BENCH.input_dev(1.0)


def test_output_dev_values():
    assert BENCH.output_dev(0.0) == 0.0
    expected = 6.5 * (1.0 + 0.22 + eta_closed_form(1.0))
    assert BENCH.output_dev(1.0) == pytest.approx(expected, rel=1e-12)
    eps = np.logspace(-3, 1, 50)
    assert np.all(BENCH.output_dev(eps) >= 6.5 * eps)


def test_output_dev_rejected_for_delay_two():
    with pytest.raises(ValueError):
        LINEAR.output_dev(1.0)


def test_state_dev_composed_identity():
    # composed form must equal (lc + lf + lf*lc + 1) eps + (1 + lf) eta(eps)
    lf, lc = 6.5, 0.22
    for e in (1e-4, 0.03, 0.2, 1.0, 3.3):
        expected = (lc + lf + lf * lc + 1.0) * e + (1.0 + lf) * eta_closed_form(e)
        assert BENCH.state_dev(e) == pytest.approx(expected, rel=1e-12)


def test_state_dev_delay_two_form():
    b = DeviationBounds(lip_f=3.0, lip_c=2.0, rkhs_bound=1.0, kernel=SE, delay=2)
    e = 0.37
    expected = b.input_dev(e) + (1.0 + 3.0) * e
    assert b.state_dev(e) == pytest.approx(expected, rel=1e-14)


def test_linear_override():
    assert LINEAR.state_dev(0.2) == pytest.approx(0.201, rel=1e-15)
    assert LINEAR.state_dev_inv(0.201) == pytest.approx(0.2, rel=1e-15)


def test_linear_inverse_from_below():
    # a quotient r / slope that rounds up is stepped down by ulps, and only then
    rs = np.random.default_rng(4).uniform(0.0, 2.0, 20000)
    eps = LINEAR.state_dev_inv(rs)
    quotient = rs / LINEAR.gamma_slope
    assert np.all(LINEAR.state_dev(eps) <= rs)
    rounded_up = LINEAR.gamma_slope * quotient > rs
    assert rounded_up.sum() > 10
    assert np.array_equal(eps[~rounded_up], quotient[~rounded_up])
    assert np.all((eps[rounded_up] < quotient[rounded_up])
                  & (eps[rounded_up] >= quotient[rounded_up] * (1.0 - 1e-15)))


def test_inverse_at_zero():
    assert BENCH.state_dev_inv(0.0) == 0.0


def test_inverse_self_consistency():
    # forward-evaluation oracle over 100 log-spaced radii
    rs = np.logspace(-6, 3, 100)
    back = BENCH.state_dev(BENCH.state_dev_inv(rs))
    assert np.max(np.abs(back - rs) / np.maximum(1.0, rs)) <= 1e-9
    assert np.all(back <= rs)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        BENCH.interp_err(-0.1)
    with pytest.raises(ValueError):
        BENCH.state_dev_inv(-1.0)


def test_class_k_grid():
    grid = np.logspace(-9, 3, 1000)
    for fn in (BENCH.input_dev, BENCH.output_dev, BENCH.state_dev):
        vals = fn(grid)
        assert fn(0.0) == 0.0
        assert np.all(np.diff(vals) > 0)
    vals = BENCH.interp_err(grid)
    live = vals < vals[-1] * (1.0 - 1e-12)  # below float saturation
    assert np.all(np.diff(vals[live]) > 0) and np.all(np.diff(vals) >= 0)


def test_invalid_configurations_rejected():
    with pytest.raises(ValueError):
        DeviationBounds(lip_f=0.0, lip_c=1.0, rkhs_bound=1.0, kernel=SE)
    with pytest.raises(TypeError):
        DeviationBounds(lip_f=1.0, lip_c=1.0, rkhs_bound=1.0)  # no kernel
    with pytest.raises(ValueError):
        DeviationBounds(lip_f=1.0, lip_c=1.0, rkhs_bound=1.0, kernel=SE, delay=3)
    with pytest.raises(ValueError):
        DeviationBounds(lip_f=1.0, lip_c=1.0, rkhs_bound=1.0, kernel=SE,
                        gamma_mode="linear")


@given(st.floats(1e-8, 1e3), st.floats(1.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_state_dev_strictly_monotone(eps, factor):
    assert BENCH.state_dev(eps * factor) > BENCH.state_dev(eps)


@given(st.floats(1e-6, 5e2))
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip_property(r):
    eps = BENCH.state_dev_inv(r)
    assert abs(BENCH.state_dev(eps) - r) <= 1e-9 * max(1.0, r)
    assert BENCH.state_dev(eps) <= r


def reference_state_dev_inv(bounds, r, lower=True):
    """Reference bisection: composed ``state_dev`` evaluated as
    ``input_dev + output_dev + eps`` (delay 1), twice per step (side test at
    the midpoint, then stopping test at the lower end).  Returns the inverses
    (the lower ends) and the numbers of doublings and of bisection steps.
    ``lower=False`` is the midpoint inversion this replaced: it stops once the
    next midpoint lies within the tolerance on either side and returns it."""
    def state_dev(e):
        if bounds.delay == 1:
            return bounds.input_dev(e) + bounds.output_dev(e) + e
        return bounds.input_dev(e) + (1.0 + bounds.lip_f) * e

    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    doublings = steps = 0
    if pos.any():
        rp = r[pos]
        hi = np.ones_like(rp)
        while (bad := state_dev(hi) < rp).any():
            hi[bad] *= 2.0
            doublings += 1
        lo = np.zeros_like(rp)
        mid = 0.5 * (lo + hi)
        for _ in range(200):
            steps += 1
            le = state_dev(mid) <= rp
            lo = np.where(le, mid, lo)
            hi = np.where(le, hi, mid)
            mid = 0.5 * (lo + hi)
            gap = rp - state_dev(lo) if lower else np.abs(state_dev(mid) - rp)
            if np.all(gap <= 1e-11 * np.maximum(1.0, rp)):
                break
        out[pos] = lo if lower else mid
    return out, doublings, steps


def counting_deficit(bounds):
    """``bounds`` with its kernel-deficit calls counted in the returned list."""
    calls = []

    class Counting(Kernel):
        def profile_deficit(self, r):
            calls.append(np.size(r))
            return super().profile_deficit(r)
    k = bounds.kernel
    return replace(bounds, kernel=Counting(k.family, k.sigma_f, k.sigma_l)), calls


DELAY2_COMPOSED = DeviationBounds(lip_f=3.59, lip_c=2.0, rkhs_bound=20.0, kernel=SE, delay=2)


def inversion_cases(numerical_artifacts):
    """(bounds, radii) batches: every level row of the numerical build, a
    random batch with a zero, and the same batch under a delay-2 bound."""
    bounds = numerical_artifacts["bounds"]
    for fam, inradius in zip(numerical_artifacts["controller"].families,
                             numerical_artifacts["inradii"]):
        for j, row in enumerate(inradius_by_level(fam, inradius)):
            yield bounds, row[fam.present(j)]
    rng = np.random.default_rng(11)
    batch = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 40),
                            10.0 ** rng.uniform(-6.0, 3.0, 40)])
    yield BENCH, rng.permutation(batch)
    yield DELAY2_COMPOSED, batch


def test_state_dev_evaluates_input_dev_once_bitwise():
    eps = np.concatenate([[0.0], np.logspace(-9, 3, 500)])
    assert np.array_equal(BENCH.state_dev(eps),
                          BENCH.input_dev(eps) + BENCH.output_dev(eps) + eps)
    for e in (0.0, 1e-7, 0.3, 2.0):
        assert BENCH.state_dev(e) == BENCH.input_dev(e) + BENCH.output_dev(e) + e


def test_state_dev_inv_equals_reference_bisection(numerical_artifacts):
    rows = 0
    for bounds, r in inversion_cases(numerical_artifacts):
        assert np.array_equal(bounds.state_dev_inv(r), reference_state_dev_inv(bounds, r)[0])
        rows += 1
    families = numerical_artifacts["controller"].families
    assert rows == sum(len(f.radius) for f in families) + 2


def test_state_dev_inv_one_deficit_evaluation_per_step(numerical_artifacts):
    for bounds, r in inversion_cases(numerical_artifacts):
        if not np.any(r > 0):
            continue
        _, doublings, steps = reference_state_dev_inv(bounds, r)
        counted, calls = counting_deficit(bounds)
        counted.state_dev_inv(r)
        assert len(calls) <= doublings + steps + 2
        ref_counted, ref_calls = counting_deficit(bounds)
        reference_state_dev_inv(ref_counted, r)
        assert len(ref_calls) >= (3 if bounds.delay == 1 else 2) * steps


def test_stored_cert_radius_rows_are_one_inversion(numerical_artifacts):
    # a stored row >= 1 is one batched inversion of the level's successor
    # inradii; the same radii inverted one at a time stop elsewhere in the
    # last digits
    bounds = numerical_artifacts["bounds"]
    families, inradii = numerical_artifacts["controller"].families, numerical_artifacts["inradii"]
    assert len(families) == 9
    for fam, inradius in zip(families, inradii):
        for j in range(1, len(fam.radius)):
            idx = fam.present(j)
            assert np.array_equal(fam.radius[j, idx],
                                  bounds.state_dev_inv(inradius[j - 1, idx]))
    fam, inradius = families[-1], inradii[-1]
    idx = fam.present(1)
    alone = np.array([bounds.state_dev_inv(x) for x in inradius[0, idx]])
    assert len(idx) > 10 and not np.array_equal(alone, fam.radius[1, idx])
    assert np.allclose(alone, fam.radius[1, idx], rtol=1e-8, atol=0.0)


def test_midpoint_inversion_fails_the_exact_checks(numerical_artifacts, monkeypatch):
    # families built with the midpoint inversion this replaced hold certified
    # radii that map past their inradius, and its grid overshoots: verify's
    # exact checks name both
    art = numerical_artifacts
    cfg, ds, bounds = art["cfg"], art["dataset"], art["bounds"]
    monkeypatch.setattr(DeviationBounds, "state_dev_inv",
                        lambda self, r: reference_state_dev_inv(self, r, lower=False)[0])
    dists = pairwise_distances(ds)
    built = [build_level_family(ds, bounds, delta, cfg.depth, _dists=dists)
             for delta in cfg.deltas]
    checks = verify.run_all(cfg, ds, art["model"],
                            SimpleNamespace(families=[fam for fam, _ in built]),
                            [witness for _, witness in built], art["plant"], bounds,
                            log=lambda *a: None)
    verdicts = {name: (passed, detail) for name, passed, detail in checks}
    assert verdicts["bounds_inversion"][0] is False
    assert verdicts["bounds_inversion"][1].endswith("radii overshot")
    passed, detail = verdicts["family_certificate_consistency"]
    named = re.fullmatch(r"delta=(\S+) level=(\d+) record=(\d+), exact, every entry; "
                         r"composed bound", detail)
    assert passed is False and named
    fam, witness = next(entry for entry in built if entry[0].delta == float(named[1]))
    j, i = int(named[2]), int(named[3])
    assert bounds.state_dev(fam.radius[j, i]) > successor_inradii(fam, witness)[j - 1, i]
    assert [name for name, passed, _ in checks if not passed] == [
        "bounds_inversion", "family_certificate_consistency"]


@pytest.mark.parametrize("plant", ["numerical", "pendulum"])
def test_config_bounds_equal_the_profile_formula_bitwise(plant):
    # the study outputs cannot see a rounding change in the bounds (the
    # bisection depends only on its side tests), so the configured bounds
    # are pinned here: s is 1 for an isotropic kernel, sqrt(2) min sigma_l
    # for the ARD kernel
    cfg = default_config(plant)
    kernel = cfg.make_kernel()
    bounds = cfg.make_bounds(kernel)
    s = 1.0 if plant == "numerical" else np.sqrt(2.0) * min(cfg.sigma_l)
    eps = 10.0 ** np.random.default_rng(17).uniform(-9.0, 2.0, 500)
    eta = cfg.rkhs_bound * np.sqrt(np.maximum(
        0.0, kernel.profile_deficit(eps / s) / float(kernel.profile(0.0))))
    if cfg.gamma_mode == "linear":
        dev = cfg.gamma_slope * eps
    else:
        u = cfg.lip_c * eps + eta
        dev = u + cfg.lip_f * (eps + u) + eps
    assert np.array_equal(bounds.interp_err(eps), eta)
    assert np.array_equal(bounds.state_dev(eps), dev)
    assert 0.0 < eta.min() and eta.max() <= cfg.rkhs_bound


@pytest.mark.parametrize("plant", ["numerical", "pendulum"])
def test_config_bounds_equal_the_two_lambda_form_bitwise(request, plant):
    # bounds built on the kernel equal bounds built on the two profile
    # lambdas that scale a distance by radius_scale, on state_dev and on
    # batched inversions of the study's successor inradius rows
    art = request.getfixturevalue(f"{plant}_artifacts")
    cfg, kernel = art["cfg"], art["model"].kernel
    scale = kernel.radius_scale
    lambdas = SimpleNamespace(radius_scale=1.0,
                              profile=lambda r: kernel.profile(r / scale),
                              profile_deficit=lambda r: kernel.profile_deficit(r / scale))
    bounds = cfg.make_bounds(kernel)
    reference = replace(bounds, kernel=lambdas)
    eps = np.logspace(-9, 3, 1000)
    assert bounds.state_dev(eps).tobytes() == reference.state_dev(eps).tobytes()
    assert bounds.interp_err(eps).tobytes() == reference.interp_err(eps).tobytes()
    rows = 0
    for fam, inradius in zip(art["controller"].families[:3], art["inradii"][:3]):
        for j, row in enumerate(inradius_by_level(fam, inradius)[:4]):
            r = row[fam.present(j)]
            assert bounds.state_dev_inv(r).tobytes() == reference.state_dev_inv(r).tobytes()
            rows += 1
    assert rows >= 6
