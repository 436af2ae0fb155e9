import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor

from scipy.spatial.distance import cdist

from invctrl.config import default_config
from invctrl.kernels import Kernel, _matern52_profile

SE = Kernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))


def k(kernel, a, b):
    """k(a, b) of two points."""
    return float(kernel.cross(a, b)[0, 0])


def test_se_zero_distance_is_signal_variance():
    x = np.array([0.3, -0.2, 0.7, 0.0])
    assert k(SE, x, x) == 1.0
    k2 = Kernel("squared_exponential", 2.5, 1.0)
    assert k(k2, x, x) == pytest.approx(6.25, abs=0)


def test_se_known_value_at_distance_four():
    # oracle: direct evaluation of exp(-d^2 / (2 sigma_l^2)) = exp(-16/16)
    a = np.zeros(4)
    b = np.array([4.0, 0.0, 0.0, 0.0])
    assert k(SE, a, b) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_ard_matern_zero_distance():
    ard = Kernel("ard_matern52", 1.0, (0.1, 0.2, 0.3, 0.4))
    x = np.array([0.5, 0.5, 0.5, 0.5])
    assert k(ard, x, x) == 1.0


def test_ard_matern_matches_displayed_formula():
    ard = Kernel("ard_matern52", 2.0, (0.3, 0.7))
    a = np.array([0.1, -0.4])
    b = np.array([-0.2, 0.5])
    r = math.sqrt(sum((ai - bi) ** 2 / (2 * sl**2)
                      for ai, bi, sl in zip(a, b, (0.3, 0.7))))
    expected = 4.0 * (1 + math.sqrt(5) * r + 5 * r**2 / 3) * math.exp(-math.sqrt(5) * r)
    assert k(ard, a, b) == pytest.approx(expected, rel=1e-14)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        SE.cross(np.zeros(3), np.zeros(4))
    ard = Kernel("ard_matern52", 1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        ard.cross(np.zeros(3), np.zeros(3))


def test_gram_single_point():
    K = SE.gram(np.zeros((1, 4)))
    assert K.shape == (1, 1) and K[0, 0] == 1.0


def test_gram_duplicate_points_not_spd():
    pts = np.zeros((2, 4))
    K = SE.gram(pts)
    w = np.linalg.eigvalsh(K)
    assert w[0] == pytest.approx(0.0, abs=1e-12)  # rank deficient
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(K, lower=True)


def test_gram_distinct_points_positive_definite():
    # oracle: eigenvalue computation
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(5, 4))
    w = np.linalg.eigvalsh(SE.gram(pts))
    assert w[0] > 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_symmetry_exact(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 4))
    for kernel in (SE, Kernel("ard_matern52", 1.1, (0.2, 0.5, 1.0, 2.0))):
        assert k(kernel, a, b) == k(kernel, b, a)


@given(st.sampled_from(["squared_exponential", "ard_matern52"]),
       st.floats(0.1, 5.0), st.floats(0.05, 10.0))
@settings(max_examples=40, deadline=None)
def test_profile_non_increasing_and_bounded(family, sf, sl):
    kernel = Kernel(family, sf, sl)
    r = np.linspace(0.0, 20.0, 400)
    vals = kernel.profile(r)
    assert vals[0] == pytest.approx(sf * sf, rel=1e-15)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals >= 0) and np.all(vals <= sf * sf)
    # strictly positive wherever the exponential stays in float range
    near = kernel.profile(np.linspace(0.0, 5.0 * sl, 100))
    assert np.all(near > 0)


def test_profile_deficit_matches_complement_and_is_stable():
    for kernel in (SE, Kernel("ard_matern52", 1.0, 0.5)):
        r = np.logspace(-8, 1, 50)
        direct = kernel.profile(0.0) - kernel.profile(r)
        stable = kernel.profile_deficit(r)
        assert np.allclose(stable, direct, rtol=1e-7, atol=1e-15)
        # stability: tiny radii must give a nonzero, monotone deficit
        tiny = kernel.profile_deficit(np.array([1e-9, 2e-9, 4e-9]))
        assert np.all(tiny > 0) and np.all(np.diff(tiny) > 0)


def test_kernel_checks_family_and_scales():
    assert Kernel("ard_matern52", 1.0, (1.0, 2.0)).sigma_l == (1.0, 2.0)
    assert Kernel("squared_exponential", 1.0, [2.0]).sigma_l == (2.0,)
    with pytest.raises(ValueError, match="takes a single length scale"):
        Kernel("squared_exponential", 1.0, (1.0, 2.0))
    for family in ("rbf", "laplacian", "matern52"):
        with pytest.raises(ValueError, match="unknown kernel family"):
            Kernel(family, 1.0, 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        Kernel("ard_matern52", 1.0, (1.0, 0.0))
    with pytest.raises(ValueError, match="must be positive"):
        Kernel("ard_matern52", 1.0, ())


@pytest.mark.parametrize("sigma_f,sigma_l", [
    (1e-200, (1.0,)), (1e200, (1.0,)), (1.0, (1e-200,)), (1.0, (1e200,)),
    (1.0, (-1.0,)), (math.nan, (1.0,)), (1.0, (math.inf,)),
    (1.4e-154, (1.0,)), (1.0, (1.4e154,))],
    ids=["sigma_f_squared_underflows", "sigma_f_squared_overflows", "sigma_l_squared_underflows",
         "sigma_l_squared_overflows", "sigma_l_negative", "sigma_f_nan", "sigma_l_inf",
         "sigma_f_squared_subnormal", "sigma_l_squared_just_overflows"])
def test_kernel_rejects_scales_whose_squares_leave_the_normal_range(sigma_f, sigma_l):
    # a square that underflows to zero or overflows to inf, or a non-positive scale
    for family in ("squared_exponential", "ard_matern52"):
        with pytest.raises(ValueError, match="squares in the normal float range"):
            Kernel(family, sigma_f, sigma_l)
        with pytest.raises(ValueError, match="squares in the normal float range"):
            Kernel("ard_matern52", sigma_f, (0.5,) + sigma_l)
    # the extremes whose squares stay normal are accepted
    for v in (1.5e-154, 1.3e154):
        Kernel("ard_matern52", v, (v, 1.0))


def test_ard_embed_rejects_other_dimensions_even_with_one_scale():
    # a single ARD scale would broadcast over any dimension; embed refuses it
    one = Kernel("ard_matern52", 1.0, (0.5,))
    assert one.embed(np.ones((3, 1))).shape == (3, 1)
    with pytest.raises(ValueError, match="expected dimension 1, got 4"):
        one.embed(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="expected dimension 4, got 3"):
        Kernel("ard_matern52", 1.0, (1.0, 1.0, 1.0, 1.0)).embed(np.zeros((0, 3)))
    # the single-scale families embed points of any dimension
    SE.embed(np.zeros((2, 7)))


def test_radius_scale_turns_distances_into_profile_radii():
    assert SE.radius_scale == 1.0
    ard = Kernel("ard_matern52", 1.0, (0.3, 0.1, 0.7))
    assert ard.radius_scale == np.sqrt(2.0) * 0.1
    # the profile at distance / radius_scale never exceeds the kernel value
    # (equal with equal scales, up to the rounding of the scaled radius)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, 50, 3))
    for kernel in (ard, Kernel("ard_matern52", 1.0, (0.5, 0.5, 0.5))):
        for x, y in zip(a, b):
            radius = np.linalg.norm(x - y) / kernel.radius_scale
            assert kernel.profile(radius) <= k(kernel, x, y) * (1 + 1e-13)


# s = 0, a subnormal, a log grid and radii where exp(-sqrt(5) s) underflows
PIN_RADII = np.concatenate([[0.0, 5e-324, 2.2e-310], np.logspace(-8, 3, 2001),
                            [320.0, 333.0, 334.0, 1e4, 1e150]])


def test_matern52_profile_equals_the_displayed_expression_bitwise():
    from invctrl.kernels import _matern52_profile
    s = PIN_RADII
    sq5 = np.sqrt(5.0)
    want = (1.0 + sq5 * s + (5.0 / 3.0) * s * s) * np.exp(-sq5 * s)
    got = _matern52_profile(s)
    assert got.tobytes() == want.tobytes()
    assert got[-3:].tolist() == [0.0, 0.0, 0.0]  # exp underflows to zero
    for v in (0.0, 5e-324, 0.37):  # scalars take the same path
        assert _matern52_profile(v) == (1.0 + sq5 * v + (5.0 / 3.0) * v * v) * np.exp(-sq5 * v)


def test_ard_embed_equals_the_per_call_divisor_bitwise():
    sl = (0.0570, 0.0570, 0.97, 0.31)
    ard = Kernel("ard_matern52", 1.3, sl)
    rng = np.random.default_rng(4)
    pts = np.concatenate([np.repeat(PIN_RADII[:, None], 4, axis=1),
                          rng.normal(size=(200, 4))])
    want = pts / (np.sqrt(2.0) * np.asarray(sl))
    assert ard.embed(pts).tobytes() == want.tobytes()
    a, b = pts[5], pts[-1]
    # k(a, b) is the profile at the distance of the embedded points
    s = cdist(want[5:6], want[-1:])[0, 0]
    assert k(ard, a, b) == float(1.3**2 * (1.0 + np.sqrt(5.0) * s + (5.0 / 3.0) * s * s)
                                 * np.exp(-np.sqrt(5.0) * s))
    # the divisor is not a field: equality and hashing see the parameters only
    assert ard == Kernel("ard_matern52", 1.3, list(sl))
    assert hash(ard) == hash(Kernel("ard_matern52", 1.3, sl))


def study_points(cfg):
    """Seeded points spread like the study's features, and a second set."""
    rng = np.random.default_rng(23)
    dim = 2 * cfg.order
    scale = np.asarray(cfg.sigma_l if len(cfg.sigma_l) == dim else cfg.sigma_l * dim)
    return rng.normal(size=(120, dim)) * 3 * scale, rng.normal(size=(80, dim)) * 3 * scale


@pytest.mark.parametrize("plant", ["numerical", "pendulum"])
def test_study_kernels_equal_their_expressions_bitwise(plant):
    # the two study kernels: squared exponential on plain distances, ARD
    # Matern-5/2 on distances between points divided by sqrt(2) sigma_l
    cfg = default_config(plant)
    kernel = cfg.make_kernel()
    x, y = study_points(cfg)
    sf2 = cfg.sigma_f**2
    if plant == "numerical":
        sl = cfg.sigma_l[0]
        want = lambda p, q: sf2 * np.exp(-(cdist(p, q) * cdist(p, q)) / (2.0 * sl**2))
    else:
        scale = np.sqrt(2.0) * np.asarray(cfg.sigma_l)
        want = lambda p, q: sf2 * _matern52_profile(cdist(p / scale, q / scale))
    assert kernel.cross(x, y).tobytes() == want(x, y).tobytes()
    K = want(x, x)
    # cdist is symmetric bit for bit, so symmetrizing would change nothing
    assert kernel.gram(x).tobytes() == K.tobytes() == np.ascontiguousarray(K.T).tobytes()
    assert (0.5 * (K + K.T)).tobytes() == K.tobytes()
    assert kernel.profile(0.0) == sf2
