import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor

from invctrl.kernels import ArdMatern52Kernel, IsotropicKernel, make_kernel

SE = IsotropicKernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))


def test_se_zero_distance_is_signal_variance():
    x = np.array([0.3, -0.2, 0.7, 0.0])
    assert SE(x, x) == 1.0
    k2 = IsotropicKernel("squared_exponential", 2.5, 1.0)
    assert k2(x, x) == pytest.approx(6.25, abs=0)


def test_se_known_value_at_distance_four():
    # oracle: direct evaluation of exp(-d^2 / (2 sigma_l^2)) = exp(-16/16)
    a = np.zeros(4)
    b = np.array([4.0, 0.0, 0.0, 0.0])
    assert SE(a, b) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_ard_matern_zero_distance():
    k = ArdMatern52Kernel(sigma_f=1.0, sigma_l=(0.1, 0.2, 0.3, 0.4))
    x = np.array([0.5, 0.5, 0.5, 0.5])
    assert k(x, x) == 1.0


def test_ard_matern_matches_displayed_formula():
    k = ArdMatern52Kernel(sigma_f=2.0, sigma_l=(0.3, 0.7))
    a = np.array([0.1, -0.4])
    b = np.array([-0.2, 0.5])
    r = math.sqrt(sum((ai - bi) ** 2 / (2 * sl**2)
                      for ai, bi, sl in zip(a, b, (0.3, 0.7))))
    expected = 4.0 * (1 + math.sqrt(5) * r + 5 * r**2 / 3) * math.exp(-math.sqrt(5) * r)
    assert k(a, b) == pytest.approx(expected, rel=1e-14)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        SE(np.zeros(3), np.zeros(4))
    k = ArdMatern52Kernel(sigma_f=1.0, sigma_l=(1.0, 1.0))
    with pytest.raises(ValueError):
        k(np.zeros(3), np.zeros(3))


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
    for k in (SE,
              IsotropicKernel("laplacian", 1.3, 0.7),
              IsotropicKernel("matern52", 0.8, 1.9),
              ArdMatern52Kernel(1.1, (0.2, 0.5, 1.0, 2.0))):
        assert k(a, b) == k(b, a)


@given(st.sampled_from(["squared_exponential", "laplacian", "matern52"]),
       st.floats(0.1, 5.0), st.floats(0.05, 10.0))
@settings(max_examples=40, deadline=None)
def test_profile_non_increasing_and_bounded(family, sf, sl):
    k = IsotropicKernel(family, sf, sl)
    r = np.linspace(0.0, 20.0, 400)
    vals = k.profile(r)
    assert vals[0] == pytest.approx(sf * sf, rel=1e-15)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals >= 0) and np.all(vals <= sf * sf)
    # strictly positive wherever the exponential stays in float range
    near = k.profile(np.linspace(0.0, 5.0 * sl, 100))
    assert np.all(near > 0)


def test_profile_deficit_matches_complement_and_is_stable():
    for k in (SE, IsotropicKernel("laplacian", 1.0, 0.5),
              IsotropicKernel("matern52", 1.0, 0.5)):
        r = np.logspace(-8, 1, 50)
        direct = k.profile(0.0) - k.profile(r)
        stable = k.profile_deficit(r)
        assert np.allclose(stable, direct, rtol=1e-7, atol=1e-15)
        # stability: tiny radii must give a nonzero, monotone deficit
        tiny = k.profile_deficit(np.array([1e-9, 2e-9, 4e-9]))
        assert np.all(tiny > 0) and np.all(np.diff(tiny) > 0)


def test_make_kernel_dispatch():
    assert isinstance(make_kernel("ard_matern52", 1.0, (1.0, 2.0)), ArdMatern52Kernel)
    assert isinstance(make_kernel("matern52", 1.0, 2.0), IsotropicKernel)
    with pytest.raises(ValueError):
        make_kernel("squared_exponential", 1.0, (1.0, 2.0))
    with pytest.raises(ValueError):
        make_kernel("rbf", 1.0, 1.0)


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
    k = ArdMatern52Kernel(sigma_f=1.3, sigma_l=sl)
    rng = np.random.default_rng(4)
    pts = np.concatenate([np.repeat(PIN_RADII[:, None], 4, axis=1),
                          rng.normal(size=(200, 4))])
    want = pts / (np.sqrt(2.0) * np.asarray(sl))
    assert k.embed(pts).tobytes() == want.tobytes()
    a, b = pts[5], pts[-1]
    s = np.linalg.norm((a - b) / (np.sqrt(2.0) * np.asarray(sl)))
    assert k(a, b) == float(1.3**2 * (1.0 + np.sqrt(5.0) * s + (5.0 / 3.0) * s * s)
                            * np.exp(-np.sqrt(5.0) * s))
    # the divisor is not a field: equality and hashing see sigma_f, sigma_l only
    assert k == ArdMatern52Kernel(sigma_f=1.3, sigma_l=list(sl))
    assert hash(k) == hash(ArdMatern52Kernel(sigma_f=1.3, sigma_l=sl))
