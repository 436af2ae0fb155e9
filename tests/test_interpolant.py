import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from invctrl.config import ConfigError
from invctrl.interpolant import (FitError, dump_interpolant, fit_interpolant,
                                 load_interpolant)
from invctrl.kernels import Kernel
from invctrl.narx import NarxDataset

SE = Kernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))


def make_dataset(features, controls, order=2):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n = order
    return NarxDataset(
        order=n, delay=1,
        features=features,
        states=features[:, 1:],
        targets=features[:, 0],
        controls=np.asarray(controls, dtype=float),
        succ_states=np.zeros((len(features), 2 * n - 1)),
    )


def random_dataset(N, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    return make_dataset(rng.uniform(-1, 1, size=(N, dim)), rng.normal(size=N))


def test_single_point_reproduces_output():
    ds = make_dataset([[0.1, 0.2, 0.3, 0.4]], [2.5])
    m = fit_interpolant(SE, ds, lam=0.0)
    assert m.predict(ds.features[0]) == pytest.approx(2.5, abs=1e-12)


def test_single_point_closed_form_prediction():
    # oracle: alpha = u1 / kbar(0); prediction u1 * exp(-d^2/(2 sigma_l^2))
    x0 = np.array([0.0, 0.0, 0.0, 0.0])
    ds = make_dataset([x0], [1.7])
    m = fit_interpolant(SE, ds, lam=0.0)
    d = 1.3
    q = np.array([d, 0.0, 0.0, 0.0])
    assert m.predict(q) == pytest.approx(1.7 * math.exp(-d * d / 16.0), rel=1e-12)


def test_interpolation_exactness_random():
    ds = random_dataset(60, seed=1)
    m = fit_interpolant(SE, ds, lam=0.0)
    assert np.max(np.abs(m.predict(ds.features) - ds.controls)) <= 1e-8


def test_far_query_decays_to_zero():
    ds = random_dataset(10, seed=2)
    m = fit_interpolant(SE, ds, lam=0.0)
    far = np.full(4, 1e3)
    assert abs(m.predict(far)) < 1e-12


def test_predict_dimension_mismatch():
    m = fit_interpolant(SE, random_dataset(5), lam=0.0)
    with pytest.raises(ValueError):
        m.predict(np.zeros(3))


def test_rkhs_norm_single_point():
    ds = make_dataset([[0.0, 0.0, 0.0, 0.0]], [-3.2])
    m = fit_interpolant(SE, ds, lam=0.0)
    assert m.rkhs_norm() == pytest.approx(3.2, rel=1e-12)


def test_rkhs_norm_matches_dense_inverse():
    # oracle: explicit quadratic form via full matrix inverse
    ds = random_dataset(40, seed=3)
    m = fit_interpolant(SE, ds, lam=0.0)
    K = SE.gram(ds.features) + m.jitter * np.eye(len(ds))
    expected = math.sqrt(ds.controls @ np.linalg.inv(K) @ ds.controls)
    assert m.rkhs_norm() == pytest.approx(expected, rel=1e-9)


def test_diagnostics_refused_for_ridge():
    m = fit_interpolant(SE, random_dataset(8), lam=1e-3)
    with pytest.raises(ValueError):
        m.rkhs_norm()
    with pytest.raises(ValueError):
        m.power(np.zeros(4))


def test_power_zero_at_training_points():
    ds = random_dataset(30, seed=4)
    m = fit_interpolant(SE, ds, lam=0.0)
    assert np.max(m.power(ds.features)) <= 1e-5


def test_power_single_point_closed_form():
    # oracle: sqrt(1 - kbar(d)^2) for one unit-signal training point
    ds = make_dataset([[0.0, 0.0, 0.0, 0.0]], [1.0])
    m = fit_interpolant(SE, ds, lam=0.0)
    d = 2.0
    q = np.array([d, 0.0, 0.0, 0.0])
    expected = math.sqrt(1.0 - math.exp(-d * d / 8.0))
    assert m.power(q) == pytest.approx(expected, rel=1e-12)


def test_power_nonnegative_everywhere():
    ds = random_dataset(25, seed=5)
    m = fit_interpolant(SE, ds, lam=0.0)
    rng = np.random.default_rng(6)
    vals = m.power(rng.uniform(-2, 2, size=(200, 4)))
    assert np.all(vals >= 0.0)


def test_monotone_regularization():
    # u^T (K + lam I)^{-1} u non-increasing in lam; oracle: direct solves
    ds = random_dataset(35, seed=7)
    K = SE.gram(ds.features)
    vals = []
    for lam in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        A = K + (lam + 1e-12) * np.eye(len(ds))
        vals.append(ds.controls @ cho_solve(cho_factor(A, lower=True), ds.controls))
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_prediction_linear_in_outputs():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(20, 4))
    u, v = rng.normal(size=(2, 20))
    a, b = 1.7, -0.3
    q = rng.uniform(-1, 1, size=(5, 4))
    pu = fit_interpolant(SE, make_dataset(X, u), lam=0.0).predict(q)
    pv = fit_interpolant(SE, make_dataset(X, v), lam=0.0).predict(q)
    pc = fit_interpolant(SE, make_dataset(X, a * u + b * v), lam=0.0).predict(q)
    assert np.max(np.abs(pc - (a * pu + b * pv))) <= 1e-9


def test_jitter_escalation_on_duplicates():
    X = np.zeros((2, 4))
    ds = make_dataset(X, [1.0, 1.0])
    m = fit_interpolant(SE, ds, lam=0.0)
    assert m.jitter > 0.0


def test_fit_failure_reports_diagnostics():
    class IndefiniteKernel:
        sigma_f = 1.0

        def gram(self, X):
            return np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1

    ds = make_dataset(np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0]]), [0.0, 1.0])
    with pytest.raises(FitError, match="eigenvalue"):
        fit_interpolant(IndefiniteKernel(), ds, lam=0.0)


def test_empty_dataset_rejected():
    ds = random_dataset(3)
    empty = NarxDataset(order=2, delay=1, features=ds.features[:0],
                        states=ds.states[:0], targets=ds.targets[:0],
                        controls=ds.controls[:0], succ_states=ds.succ_states[:0])
    with pytest.raises(ValueError):
        fit_interpolant(SE, empty)


def test_dump_load_round_trip(tmp_path):
    ds = random_dataset(18, seed=12)
    m = fit_interpolant(SE, ds, lam=0.0)
    p = tmp_path / "model.txt"
    dump_interpolant(p, m)
    back = load_interpolant(p)
    q = np.random.default_rng(13).uniform(-1, 1, size=(7, 4))
    assert np.array_equal(back.predict(q), m.predict(q))  # bitwise, 17g round-trip
    assert back.lam == m.lam and back.jitter == m.jitter
    assert np.array_equal(back.power(q), m.power(q))


def assert_same_model_bits(back, m):
    for got, want in [(back.train_x, m.train_x), (back.train_u, m.train_u),
                      (back.alpha, m.alpha)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (back.lam, back.jitter, back.kernel.family) == (m.lam, m.jitter, m.kernel.family)
    assert np.array_equal(back.kernel.sigma_l, m.kernel.sigma_l)


@pytest.mark.parametrize("artifacts", [None, "numerical_artifacts", "pendulum_artifacts"])
def test_dump_load_round_trip_bitwise(request, tmp_path, artifacts):
    # every array the loader returns equals the dumped one bit for bit,
    # signed zeros and 17-digit weights included, with either line ending
    if artifacts is None:
        ds = random_dataset(18, seed=14)
        ds.features[3, 1], ds.features[4, 2] = -0.0, 0.0
        m = fit_interpolant(SE, ds, lam=0.0)
    else:
        m = request.getfixturevalue(artifacts)["model"]
    path = tmp_path / "model.txt"
    dump_interpolant(path, m)
    assert_same_model_bits(load_interpolant(path), m)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_same_model_bits(load_interpolant(path), m)
    if artifacts is None:
        assert np.signbit(load_interpolant(path).train_x[3, 1])


@pytest.mark.parametrize("edit,message", [
    (lambda ls: ls[:9] + [ls[9] + ",1"] + ls[10:], "model.txt:10: bad model row"),
    (lambda ls: ls[:9] + [ls[9].rsplit(",", 1)[0]] + ls[10:], "model.txt:10: bad model row"),
    (lambda ls: ls[:9] + [ls[9].rsplit(",", 1)[0] + ",nan"] + ls[10:], "model.txt:10: bad model row"),
    (lambda ls: ls[:9] + [ls[9].replace(",", ",inf,", 1)] + ls[10:], "model.txt:10: bad model row"),
    (lambda ls: ls + ["", "  "], None),
    (lambda ls: ls + ["key = value"], f"model.txt:{8 + 18 + 1}: bad model row 'key = value'"),
    (lambda ls: ls[:8], "model.txt: not a model dump (ValueError: rows of shape (0, 6), "
                        "N = 18, dim = 4)"),
    (lambda ls: ls[:5] + ls[6:], "model.txt: not a model dump (KeyError: 'N')"),
], ids=["extra_field", "missing_field", "nan_weight", "inf_feature", "blank_lines",
        "late_header", "no_rows", "no_count"])
def test_load_interpolant_rejects_malformed_dump(tmp_path, edit, message):
    m = fit_interpolant(SE, random_dataset(18, seed=15), lam=0.0)
    path = tmp_path / "model.txt"
    dump_interpolant(path, m)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    if message is None:
        assert_same_model_bits(load_interpolant(path), m)
        return
    with pytest.raises(ConfigError) as info:
        load_interpolant(path)
    assert str(info.value).startswith(str(tmp_path / message))


@pytest.mark.parametrize("artifacts", ["numerical_artifacts", "pendulum_artifacts"])
def test_benchmark_loaded_power_equals_fitted(request, artifacts, tmp_path):
    # the loaded model factors on its first power call, to the fitted bits
    art = request.getfixturevalue(artifacts)
    ds = art["dataset"]
    m = fit_interpolant(art["model"].kernel, ds, lam=0.0)
    dump_interpolant(tmp_path / "model.txt", m)
    back = load_interpolant(tmp_path / "model.txt")
    q = ds.features[::5] + 1e-3
    assert np.array_equal(back.power(q), m.power(q))
    assert np.array_equal(back.power(q[0]), m.power(q[0]))


@pytest.mark.parametrize("artifacts", ["numerical_artifacts", "pendulum_artifacts"])
def test_benchmark_predict_equals_cross_times_alpha(request, artifacts):
    m = request.getfixturevalue(artifacts)["model"]
    rng = np.random.default_rng(21)
    q = (m.train_x[rng.integers(len(m), size=40)]
         + rng.normal(scale=0.01, size=(40, m.train_x.shape[1])))
    assert np.array_equal(m.predict(q), m.kernel.cross(q, m.train_x) @ m.alpha)
    for x in q[:8]:
        assert m.predict(x) == (m.kernel.cross(x, m.train_x) @ m.alpha)[0]


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_exactness_property(seed):
    ds = random_dataset(20, seed=seed)
    m = fit_interpolant(SE, ds, lam=0.0)
    assert np.max(np.abs(m.predict(ds.features) - ds.controls)) <= 1e-8


def test_benchmark_predictions_match_analytic_inverse(numerical_artifacts):
    # training pairs come from the analytic inverse, so the interpolant must
    # agree with it at every record
    ds = numerical_artifacts["dataset"]
    model = numerical_artifacts["model"]
    plant = numerical_artifacts["plant"]
    gap = np.max(np.abs(model.predict(ds.features) - plant.oracle(ds.features)))
    assert gap <= 1e-8


def test_benchmark_norm_estimate_below_bound(numerical_artifacts):
    # the analytic inverse has unit norm in this kernel's space, so the
    # interpolant estimate must not exceed one
    assert numerical_artifacts["model"].rkhs_norm() <= 1.0 + 1e-9
