import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from invctrl.bounds import DeviationBounds
from invctrl.kernels import IsotropicKernel
from invctrl.levelsets import (ABSENT, MIN_INRADIUS, NEAR_K, build_level_family,
                               check_nesting, dump_family, index_set_slab,
                               load_family, max_plus, nearest_table,
                               pairwise_distances)

from invctrl.verify import sample_in_ball

from conftest import (sampled_inradius, single_ball_inradius, synth_dataset,
                      synth_family)

SE = IsotropicKernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))
BOUNDS = DeviationBounds(lip_f=6.5, lip_c=0.22, rkhs_bound=1.0, delay=1,
                         eta_mode="profile", profile=SE.profile,
                         profile_deficit=SE.profile_deficit)


# ------------------------------------------------------------- primitives


def test_slab_inradius_inside():
    ds = synth_dataset([[0.0, 0.4, 0.0]], [0.3], [0.9])  # successor (0.4, 0.3, 0.9)
    assert index_set_slab(ds, 1.0)[0] == pytest.approx(0.7)


def test_slab_inradius_boundary_and_outside():
    ds = synth_dataset([[0.0, 0.0, 0.0]] * 2, [1.0, 1.7], [0.0, 0.0])
    assert np.all(index_set_slab(ds, 1.0) == ABSENT)


def test_union_inradius_isolated_center():
    est = single_ball_inradius([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]], [0.8])
    assert est[0] == pytest.approx(0.8)


def test_union_inradius_outside():
    assert single_ball_inradius([[3.0, 0.0, 0.0]], np.zeros((1, 3)), [1.0])[0] <= 0
    # a union whose balls are all absent holds no point
    assert single_ball_inradius(np.zeros((1, 3)), np.zeros((2, 3)), [ABSENT] * 2)[0] == ABSENT


def test_union_inradius_two_overlapping_balls():
    # midway point of two overlapping unit balls: single-ball value 0.5,
    # never exceeding the direction-sampled true inradius
    centers, radii = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]), np.array([1.0, 1.0])
    p = np.zeros(3)
    est = single_ball_inradius([p], centers, radii)[0]
    assert est == pytest.approx(0.5)
    assert est <= sampled_inradius(p, centers, radii) + 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_union_inradius_is_underestimate(seed):
    rng = np.random.default_rng(seed)
    balls = [(rng.uniform(-1, 1, size=3), rng.uniform(0.2, 1.0))
             for _ in range(rng.integers(1, 6))]
    centers, radii = np.array([c for c, _ in balls]), np.array([r for _, r in balls])
    k = rng.integers(len(balls))
    p = centers[k] + rng.normal(size=3) * radii[k] * 0.3
    est = single_ball_inradius([p], centers, radii)[0]
    if est > 0:
        assert est <= sampled_inradius(p, centers, radii, seed=seed) + 1e-9


# ------------------------------------------------------------- max-plus product


def gathered_max_plus(radii, dist):
    """Product over the present columns only, by one column gather: the
    formula the nearest-K pruning must reproduce bit for bit."""
    idx = np.flatnonzero(radii != ABSENT)
    return (radii[idx][None, :] - dist[:, idx]).max(axis=1)


def reference_family(ds, bounds, delta, depth):
    """Per-level build with ``gathered_max_plus`` over full distance
    matrices; returns the (inradius, cert_radius) tables."""
    d_ss = cdist(ds.succ_states, ds.succ_states)
    d_sz = cdist(ds.succ_states, ds.states)
    rows_r, rows_c = [], []
    r = index_set_slab(ds, delta)
    while np.any(present := r != ABSENT):
        c = np.full_like(r, ABSENT)
        c[present] = bounds.state_dev_inv(r[present])
        rows_r.append(r)
        rows_c.append(c)
        if len(rows_r) == depth + 1:
            break
        g = (gathered_max_plus(r, d_ss) if len(rows_r) == 1
             else gathered_max_plus(c, d_sz))
        r = np.where(g > MIN_INRADIUS, g, ABSENT)
    shape = (len(rows_r), len(ds))
    return np.array(rows_r).reshape(shape), np.array(rows_c).reshape(shape)


def assert_family_exact(ds, bounds, delta, depth, dists=None):
    fam = build_level_family(ds, bounds, delta, depth, _dists=dists)
    inradius, cert_radius = reference_family(ds, bounds, delta, depth)
    assert np.array_equal(fam.inradius, inradius)
    assert np.array_equal(fam.cert_radius, cert_radius)
    return fam


def random_records(rng, n):
    """Order-2 records clustered near the origin, so that families reach
    past level 0."""
    return synth_dataset(rng.normal(scale=0.3, size=(n, 3)),
                         rng.normal(scale=0.3, size=n), rng.normal(scale=0.3, size=n))


@pytest.mark.parametrize("n", [1, 2, NEAR_K - 1, NEAR_K, NEAR_K + 1])
def test_max_plus_exact_few_columns(n):
    rng = np.random.default_rng(n)
    dist = rng.uniform(0.0, 2.0, size=(50, n))
    radii = rng.uniform(0.1, 1.5, size=n)
    radii[rng.random(n) < 0.3] = ABSENT
    radii[0] = 0.7  # at least one present ball
    assert np.array_equal(max_plus(radii, nearest_table(dist)),
                          gathered_max_plus(radii, dist))


def test_max_plus_exact_single_present_column():
    rng = np.random.default_rng(5)
    dist = rng.uniform(0.0, 3.0, size=(300, 200))
    radii = np.full(200, ABSENT)
    radii[117] = 2.0
    table = nearest_table(dist)
    near = table[1]
    # most rows do not have column 117 among their nearest: they rely on
    # the full scan, whose only finite value is the one present column
    assert (near != 117).all(axis=1).sum() > 200
    assert np.array_equal(max_plus(radii, table), 2.0 - dist[:, 117])


def test_max_plus_exact_absent_nearest_and_far_maximum():
    rng = np.random.default_rng(6)
    dist = rng.uniform(0.0, 1.0, size=(120, 150))
    radii = rng.uniform(0.05, 0.1, size=150)
    table = nearest_table(dist)
    near = table[1]
    # row 0: every nearest column absent; row 1: a far column with a large
    # radius holds the maximum
    radii[near[0]] = ABSENT
    far = int(np.argmax(dist[1]))
    radii[far] = 5.0
    best = max_plus(radii, table)
    assert np.array_equal(best, gathered_max_plus(radii, dist))
    assert np.isfinite(best[0])
    assert best[1] == 5.0 - dist[1, far]


def test_max_plus_exact_bound_open_by_one_bit():
    # the maximum sits in the first column past the nearest ones and beats
    # the nearest-column best by 2**-40 only: the pruning bound must use
    # that column's exact distance and a strict comparison
    m = NEAR_K + 8
    d = np.where(np.arange(m) < NEAR_K, 0.9, 2.0) + np.arange(m) / 1024.0
    d[NEAR_K - 1], d[NEAR_K] = 1.0, 1.0 + 2.0**-20
    radii = np.full(m, 0.25)
    radii[NEAR_K - 1], radii[NEAR_K] = 0.5, 0.5 + 2.0**-20 + 2.0**-40
    for seed in range(4):  # the same row under column permutations
        perm = np.random.default_rng(seed).permutation(m)
        dist, r = d[perm][None, :], radii[perm]
        best = max_plus(r, nearest_table(dist))
        assert np.array_equal(best, gathered_max_plus(r, dist))
        assert best[0] == -0.5 + 2.0**-40


def test_max_plus_exact_with_ties():
    # duplicated points: many equal distances around each row's NEAR_K-th
    rng = np.random.default_rng(7)
    pts = np.repeat(rng.uniform(-1, 1, size=(20, 3)), 8, axis=0)
    dist = cdist(pts, pts)
    radii = rng.uniform(0.0, 1.0, size=len(pts))
    radii[rng.random(len(pts)) < 0.5] = ABSENT
    assert np.array_equal(max_plus(radii, nearest_table(dist)),
                          gathered_max_plus(radii, dist))


@pytest.mark.parametrize("n", [1, 10, 3 * NEAR_K])
def test_family_exact_synthetic(n):
    assert_family_exact(random_records(np.random.default_rng(n), n), BOUNDS, 0.5, 6)


def test_family_exact_duplicate_states():
    ds = random_records(np.random.default_rng(8), 25)
    dup = synth_dataset(np.repeat(ds.states, 6, axis=0), np.repeat(ds.targets, 6),
                        np.repeat(ds.controls, 6))
    fam = assert_family_exact(dup, BOUNDS, 0.5, 6)
    assert len(fam.present(1)) > 0


def test_family_exact_single_present_level():
    ds = random_records(np.random.default_rng(9), 200)
    targets = np.where(np.arange(200) == 17, 0.0, 5.0)  # one successor in the slab
    one = synth_dataset(ds.states, targets, ds.controls)
    fam = assert_family_exact(one, BOUNDS, 1.0, 4)
    assert list(fam.present(0)) == [17]


@pytest.mark.parametrize("plant,deltas", [
    ("numerical", (0.5, 3.0)),
    ("pendulum", (0.02, 0.6)),
])
def test_family_exact_benchmark(plant, deltas, numerical_artifacts, pendulum_artifacts):
    art = numerical_artifacts if plant == "numerical" else pendulum_artifacts
    ds, cfg = art["dataset"], art["cfg"]
    dists = pairwise_distances(ds)
    for delta in deltas:
        fam = assert_family_exact(ds, art["bounds"], delta, cfg.depth, dists)
        assert len(fam.present(2)) > 0


# ------------------------------------------------------------- index sets


def test_index_set_empty_dataset():
    empty = synth_dataset(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    assert len(index_set_slab(empty, 1.0)) == 0


def test_index_set_all_outside():
    ds = synth_dataset([[0, 0, 0]] * 3, [2.0, -3.0, 5.0], [0.5] * 3)
    assert np.all(index_set_slab(ds, 1.0) == ABSENT)


def test_index_set_on_benchmark(numerical_artifacts):
    ds = numerical_artifacts["dataset"]
    row = index_set_slab(ds, 3.0)
    idx = np.flatnonzero(row != ABSENT)
    assert len(idx) > 0
    # recheck containment per entry: |y component| + r <= delta
    reach = np.abs(ds.succ_states[idx, 1]) + row[idx]
    assert np.all(reach <= 3.0 + 1e-12)


# ------------------------------------------------------------- families


def test_family_all_levels_empty_when_unreachable():
    ds = synth_dataset([[0, 0, 0]] * 4, [2.0, 2.5, -2.2, 3.0], [0.5] * 4)
    fam = build_level_family(ds, BOUNDS, delta=1.0, depth=5)
    assert fam.truncated_at == 0
    assert fam.sizes() == [0] * 6


def test_family_level1_balls_contained_in_level0(numerical_artifacts):
    fam = next(f for f in numerical_artifacts["controller"].families
               if f.delta == 3.0)
    ds = fam.dataset
    idx = fam.present(1)[:50]
    c0, r0 = fam.centers_radii(0)
    for i, r in zip(idx, fam.inradius[1, idx]):
        # the defining ball around the successor must sit inside some
        # level-0 ball: dist + r <= r0 for at least one of them
        d = np.linalg.norm(c0 - ds.succ_states[i], axis=1)
        assert np.min(d + r - r0) <= 1e-9


def test_family_recursion_soundness_sampled(numerical_artifacts):
    fam = next(f for f in numerical_artifacts["controller"].families
               if f.delta == 1.0)
    rng = np.random.default_rng(42)
    ds = fam.dataset
    for j in range(1, min(4, len(fam.inradius))):  # later levels are empty
        idx = fam.present(j)[:20]
        for i, r in zip(idx, fam.inradius[j, idx]):
            pts = sample_in_ball(rng, ds.succ_states[i], r, 50)
            assert all(fam.contains(j - 1, p) for p in pts)


def test_contains_levels():
    ds = synth_dataset([[0.0, 0.0, 0.5], [0.4, 0.1, 0.6]], [0.05, 0.2], [0.5, 0.6])
    fam = build_level_family(ds, BOUNDS, delta=1.0, depth=3)
    idx = fam.present(1)
    assert len(idx) > 0
    center = ds.states[idx[0]]
    assert fam.contains(1, center)
    # boundary point of a closed ball is inside
    edge = center + np.array([fam.cert_radius[1, idx[0]], 0.0, 0.0])
    assert fam.contains(1, edge)
    assert not fam.contains(1, center + 10.0)
    if len(fam.inradius) > 3:
        fam.inradius[3] = fam.cert_radius[3] = ABSENT
    assert not fam.contains(3, center)


def test_certificate_radii_consistent(numerical_artifacts):
    for fam in numerical_artifacts["controller"].families:
        for j in range(len(fam.inradius)):
            idx = fam.present(j)
            back = BOUNDS.state_dev(fam.cert_radius[j, idx])
            assert np.all(back <= fam.inradius[j, idx] + 1e-9)


def test_nesting_vacuous_and_identity():
    ds = synth_dataset([[0, 0, 0]] * 2, [3.0, 3.0], [0.5, 0.5])
    fam = build_level_family(ds, BOUNDS, delta=1.0, depth=2)
    assert check_nesting(fam)  # level 0 empty: vacuously true
    # hand-built family where the level-1 ball coincides with level 0
    ds2 = synth_dataset([[0.0, 0.0, 0.0]], [0.0], [0.0])
    fam2 = synth_family(ds2, 1.0, [[(0, 0.5, 0.05)], [(0, 0.5, 0.5)]])
    # level-1 ball centered at the state (origin) radius 0.5 equals level-0 ball
    assert check_nesting(fam2)


def test_nesting_counterexample_with_witness():
    # a level-0 ball off to the side of the only level-1 ball
    states = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
    ds = synth_dataset(states, [0.0, 0.0], [0.0, 0.0])
    fam = synth_family(ds, 1.0, [[(1, 0.4, 0.04)], [(0, 0.4, 0.4)]])
    assert not check_nesting(fam)
    # rejection-sample a witness point in level 0 but not level 1
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = sample_in_ball(rng, ds.succ_states[1], 0.4, 1)[0]
        if fam.contains(0, p) and not fam.contains(1, p):
            break
    else:
        pytest.fail("no witness found although nesting test failed")


def test_dump_load_round_trip(tmp_path, numerical_artifacts):
    fam = numerical_artifacts["controller"].families[0]
    p = tmp_path / "fam.npy"
    dump_family(p, fam)
    back = load_family(p, fam.dataset, fam.delta, fam.depth)
    assert back.delta == fam.delta and back.depth == fam.depth
    assert back.truncated_at == fam.truncated_at
    assert np.array_equal(back.inradius, fam.inradius)
    assert np.array_equal(back.cert_radius, fam.cert_radius)
    # the dump's bytes depend on the tables only
    again = tmp_path / "again.npy"
    dump_family(again, fam)
    assert p.read_bytes() == again.read_bytes()


def test_build_argument_validation(numerical_artifacts):
    ds = numerical_artifacts["dataset"]
    with pytest.raises(ValueError):
        build_level_family(ds, BOUNDS, delta=-1.0, depth=3)
    with pytest.raises(ValueError):
        build_level_family(ds, BOUNDS, delta=1.0, depth=0)
