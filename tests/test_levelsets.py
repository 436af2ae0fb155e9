import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from invctrl.bounds import DeviationBounds
from invctrl.config import ConfigError
from invctrl.kernels import Kernel
from invctrl.levelsets import (ABSENT, MIN_INRADIUS, NEAR_K, SCAN_ROWS, LevelFamily,
                               build_level_family, check_nesting, dump_family,
                               index_set_slab, load_family, load_witness, margin,
                               max_plus, nearest_table, pairwise_distances,
                               successor_inradii)

from conftest import sample_in_ball, sampled_inradius, synth_dataset, synth_family

SE = Kernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))
BOUNDS = DeviationBounds(lip_f=6.5, lip_c=0.22, rkhs_bound=1.0, kernel=SE, delay=1)


# ------------------------------------------------------------- primitives


def test_slab_inradius_inside():
    ds = synth_dataset([[0.0, 0.4, 0.0]], [0.3], [0.9])  # successor (0.4, 0.3, 0.9)
    assert index_set_slab(ds, 1.0)[0] == pytest.approx(0.7)


def test_slab_inradius_boundary_and_outside():
    ds = synth_dataset([[0.0, 0.0, 0.0]] * 2, [1.0, 1.7], [0.0, 0.0])
    assert np.all(index_set_slab(ds, 1.0) == ABSENT)


def test_union_inradius_isolated_center():
    est = margin([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]], [0.8])
    assert est[0] == pytest.approx(0.8)


def test_union_inradius_outside():
    assert margin([[3.0, 0.0, 0.0]], np.zeros((1, 3)), [1.0])[0] == -2.0
    # a union whose balls are all absent, or that has none, holds no point
    assert margin(np.zeros((1, 3)), np.zeros((2, 3)), [ABSENT] * 2)[0] == ABSENT
    assert margin(np.zeros((1, 3)), np.zeros((0, 3)), [])[0] == ABSENT


def test_union_inradius_two_overlapping_balls():
    # midway point of two overlapping unit balls: single-ball value 0.5,
    # never exceeding the direction-sampled true inradius
    centers, radii = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]), np.array([1.0, 1.0])
    p = np.zeros(3)
    est = margin([p], centers, radii)[0]
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
    est = margin([p], centers, radii)[0]
    if est > 0:
        assert est <= sampled_inradius(p, centers, radii, seed=seed) + 1e-9


# ------------------------------------------------------------- max-plus product


def gathered_max_plus(radii, dist):
    """Inradius row of the product over the present columns only, by one
    column gather: the formula the nearest-K pruning must reproduce bit for
    bit."""
    idx = np.flatnonzero(radii != ABSENT)
    g = (radii[idx][None, :] - dist[:, idx]).max(axis=1)
    return np.where(g > MIN_INRADIUS, g, ABSENT)


def attained_max_plus(radii, table):
    """``max_plus``'s inradius row, once each present cell is checked to be
    attained bit for bit by its witness column of the table's distances."""
    row, witness = max_plus(radii, table)
    idx = np.flatnonzero(row != ABSENT)
    assert witness.shape == row.shape
    assert np.array_equal(radii[witness[idx]] - table[0][idx, witness[idx]], row[idx])
    return row


def reference_family(ds, bounds, delta, depth):
    """Per-level build with ``gathered_max_plus`` over full distance
    matrices, every level inverted; returns the (inradius, certified
    radius) tables of all levels."""
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
        r = (gathered_max_plus(r, d_ss) if len(rows_r) == 1
             else gathered_max_plus(c, d_sz))
    shape = (len(rows_r), len(ds))
    return np.array(rows_r).reshape(shape), np.array(rows_c).reshape(shape)


def assert_family_exact(ds, bounds, delta, depth, dists=None):
    """The radius table is the reference's level-0 inradii over its
    certified radii of levels >= 1, and the inradii derived from the returned
    witness table its inradii of levels >= 1, bit for bit.  Returns the
    family and the reference's inradii of levels >= 1."""
    fam, witness = build_level_family(ds, bounds, delta, depth, _dists=dists)
    ref_inradius, ref_cert = reference_family(ds, bounds, delta, depth)
    assert np.array_equal(fam.radius, np.concatenate([ref_inradius[:1], ref_cert[1:]]))
    assert witness.dtype == np.min_scalar_type(max(len(ds) - 1, 0))
    assert successor_inradii(fam, witness).tobytes() == ref_inradius[1:].tobytes()
    return fam, ref_inradius[1:]


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
    assert np.array_equal(attained_max_plus(radii, nearest_table(dist)),
                          gathered_max_plus(radii, dist))


@pytest.mark.parametrize("m", [1, NEAR_K - 1, NEAR_K, NEAR_K + 1, 3 * NEAR_K])
def test_nearest_table_row_major(m):
    rng = np.random.default_rng(m)
    dist = rng.uniform(0.0, 2.0, size=(70, m))
    dist[:, m // 2:] = np.round(dist[:, m // 2:], 1)  # ties among the distances
    table = nearest_table(dist)
    assert table[0] is dist
    near, near_dist, beyond = table[1:]
    k = min(m, NEAR_K)
    for a in (near, near_dist):
        assert a.shape == (len(dist), k) and a.flags.c_contiguous
    for i, row in enumerate(dist):
        cols = near[i]
        assert len(set(cols)) == k
        assert np.array_equal(near_dist[i], row[cols])
        assert np.array_equal(np.sort(row[cols]), np.sort(row)[:k])
        assert beyond[i] == (np.sort(row)[NEAR_K] if m > NEAR_K else np.inf)
    if m <= NEAR_K:
        assert (np.sort(near, axis=1) == np.arange(m)).all()


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
    product = 2.0 - dist[:, 117]
    assert (product > MIN_INRADIUS).sum() > 150
    assert np.array_equal(attained_max_plus(radii, table),
                          np.where(product > MIN_INRADIUS, product, ABSENT))


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
    best = attained_max_plus(radii, table)
    assert np.array_equal(best, gathered_max_plus(radii, dist))
    assert np.isfinite(best[0])
    assert best[1] == 5.0 - dist[1, far]


def test_max_plus_exact_bound_open_by_one_bit():
    # the maximum sits in the first column past the nearest ones, above the
    # inradius floor, and beats the nearest-column best by 2**-40 only: the
    # pruning bound must use that column's exact distance and a strict
    # comparison
    m = NEAR_K + 8
    d = np.where(np.arange(m) < NEAR_K, 0.9, 2.0) + np.arange(m) / 1024.0
    d[NEAR_K - 1], d[NEAR_K] = 1.0, 1.0 + 2.0**-20
    radii = np.full(m, 1.25)
    radii[NEAR_K - 1], radii[NEAR_K] = 1.5, 1.5 + 2.0**-20 + 2.0**-40
    for seed in range(4):  # the same row under column permutations
        perm = np.random.default_rng(seed).permutation(m)
        dist, r = d[perm][None, :], radii[perm]
        best = attained_max_plus(r, nearest_table(dist))
        assert np.array_equal(best, gathered_max_plus(r, dist))
        assert best[0] == 0.5 + 2.0**-40


def floor_rows():
    """Rows of ``NEAR_K`` absent nearest columns at distance 0 and far
    columns of radius ``MIN_INRADIUS + 2**-60``, whose far product is exactly
    the floor, one ulp above it, below it but positive, and negative."""
    far = MIN_INRADIUS + 2.0**-60  # exact: 2**-60 is a multiple of its ulp
    above = np.nextafter(MIN_INRADIUS, np.inf)
    m = NEAR_K + 4
    radii = np.full(m, far)
    radii[:NEAR_K] = ABSENT
    beyond = np.array([far - MIN_INRADIUS, far - above, far - MIN_INRADIUS / 2, 2.0**-30])
    dist = np.zeros((len(beyond), m))
    dist[:, NEAR_K:] = beyond[:, None] * np.array([1.0, 1.5, 2.0, 3.0])
    assert np.array_equal(far - beyond, [MIN_INRADIUS, above, MIN_INRADIUS / 2, far - 2.0**-30])
    return radii, dist, above


def test_max_plus_floor_boundary():
    # every nearest column is absent; only the far product decides the row:
    # exactly the floor and below it give ABSENT, one ulp above it is exact
    radii, dist, above = floor_rows()
    best = attained_max_plus(radii, nearest_table(dist))
    assert np.array_equal(best, gathered_max_plus(radii, dist))
    assert np.array_equal(best, [ABSENT, above, ABSENT, ABSENT])
    # the same products from nearest columns only, with no full scan
    near_only = attained_max_plus(radii[NEAR_K:], nearest_table(dist[:, NEAR_K:]))
    assert np.array_equal(near_only, [ABSENT, above, ABSENT, ABSENT])


def test_max_plus_scans_only_rows_that_can_clear_the_floor():
    # the full scan reads the distance rows it is given: a poisoned copy
    # shows which rows were scanned.  Only the row whose far product can
    # exceed the floor may be; rows at or below it must be skipped
    radii, dist, _ = floor_rows()
    _, near, near_dist, beyond = nearest_table(dist)
    poison = np.full_like(dist, -1e300)
    best = max_plus(radii, (poison, near, near_dist, beyond))[0]
    assert np.array_equal(best == 1e300, [False, True, False, False])


def test_max_plus_exact_with_ties():
    # duplicated points: many equal distances around each row's NEAR_K-th
    rng = np.random.default_rng(7)
    pts = np.repeat(rng.uniform(-1, 1, size=(20, 3)), 8, axis=0)
    dist = cdist(pts, pts)
    radii = rng.uniform(0.0, 1.0, size=len(pts))
    radii[rng.random(len(pts)) < 0.5] = ABSENT
    assert np.array_equal(attained_max_plus(radii, nearest_table(dist)),
                          gathered_max_plus(radii, dist))


@pytest.mark.parametrize("n", [1, 10, 3 * NEAR_K])
def test_family_exact_synthetic(n):
    assert_family_exact(random_records(np.random.default_rng(n), n), BOUNDS, 0.5, 6)


def test_family_exact_small_delta():
    # few successors inside the narrow slab: most columns are absent at
    # every level and most rows are below the floor
    ds = random_records(np.random.default_rng(10), 300)
    fam, _ = assert_family_exact(ds, BOUNDS, 0.03, 6)
    sizes = fam.sizes()
    assert 0 < sizes[0] < len(ds) / 10 and sizes[1] > 0


def test_family_exact_duplicate_states():
    ds = random_records(np.random.default_rng(8), 25)
    dup = synth_dataset(np.repeat(ds.states, 6, axis=0), np.repeat(ds.targets, 6),
                        np.repeat(ds.controls, 6))
    fam, _ = assert_family_exact(dup, BOUNDS, 0.5, 6)
    assert len(fam.present(1)) > 0


def test_family_exact_single_present_level():
    ds = random_records(np.random.default_rng(9), 200)
    targets = np.where(np.arange(200) == 17, 0.0, 5.0)  # one successor in the slab
    one = synth_dataset(ds.states, targets, ds.controls)
    fam, _ = assert_family_exact(one, BOUNDS, 1.0, 4)
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
        fam, inradius = assert_family_exact(ds, art["bounds"], delta, cfg.depth, dists)
        assert len(fam.present(2)) > 0
        # the study's dumped witness table gives the same inradii
        assert family_and_inradius(art, delta)[1].tobytes() == inradius.tobytes()


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
    fam, witness = build_level_family(ds, BOUNDS, delta=1.0, depth=5)
    assert fam.truncated_at == 0
    assert fam.sizes() == [0] * 6
    assert fam.radius.shape == witness.shape == (0, 4)
    assert successor_inradii(fam, witness).shape == (0, 4)


def test_build_inverts_levels_above_zero_once_each():
    # level 0 has no certified radius: one batched inversion per level >= 1
    calls = []

    class Counting(DeviationBounds):
        def state_dev_inv(self, r):
            calls.append(len(r))
            return super().state_dev_inv(r)

    bounds = Counting(lip_f=6.5, lip_c=0.22, rkhs_bound=1.0, kernel=SE, delay=1)
    fam, witness = build_level_family(random_records(np.random.default_rng(11), 200),
                                      bounds, 0.5, 6)
    assert len(fam.radius) > 2 and len(witness) == len(fam.radius) - 1
    assert calls == fam.sizes()[1:len(fam.radius)]


@pytest.mark.parametrize("delta,depth,truncated", [(0.5, 2, False), (0.5, 6, True)])
def test_sizes_equal_present_counts(delta, depth, truncated):
    fam, _ = build_level_family(random_records(np.random.default_rng(11), 200), BOUNDS,
                                delta, depth)
    assert (fam.truncated_at is not None) is truncated
    assert fam.sizes() == [len(fam.present(j)) for j in range(depth + 1)]
    assert all(type(n) is int for n in fam.sizes())


def family_and_inradius(art, delta):
    """The loaded family of accuracy ``delta`` and its levels >= 1 inradii."""
    return next((f, inr) for f, inr in zip(art["controller"].families, art["inradii"])
                if f.delta == delta)


def test_family_level1_balls_contained_in_level0(numerical_artifacts):
    fam, inradius = family_and_inradius(numerical_artifacts, 3.0)
    ds = fam.dataset
    idx = fam.present(1)[:50]
    c0, r0 = fam.centers_radii(0)
    for i, r in zip(idx, inradius[0, idx]):
        # the defining ball around the successor must sit inside some
        # level-0 ball: dist + r <= r0 for at least one of them
        d = np.linalg.norm(c0 - ds.succ_states[i], axis=1)
        assert np.min(d + r - r0) <= 1e-9


def test_family_recursion_soundness_sampled(numerical_artifacts):
    fam, inradius = family_and_inradius(numerical_artifacts, 1.0)
    rng = np.random.default_rng(42)
    ds = fam.dataset
    for j in range(1, min(4, len(fam.radius))):  # later levels are empty
        idx = fam.present(j)[:20]
        for i, r in zip(idx, inradius[j - 1, idx]):
            pts = sample_in_ball(rng, ds.succ_states[i], r, 50)
            assert all(fam.contains(j - 1, p) for p in pts)


def test_contains_levels():
    ds = synth_dataset([[0.0, 0.0, 0.5], [0.4, 0.1, 0.6]], [0.05, 0.2], [0.5, 0.6])
    fam, _ = build_level_family(ds, BOUNDS, delta=1.0, depth=3)
    idx = fam.present(1)
    assert len(idx) > 0
    center = ds.states[idx[0]]
    assert fam.contains(1, center)
    # boundary point of a closed ball is inside
    edge = center + np.array([fam.radius[1, idx[0]], 0.0, 0.0])
    assert fam.contains(1, edge)
    assert not fam.contains(1, center + 10.0)
    if len(fam.radius) > 3:
        fam.radius[3] = ABSENT
    assert not fam.contains(3, center)
    with pytest.raises(ValueError):
        fam.contains(1, center[:2])


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_distances_equal_norm_bitwise(dim):
    # the controller's distance row is one cdist row; its decisions and
    # logs stay byte-identical because that row is np.linalg.norm's
    rng = np.random.default_rng(dim)
    for _ in range(20):
        points = rng.normal(size=(300, dim)) * rng.uniform(1e-3, 1e3, size=dim)
        p = rng.normal(size=dim)
        assert np.array_equal(cdist(p[None], points)[0], np.linalg.norm(points - p, axis=1))


def _probe_points(fam, level, rng, count):
    """Points around the level's balls: inside, outside and on the boundary
    of a random present ball, or around record 0 if the level is empty."""
    centers, radii = fam.centers_radii(level)
    if not len(radii):
        centers, radii = fam.dataset.states[:1], np.ones(1)
    k = rng.integers(len(radii), size=count)
    dirs = rng.normal(size=(count, centers.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = rng.uniform(0.0, 2.0, size=count)
    scale[::5] = 1.0  # on the sphere of the chosen ball
    return centers[k] + dirs * (radii[k] * scale)[:, None]


@pytest.mark.parametrize("artifacts,stride", [("numerical_artifacts", 1),
                                              ("pendulum_artifacts", 3)])
def test_margin_sign_equals_contains(request, artifacts, stride):
    rng = np.random.default_rng(12)
    inside = outside = 0
    for fam in request.getfixturevalue(artifacts)["controller"].families[::stride]:
        for level in range(min(fam.depth, len(fam.radius)) + 1):
            pts = _probe_points(fam, level, rng, 40)
            got = fam.margin(level, pts)
            centers = fam.centers(level)
            row = fam.radius[level] if level < len(fam.radius) else np.full(len(centers), ABSENT)
            # the membership test before the margin: any norm distance <= radius
            want = [bool((np.linalg.norm(centers - p, axis=1) <= row).any()) for p in pts]
            assert (got >= 0).tolist() == want
            assert [fam.contains(level, p) for p in pts] == want
            inside += sum(want)
            outside += len(want) - sum(want)
    assert inside > 100 and outside > 100


def test_margin_level_range_and_dimension(numerical_artifacts):
    fam = next(f for f in numerical_artifacts["controller"].families
               if f.truncated_at is not None)
    pts = fam.dataset.states[:4]
    assert fam.margin(0, pts).shape == (4,)
    for level in (fam.truncated_at, fam.depth):
        assert np.all(fam.margin(level, pts) == ABSENT)
        assert not fam.contains(level, pts[0])
    for level in (-1, fam.depth + 1):
        with pytest.raises(IndexError):
            fam.margin(level, pts)
    with pytest.raises(ValueError):
        fam.margin(0, pts[:, :2])
    with pytest.raises(ValueError):
        fam.margin(fam.depth, pts[:, :2])


def test_certificate_radii_consistent(numerical_artifacts):
    # the inversion is from below: no certified radius maps past its inradius
    art = numerical_artifacts
    for fam, inradius in zip(art["controller"].families, art["inradii"]):
        for j in range(1, len(fam.radius)):
            idx = fam.present(j)
            back = art["bounds"].state_dev(fam.radius[j, idx])
            assert np.all(back <= inradius[j - 1, idx])


def test_nesting_vacuous_and_identity():
    ds = synth_dataset([[0, 0, 0]] * 2, [3.0, 3.0], [0.5, 0.5])
    fam, _ = build_level_family(ds, BOUNDS, delta=1.0, depth=2)
    assert fam.sizes() == [0, 0, 0]
    assert check_nesting(fam) is False  # level 0 empty: certifies nothing
    # hand-built family where the level-1 ball coincides with level 0
    ds2 = synth_dataset([[0.0, 0.0, 0.0]], [0.0], [0.0])
    fam2 = synth_family(ds2, 1.0, [[(0, 0.5)], [(0, 0.5)]])
    # level-1 ball centered at the state (origin) radius 0.5 equals level-0 ball
    assert check_nesting(fam2)


def test_nesting_counterexample_with_witness():
    # a level-0 ball off to the side of the only level-1 ball
    states = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
    ds = synth_dataset(states, [0.0, 0.0], [0.0, 0.0])
    fam = synth_family(ds, 1.0, [[(1, 0.4)], [(0, 0.4)]])
    assert not check_nesting(fam)
    # rejection-sample a witness point in level 0 but not level 1
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = sample_in_ball(rng, ds.succ_states[1], 0.4, 1)[0]
        if fam.contains(0, p) and not fam.contains(1, p):
            break
    else:
        pytest.fail("no witness found although nesting test failed")


def reference_nesting(family):
    """The nesting predicate over the full level-0 x level-1 distance
    matrix; an empty level 0 is not nested."""
    c0, r0 = family.centers_radii(0)
    c1, r1 = family.centers_radii(1)
    return len(r0) > 0 and bool(((cdist(c0, c1) + r0[:, None]) <= r1[None, :])
                                .any(axis=1).all())


def paired_family(n, level1_scale):
    """``2 n`` records: the successors of records ``0..n-1`` carry level-0 balls
    of radius 0.05; records ``n..2n-1`` have those successors as states and
    carry level-1 balls of radius ``0.05 * level1_scale``.  At scale 1 each
    level-1 ball contains its level-0 ball with equality in ``d + r0 <= r1``;
    no level-1 ball contains any other level-0 ball."""
    rng = np.random.default_rng(n)
    states = rng.uniform(-1, 1, size=(n, 3))
    targets, controls = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
    succ = np.stack([states[:, 1], targets, controls], axis=1)
    pad = np.zeros(n)
    ds = synth_dataset(np.concatenate([states, succ]), np.concatenate([targets, pad]),
                       np.concatenate([controls, pad]))
    assert np.array_equal(ds.succ_states[:n], ds.states[n:])
    r = np.full((2, 2 * n), ABSENT)
    r[0, :n] = 0.05
    r[1, n:] = 0.05 * np.asarray(level1_scale)
    return LevelFamily(delta=1.0, depth=1, radius=r, dataset=ds)


def nesting_cases():
    n = 3 * SCAN_ROWS + 5  # four blocks, the last one partial
    last_fails, first_fails = np.ones(n), np.ones(n)
    last_fails[-1] = first_fails[0] = 0.5
    empty0 = paired_family(n, 1.0)
    empty0.radius = empty0.radius[:0]
    empty1 = paired_family(n, 1.0)
    empty1.radius = empty1.radius[:1]
    return {"all_nested": (paired_family(n, 1.0), True),
            "last_fails": (paired_family(n, last_fails), False),
            "first_fails": (paired_family(n, first_fails), False),
            "level0_empty": (empty0, False),
            "level1_empty": (empty1, False)}


@pytest.mark.parametrize("case", sorted(nesting_cases()))
def test_nesting_equals_full_matrix_reference(case):
    fam, expected = nesting_cases()[case]
    assert len(fam.present(0)) in (0, 3 * SCAN_ROWS + 5)
    assert reference_nesting(fam) is expected
    assert check_nesting(fam) is expected


def family_and_witness(art, delta):
    """The loaded family of accuracy ``delta`` and its witness table."""
    return next((f, w) for f, w in zip(art["controller"].families, art["witnesses"])
                if f.delta == delta)


def test_dump_load_round_trip(tmp_path, numerical_artifacts):
    fam, witness = family_and_witness(numerical_artifacts, 1.0)
    p = tmp_path / "fam.npy"
    dump_family(p, fam, witness)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["fam.npy", "fam.witness.npy"]
    back = load_family(p, fam.dataset, fam.delta, fam.depth)
    assert back.delta == fam.delta and back.depth == fam.depth
    assert back.truncated_at == fam.truncated_at
    assert np.array_equal(back.radius, fam.radius)
    loaded = load_witness(p, back)
    assert loaded.dtype == np.uint16 and np.array_equal(loaded, witness)
    # the dumps' bytes depend on the tables only
    again = tmp_path / "again.npy"
    dump_family(again, fam, witness)
    assert p.read_bytes() == again.read_bytes()
    assert (tmp_path / "fam.witness.npy").read_bytes() == \
        (tmp_path / "again.witness.npy").read_bytes()


def _dumped_synth(tmp_path):
    """A two-level family dumped to ``tmp_path``: (dataset, family, radius
    path, witness path).  Records 1 and 3 share a successor 0.2 from the
    centers of the level-0 balls 0 and 2, their witnesses."""
    ds = synth_dataset(np.zeros((4, 3)), [0.0] * 4, [0.5, 0.3, 0.5, 0.3])
    fam = synth_family(ds, 0.5, [[(0, 0.4), (2, 0.3)], [(1, 0.02), (3, 0.01)]])
    witness = np.array([[0, 0, 0, 2]], dtype=np.uint8)
    p = tmp_path / "fam.npy"
    dump_family(p, fam, witness)
    return ds, fam, p, tmp_path / "fam.witness.npy"


@pytest.mark.parametrize("table,value", [
    (0, np.nan), (1, np.nan), (0, np.inf), (1, np.inf), (0, ABSENT), (1, ABSENT),
])
def test_load_rejects_nonfinite_or_one_sided_entries(tmp_path, table, value):
    # table 0 is the radius file, which simulate and verify read: NaN and
    # +inf are rejected, while an ABSENT radius just removes the ball, and
    # the successor inradius verify derives there is ABSENT too.  Table 1 is
    # the witness file, which only verify reads: a non-finite cell needs a
    # float table, which is rejected whatever its values
    ds, fam, p, wp = _dumped_synth(tmp_path)
    back = load_family(p, ds, fam.delta, fam.depth)
    assert back.radius[1, 3] == 0.01
    assert np.array_equal(successor_inradii(back, load_witness(p, back)),
                          [[ABSENT, 0.4 - 0.2, ABSENT, 0.3 - 0.2]])
    path = p if table == 0 else wp
    cells = np.load(path).astype(float)
    cells[(1, 3) if table == 0 else (0, 3)] = value  # record 3's level-1 radius or witness
    np.save(path, cells)
    if table == 1:
        with pytest.raises(ConfigError, match=r"fam\.witness\.npy: table of shape \(1, 4\) "
                                              r"\(float64\) does not fit unsigned indices"):
            load_witness(p, back)
    elif value != ABSENT:
        with pytest.raises(ConfigError, match=r"fam\.npy: level 1 record 3 has radius"):
            load_family(p, ds, fam.delta, fam.depth)
    else:
        back = load_family(p, ds, fam.delta, fam.depth)
        assert successor_inradii(back, load_witness(p, back))[0, 3] == ABSENT


@pytest.mark.parametrize("bad,message", [
    (np.zeros((1, 4)), r"table of shape \(1, 4\) \(float64\)"),
    (np.zeros((1, 4), dtype=np.int16), r"table of shape \(1, 4\) \(int16\)"),
    (np.zeros((2, 4), dtype=np.uint8), r"table of shape \(2, 4\)"),
    (np.zeros((1, 3), dtype=np.uint8), r"table of shape \(1, 3\)"),
    (np.array([[0, 0, 4, 2]], dtype=np.uint8), "level 1 record 2 has witness 4, not one of "
                                               "the 4 records"),
    (np.array([[0, 70000, 0, 2]], dtype=np.uint32), "level 1 record 1 has witness 70000"),
    (None, "not a witness table dump"),
], ids=["float64", "signed", "extra_level", "record_short", "index_past_records",
        "wide_type", "truncated"])
def test_load_witness_rejects_other_tables(tmp_path, bad, message):
    _, fam, p, wp = _dumped_synth(tmp_path)
    if bad is None:
        wp.write_bytes(wp.read_bytes()[:-3])
    else:
        np.save(wp, bad)
    with pytest.raises(ConfigError, match=r"fam\.witness\.npy: " + message):
        load_witness(p, fam)


def test_build_argument_validation(numerical_artifacts):
    ds = numerical_artifacts["dataset"]
    with pytest.raises(ValueError):
        build_level_family(ds, BOUNDS, delta=-1.0, depth=3)
    with pytest.raises(ValueError):
        build_level_family(ds, BOUNDS, delta=1.0, depth=0)
