import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invctrl.bounds import DeviationBounds
from invctrl.kernels import IsotropicKernel
from invctrl.levelsets import (ABSENT, Ball, build_level_family,
                               check_nesting, dump_family, index_set_slab,
                               load_family, slab_inradius, union_inradius)

from invctrl.verify import sample_in_ball

from conftest import sampled_inradius, synth_dataset, synth_family

SE = IsotropicKernel("squared_exponential", 1.0, 2.0 * math.sqrt(2.0))
BOUNDS = DeviationBounds(lip_f=6.5, lip_c=0.22, rkhs_bound=1.0, delay=1,
                         eta_mode="profile", profile=SE.profile,
                         profile_deficit=SE.profile_deficit)


# ------------------------------------------------------------- primitives


def test_slab_inradius_inside():
    assert slab_inradius(np.array([0.4, 0.3, 0.9]), delta=1.0, order=2) == pytest.approx(0.7)


def test_slab_inradius_boundary_and_outside():
    assert slab_inradius(np.array([0.0, 1.0, 0.0]), 1.0, 2) is None
    assert slab_inradius(np.array([0.0, 1.7, 0.0]), 1.0, 2) is None


def test_union_inradius_isolated_center():
    b = Ball(np.array([1.0, 2.0, 3.0]), 0.8)
    assert union_inradius(np.array([1.0, 2.0, 3.0]), [b]) == pytest.approx(0.8)


def test_union_inradius_outside():
    b = Ball(np.zeros(3), 1.0)
    assert union_inradius(np.array([3.0, 0.0, 0.0]), [b]) is None
    assert union_inradius(np.zeros(3), []) is None


def test_union_inradius_two_overlapping_balls():
    # midway point of two overlapping unit balls: single-ball value 0.5,
    # never exceeding the direction-sampled true inradius
    balls = [Ball(np.array([-0.5, 0.0, 0.0]), 1.0), Ball(np.array([0.5, 0.0, 0.0]), 1.0)]
    p = np.zeros(3)
    est = union_inradius(p, balls)
    assert est == pytest.approx(0.5)
    assert est <= sampled_inradius(p, balls) + 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_union_inradius_is_underestimate(seed):
    rng = np.random.default_rng(seed)
    balls = [Ball(rng.uniform(-1, 1, size=3), rng.uniform(0.2, 1.0))
             for _ in range(rng.integers(1, 6))]
    k = rng.integers(len(balls))
    p = balls[k].center + rng.normal(size=3) * balls[k].radius * 0.3
    est = union_inradius(p, balls)
    if est is not None:
        assert est <= sampled_inradius(p, balls, seed=seed) + 1e-9


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
