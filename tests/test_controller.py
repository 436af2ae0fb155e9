from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from invctrl.controller import Controller
from invctrl import pipeline

from conftest import synth_dataset, synth_family


def row(ctl, state):
    """The distance row ``Controller.control`` passes to ``locate`` and
    ``select_reference``."""
    return cdist(np.atleast_2d(np.asarray(state, dtype=float)), ctl.dataset.states)[0]


class IdentityModel:
    """Stand-in interpolant: returns the reference component."""

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        return float(x[0]) if x.ndim == 1 else x[:, 0]


@pytest.fixture
def synth():
    ds = synth_dataset(
        states=[[0.0, 0.0, 0.0], [2.0, 2.0, 0.0], [4.0, 4.0, 0.0]],
        targets=[0.05, 0.1, 0.2],
        controls=[0.5, 0.6, 0.7],
    )
    # family at accuracy 0.1: record 0 at level 1 and 2; family 0.5: records 0,1
    fam_01 = synth_family(ds, 0.1, [
        [(0, 0.05)],
        [(0, 0.004)],
        [(0, 0.002)],
    ])
    fam_05 = synth_family(ds, 0.5, [
        [(0, 0.45), (1, 0.4)],
        [(0, 0.04), (1, 0.035)],
        [],
    ])
    return ds, fam_01, fam_05


def test_locate_uncovered(synth):
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    assert ctl.locate(row(ctl, np.array([100.0, 100.0, 100.0]))) is None


def test_locate_prefers_smaller_accuracy_then_level(synth):
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    # state at record 0's state: contained in 0.1's level 1 and 0.5's level 1
    assert ctl.locate(row(ctl, ds.states[0])) == (0.1, 1)
    # state only slightly off: outside 0.1's tiny certificates, inside 0.5's
    off = ds.states[0] + np.array([0.01, 0.0, 0.0])
    assert ctl.locate(row(ctl, off)) == (0.5, 1)
    # a state in level 2 of the small accuracy but level 1 of the large one
    # still resolves to the smaller accuracy first
    fam_01b = synth_family(ds, 0.1, [
        [(0, 0.05)],
        [],
        [(0, 0.002)],
    ])
    ctl2 = Controller([fam_01b, fam_05], IdentityModel(), sound=True)
    assert ctl2.locate(row(ctl2, ds.states[0])) == (0.1, 2)


def brute_locate(families, state):
    """Reference for ``Controller.locate``: the first accuracy (ascending)
    with any level >= 1 ball holding the state, then its lowest such level,
    from one norm row against every radius row >= 1."""
    d = np.linalg.norm(families[0].dataset.states - np.asarray(state, dtype=float), axis=1)
    for fam in sorted(families, key=lambda f: f.delta):
        holds = (d <= fam.radius[1:]).any(axis=1)
        if holds.any():
            return fam.delta, 1 + int(holds.argmax())
    return None


def assert_locate_matches_brute(ctl, states):
    """locate and the certificate of control() both equal the reference."""
    hits = 0
    for state in states:
        want = brute_locate(ctl.families, state)
        assert ctl.locate(row(ctl, state)) == want
        _, cert = ctl.control(state)
        assert (cert.delta, cert.kappa) == (want or (None, None))
        assert (cert.label != "fallback") == (want is not None)
        assert cert.certified == (ctl.sound and want is not None)
        hits += want is not None
    return hits


def test_locate_matches_brute_force_synth(synth):
    ds, fam_01, fam_05 = synth
    # accuracy 0.2 holds record 2 at level 0 only, record 1 from level 2 on
    fam_02 = synth_family(ds, 0.2, [
        [(2, 0.15)],
        [],
        [(1, 0.3)],
    ])
    ctl = Controller([fam_01, fam_05, fam_02], IdentityModel(), sound=True)
    level0_only = ds.succ_states[2]
    assert fam_02.contains(0, level0_only)
    assert brute_locate(ctl.families, level0_only) is None
    rng = np.random.default_rng(11)
    states = [level0_only, ds.states[0], ds.states[1], ds.states[2]]
    for center in np.concatenate([ds.states, ds.succ_states]):
        for scale in (0.001, 0.01, 0.05, 0.3):
            states.extend(center + rng.normal(scale=scale, size=(5, 3)))
    hits = assert_locate_matches_brute(ctl, states)
    assert 0 < hits < len(states)


@pytest.mark.parametrize("plant,count", [("numerical", 300), ("pendulum", 100)])
def test_locate_matches_brute_force_benchmark(plant, count, request):
    # states uniform over the data box and near records; the pendulum
    # families have 100 levels, the numerical ones at most 3
    art = request.getfixturevalue(f"{plant}_artifacts")
    ctl, ds = art["controller"], art["dataset"]
    rng = np.random.default_rng(5)
    dim = ds.states.shape[1]
    spread = ds.states.max(axis=0) - ds.states.min(axis=0)
    uniform = rng.uniform(ds.states.min(axis=0), ds.states.max(axis=0),
                          size=(count, dim))
    near = (ds.states[rng.integers(len(ds), size=count)]
            + rng.normal(scale=0.01, size=(count, dim)) * spread)
    hits = assert_locate_matches_brute(ctl, np.concatenate([uniform, near]))
    assert 0 < hits < 2 * count


def test_locate_skips_family_without_action_levels(synth):
    ds, fam_01, fam_05 = synth
    # accuracy 0.05 stores only level 0, which holds every record's state
    level0 = synth_family(ds, 0.05, [[(i, 0.04) for i in range(3)], [], []])
    level0 = replace(level0, radius=level0.radius[:1])
    assert level0.truncated_at == 1
    ctl = Controller([level0, fam_01, fam_05], IdentityModel(), sound=True)
    assert ctl.locate(row(ctl, ds.states[0])) == (0.1, 1)
    assert ctl.locate(row(ctl, ds.states[1])) == (0.5, 1)
    assert ctl.locate(row(ctl, ds.states[2])) is None
    assert_locate_matches_brute(ctl, [ds.states[0], ds.states[1], ds.states[2]])


def bisect_locate(families, reaches, d):
    """Reference for ``Controller.locate``: the first accuracy (ascending)
    whose largest level >= 1 certified radius reaches a record's distance,
    then a bisection over that family's running-maximum rows ``reaches``."""
    for fam, reach in zip(families, reaches):
        if not len(reach) or not (d <= reach[-1]).any():
            continue
        lo, hi = 0, len(reach) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if (reach[mid] >= d).any() else (mid + 1, hi)
        return fam.delta, 1 + lo
    return None


def assert_locate_matches_bisection(ctl, states):
    """``locate`` equals the bisection on every state; returns the hits."""
    reaches = [np.maximum.accumulate(f.radius[1:], axis=0) for f in ctl.families]
    hits = 0
    for state in states:
        d = row(ctl, state)
        want = bisect_locate(ctl.families, reaches, d)
        assert ctl.locate(d) == want
        hits += want is not None
    return hits


@pytest.mark.parametrize("plant,count", [("numerical", 300), ("pendulum", 300)])
def test_locate_matches_bisection_benchmark(plant, count, request):
    # states uniform over the data box, near records and on certified spheres
    art = request.getfixturevalue(f"{plant}_artifacts")
    ctl, ds = art["controller"], art["dataset"]
    rng = np.random.default_rng(17)
    dim = ds.states.shape[1]
    lo, hi = ds.states.min(axis=0), ds.states.max(axis=0)
    uniform = rng.uniform(lo, hi, size=(count, dim))
    near = (ds.states[rng.integers(len(ds), size=count)]
            + rng.normal(scale=0.002, size=(count, dim)) * (hi - lo))
    sphere = []
    for fam in ctl.families:
        lev, rec = np.nonzero(fam.radius[1:] > 0)
        pick = rng.integers(len(lev), size=count // len(ctl.families))
        unit = rng.normal(size=(len(pick), dim))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        sphere.append(ds.states[rec[pick]]
                      + unit * fam.radius[1 + lev[pick], rec[pick], None])
    hits = assert_locate_matches_bisection(
        ctl, np.concatenate([uniform, near, *sphere]))
    assert 0 < hits < 3 * count


def test_locate_matches_bisection_synth():
    # record 0 at the origin; records 1 and 2 at exact 3-4-5 offsets from
    # the probes below, so distances equal stored radii exactly
    ds = synth_dataset(
        states=[[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [6.0, 0.0, 8.0], [20.0, 0.0, 0.0]],
        targets=[0.05, 0.1, 0.2, 0.3],
        controls=[0.5, 0.6, 0.7, 0.8],
    )
    # accuracy 0.05 stores level 0 only
    level0 = synth_family(ds, 0.05, [[(i, 30.0) for i in range(4)]])
    # ABSENT cells above present ones, and radii that shrink with depth
    shrink = synth_family(ds, 0.1, [
        [(0, 0.05)],
        [(1, 5.0), (3, 1.0)],
        [(0, 2.0), (3, 0.5)],
        [(2, 10.0)],
        [(1, 4.0), (0, 1.0)],
    ])
    wide = synth_family(ds, 0.5, [
        [(0, 0.45)],
        [(3, 10.0)],
        [(0, 25.0)],
    ])
    ctl = Controller([level0, shrink, wide], IdentityModel(), sound=True)
    origin = np.zeros(3)
    probes = [origin, ds.states[1], ds.states[3],
              ds.states[3] + [1.0, 0.0, 0.0], ds.states[3] + [0.5, 0.0, 0.0]]
    # d = 5 to record 1, on its level-1 sphere (and 10 to record 2, on its
    # level-3 sphere)
    assert ctl.locate(row(ctl, origin)) == (0.1, 1)
    # on record 3's level-1 sphere, then on its shrunk level-2 sphere
    assert ctl.locate(row(ctl, probes[3])) == (0.1, 1)
    assert ctl.locate(row(ctl, probes[4])) == (0.1, 1)
    # random probes around every record, and 3-4-5 offsets from each
    rng = np.random.default_rng(3)
    for center in ds.states:
        for scale in (0.5, 2.0, 5.0, 12.0):
            probes.extend(center + rng.normal(scale=scale, size=(10, 3)))
        probes.extend(center + np.array([[3.0, 4.0, 0.0], [0.0, -3.0, 4.0],
                                         [6.0, 0.0, 8.0], [-6.0, -8.0, 0.0]]))
    hits = assert_locate_matches_bisection(ctl, probes)
    assert 0 < hits < len(probes)
    assert assert_locate_matches_brute(ctl, probes[:5]) == 5


def test_locate_shrinking_column_picks_lowest_holding_level():
    # record 0 has no level-1 ball, radius 6 at level 2 and 2 at level 3;
    # record 1 holds a wider set only from level 3 on
    ds = synth_dataset(
        states=[[0.0, 0.0, 0.0], [30.0, 40.0, 0.0]],
        targets=[0.05, 0.1], controls=[0.5, 0.6],
    )
    fam = synth_family(ds, 0.1, [
        [(0, 0.05)],
        [],
        [(0, 6.0)],
        [(1, 51.0), (0, 2.0)],
    ])
    ctl = Controller([fam], IdentityModel(), sound=True)
    cases = {
        (0.0, 0.0, 1.5): 2,   # inside both of record 0's balls
        (3.0, 4.0, 0.0): 2,   # d = 5, outside its shrunk level-3 ball
        (0.0, 0.0, 6.0): 2,   # d = 6 exactly on the level-2 sphere
        (0.0, 0.0, 7.0): 3,   # record 1 only (d = 50.49 <= 51)
    }
    for state, level in cases.items():
        assert ctl.locate(row(ctl, state)) == (0.1, level)
    assert_locate_matches_bisection(ctl, list(cases))
    assert_locate_matches_brute(ctl, list(cases))


def test_controller_init_keeps_no_table_copy(pendulum_artifacts):
    # the controller holds the families, not a second copy of their tables
    import tracemalloc
    art = pendulum_artifacts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ctl = Controller(art["controller"].families, art["model"], sound=False)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert ctl.locate(row(ctl, art["dataset"].states[0])) is not None
    assert kept < 1_000_000


def test_locate_deepest_stored_level(synth):
    ds, _, fam_05 = synth
    # record 1 reaches the probe, on the sphere of its ball, only at the last
    # stored level, 4 (2.5 - 2.0 = 0.5 exactly, so the closed ball holds it)
    fam = synth_family(ds, 0.1, [
        [(0, 0.05)],
        [(0, 0.004), (1, 0.004)],
        [(1, 0.01)],
        [(0, 0.02)],
        [(2, 0.001), (1, 0.5)],
    ])
    ctl = Controller([fam, fam_05], IdentityModel(), sound=True)
    probe = ds.states[1] + np.array([0.5, 0.0, 0.0])
    assert brute_locate(ctl.families, probe) == (0.1, 4)
    assert ctl.locate(row(ctl, probe)) == (0.1, 4)
    _, cert = ctl.control(probe)
    assert (cert.delta, cert.kappa, cert.index) == (0.1, 4, 1)
    assert_locate_matches_brute(ctl, [ds.states[0], ds.states[1], probe,
                                      ds.states[1] + np.array([0.6, 0.0, 0.0])])


def test_control_calls_locate_and_select_by_attribute(synth):
    # a wrapper set on the instance sees every call control() makes
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    calls = []

    def wrap(name):
        fn = getattr(ctl, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    ctl.locate = wrap("locate")
    ctl.select_reference = wrap("select_reference")
    ctl.control(ds.states[0])
    ctl.control(np.array([50.0, 50.0, 50.0]))
    assert calls == ["locate", "select_reference", "locate"]


def test_select_reference_single_and_argmax(synth):
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    cert, ref = ctl.select_reference(row(ctl, ds.states[0]), 0.1, 1)
    assert cert.index == 0 and ref == ds.targets[0] and cert.certified
    # two covering entries: pick the larger slack
    mid = 0.5 * (ds.states[0] + ds.states[1])
    fam_wide = synth_family(ds, 0.5, [
        [(0, 0.45), (1, 0.4)],
        [(0, 1.80), (1, 1.87)],
    ])
    ctl2 = Controller([fam_wide], IdentityModel(), sound=True)
    cert2, _ = ctl2.select_reference(row(ctl2, mid), 0.5, 1)
    d0 = np.linalg.norm(ds.states[0] - mid)
    d1 = np.linalg.norm(ds.states[1] - mid)
    assert 1.87 - d1 > 1.80 - d0
    assert cert2.index == 1
    assert cert2.slack == pytest.approx(1.87 - d1, rel=1e-12)


def test_slack_scaling_invariance(synth):
    ds, fam_01, fam_05 = synth
    mid = 0.5 * (ds.states[0] + ds.states[1])
    for scale in (1.0, 3.0, 17.0):
        fam = synth_family(ds, 0.5, [
            [(0, 0.45)],
            [(0, 1.80 * scale), (1, 1.87 * scale)],
        ])
        ctl = Controller([fam], IdentityModel(), sound=True)
        cert, _ = ctl.select_reference(row(ctl, mid), 0.5, 1)
        assert cert.index == 1  # argmax invariant under positive scaling


def test_control_certified_uses_prediction(synth):
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    u, cert = ctl.control(ds.states[0])
    assert cert.certified
    assert u == ds.targets[cert.index]  # identity model returns the reference


def test_heuristic_controller_takes_the_same_decisions(synth):
    # families built on a heuristic bound: the same (delta, kappa, record,
    # slack) and input, labelled heuristic, and descent is still asserted
    ds, fam_01, fam_05 = synth
    sound = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    heuristic = Controller([fam_01, fam_05], IdentityModel(), sound=False)
    labels, descents = [], []
    for state in (ds.states[0], ds.states[1], np.array([50.0, 50.0, 50.0])):
        u, cert = sound.control(state)
        u_h, cert_h = heuristic.control(state)
        assert u_h == u and (cert_h.delta, cert_h.kappa, cert_h.index, cert_h.slack) == (
            cert.delta, cert.kappa, cert.index, cert.slack)
        assert not cert_h.certified
        labels.append(cert_h.label)
        if cert.delta is None:
            assert cert.label == cert_h.label == "fallback"
            assert heuristic.assert_descent(cert_h, ds.succ_states[0]) is None
        else:
            assert (cert.label, cert_h.label) == ("certified", "heuristic")
            for nxt in (ds.succ_states[cert.index], np.array([50.0, 50.0, 50.0])):
                descents.append(sound.assert_descent(cert, nxt))
                assert heuristic.assert_descent(cert_h, nxt) == descents[-1]
    assert set(labels) == {"heuristic", "fallback"} and set(descents) == {True, False}


def test_control_level_zero_relocates(synth):
    ds, _, _ = synth
    # state only in level 0: no action there, and nothing at level >= 1
    fam = synth_family(ds, 0.5, [
        [(0, 0.45)],
        [],
    ])
    ctl = Controller([fam], IdentityModel(), sound=True)
    u, cert = ctl.control(ds.succ_states[0])
    assert not cert.certified  # fell through to the fallback
    # with a second family covering at level 1, the re-location certifies
    fam2 = synth_family(ds, 0.6, [
        [(0, 0.55)],
        [(0, 10.0)],
    ])
    ctl2 = Controller([fam, fam2], IdentityModel(), sound=True)
    u2, cert2 = ctl2.control(ds.succ_states[0])
    assert cert2.certified and cert2.delta == 0.6 and cert2.kappa == 1


def test_fallback_nearest_with_tie_break(synth):
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    far = np.array([50.0, 50.0, 50.0])
    u, cert = ctl.control(far)
    assert not cert.certified and cert.delta is None and cert.slack is None
    assert cert.index == 2  # nearest record
    # exact distance ties resolve toward the smallest-magnitude target
    ds_tie = synth_dataset(
        states=[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
        targets=[0.9, -0.05, 0.4],
        controls=[0.5, 0.5, 0.5],
    )
    fam_tie = synth_family(ds_tie, 0.5, [[(0, 0.1)], []])
    ctl_tie = Controller([fam_tie], IdentityModel(), sound=True)
    _, cert_tie = ctl_tie.control(np.array([30.0, 0.0, 0.0]))
    assert cert_tie.index == 1
    # distance and |target| both tie: the lowest index wins
    ds_tie2 = synth_dataset(
        states=[[1.0, 1.0, 0.0]] * 4,
        targets=[0.9, 0.05, -0.05, 0.05],
        controls=[0.5] * 4,
    )
    fam_tie2 = synth_family(ds_tie2, 0.5, [[(0, 0.1)], []])
    _, cert_tie2 = Controller([fam_tie2], IdentityModel(), sound=True).control(
        np.array([30.0, 0.0, 0.0]))
    assert cert_tie2.index == 1


def test_assert_descent(synth):
    ds, fam_01, fam_05 = synth
    ctl = Controller([fam_01, fam_05], IdentityModel(), sound=True)
    _, cert = ctl.control(ds.states[0])
    assert cert.certified and cert.kappa >= 1
    inside = ds.succ_states[cert.index]
    fam = ctl.family(cert.delta)
    assert ctl.assert_descent(cert, inside) == fam.contains(cert.kappa - 1, inside)
    from invctrl.controller import StepCertificate
    skipped = StepCertificate(None, None, 0, None, False)
    assert ctl.assert_descent(skipped, inside) is None


def test_controller_rejects_bad_families(synth):
    ds, fam_01, fam_05 = synth
    with pytest.raises(ValueError):
        Controller([fam_01, fam_01], IdentityModel(), sound=True)


def test_closed_loop_determinism(numerical_artifacts):
    cfg = numerical_artifacts["cfg"]
    plant = numerical_artifacts["plant"]
    ctl = numerical_artifacts["controller"]
    seqs = []
    for _ in range(2):
        state = np.array([-1.0, -1.0, 0.0])
        us = []
        for _ in range(10):
            u, cert = ctl.control(state)
            y, state = plant.advance(state, u)
            us.append(u)
        seqs.append(us)
    assert seqs[0] == seqs[1]  # bit-for-bit


def test_closed_loop_inputs_stay_feasible(numerical_artifacts):
    plant = numerical_artifacts["plant"]
    ctl = numerical_artifacts["controller"]
    for ic in ([-1, -1, 0], [0.5, 0.5, 0], [1, 1, 0]):
        state = np.array(ic, dtype=float)
        for _ in range(10):
            u, _ = ctl.control(state)
            assert plant.input_feasible(state, u)
            _, state = plant.advance(state, u)


def test_certified_step_lands_in_reference_ball(numerical_artifacts):
    # one certified step on the benchmark: the successor falls in the ball
    # around the selected record's successor (the mechanism behind descent)
    plant = numerical_artifacts["plant"]
    ctl = numerical_artifacts["controller"]
    ds = numerical_artifacts["dataset"]
    state = np.array([0.0, 0.0, 0.0])
    u, cert = ctl.control(state)
    assert cert.certified
    inradius = next(inr for f, inr in zip(ctl.families, numerical_artifacts["inradii"])
                    if f.delta == cert.delta)
    r = float(inradius[cert.kappa - 1, cert.index])
    _, nxt = plant.advance(state, u)
    assert np.linalg.norm(ds.succ_states[cert.index] - nxt) <= r + 1e-9
    assert ctl.assert_descent(cert, nxt) is True


def test_all_benchmark_initial_states_covered(numerical_artifacts):
    # every study initial condition is locatable in some family
    ctl = numerical_artifacts["controller"]
    for ic in numerical_artifacts["cfg"].initial_conditions:
        assert ctl.locate(row(ctl, np.asarray(ic))) is not None


def scan_locate(families, reaches, d):
    """The per-family scan that ``Controller.locate`` replaced: the first
    accuracy with a record whose running-maximum row reaches the state, then
    one plus the fewest rows before a candidate is reached."""
    for fam, reach in zip(families, reaches):
        if len(reach) == 0:
            continue
        cand = np.flatnonzero(d <= reach[-1])
        if cand.size:
            return fam.delta, 1 + int((reach[:, cand] < d[cand]).sum(axis=0).min())
    return None


def reference_control(ctl, reaches, state):
    """One control step by the earlier path: the scan above, max slack over
    the level's present records, the 3-key ``lexsort`` fallback and
    ``kernel.cross(x, train_x) @ alpha``.  Returns (u, delta, kappa, index,
    slack)."""
    ds, model = ctl.dataset, ctl.interpolant
    d = np.linalg.norm(ds.states - state, axis=1)
    loc = scan_locate(ctl.families, reaches, d)
    if loc is None:
        delta = kappa = slack = None
        j = int(np.lexsort((np.arange(len(d)), np.abs(ds.targets), d))[0])
    else:
        delta, kappa = loc
        fam = ctl.family(delta)
        idx = fam.present(kappa)
        slacks = (fam.radius[kappa, idx]
                  - np.linalg.norm(ds.states[idx] - state, axis=1))
        k = int(np.argmax(slacks))
        j, slack = int(idx[k]), float(slacks[k])
    x = np.concatenate([[ds.targets[j]], state])
    u = float((model.kernel.cross(x, model.train_x) @ model.alpha)[0])
    return u, delta, kappa, j, slack


@pytest.mark.parametrize("ic", [(-0.0859, -0.0881, 0.0), (0.1, 0.1, 0.0)])
def test_closed_loop_matches_reference_path(pendulum_artifacts, ic):
    # the first IC holds certified steps, then falls back from step 240 on;
    # the second is a study IC, certified throughout at many levels
    ctl, plant = pendulum_artifacts["controller"], pendulum_artifacts["plant"]
    reaches = [np.maximum.accumulate(f.radius[1:], axis=0)
               for f in ctl.families]
    state = np.array(ic)
    fallbacks = 0
    for t in range(300):
        u, cert = ctl.control(state)
        got = (u, cert.delta, cert.kappa, cert.index, cert.slack)
        assert np.array_equal(row(ctl, state),
                              np.linalg.norm(ctl.dataset.states - state, axis=1))
        assert got == reference_control(ctl, reaches, state), t
        if t % 20 == 0:
            want = brute_locate(ctl.families, state)
            assert (cert.delta, cert.kappa) == (want or (None, None))
        # the pendulum's linear slope is a heuristic: no step is certified
        assert cert.label == ("fallback" if cert.delta is None else "heuristic")
        assert not cert.certified
        fallbacks += cert.label == "fallback"
        _, state = plant.advance(state, u)
    assert fallbacks == (60 if ic[0] < 0 else 0)
