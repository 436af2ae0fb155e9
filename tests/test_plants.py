import math

import numpy as np
import pytest

from invctrl.config import default_config
from invctrl.narx import build_dataset
from invctrl.plants import (InfeasibleInput, NumericalPlant,
                            PendulumPlant, add_noise,
                            collect_numerical_trajectories,
                            collect_pendulum_trajectories, pi_trajectory,
                            rng_stream)

NUM = NumericalPlant()
PEND = PendulumPlant()


# ------------------------------------------------------------- numerical


def test_step_band_edges():
    # radicand 16 -> output 1; radicand 4 -> output -1 (derived directly)
    z = np.zeros(3)
    assert NUM.step(z, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    assert NUM.step(z, math.exp(-0.25)) == pytest.approx(-1.0, abs=1e-12)


def test_step_equilibrium():
    # the rounded published value still holds the output near zero
    assert abs(NUM.step(np.array([0.0, 0.0, 0.5588]), 0.5588)) < 1e-3


def test_step_infeasible_raises():
    z = np.zeros(3)
    with pytest.raises(InfeasibleInput):
        NUM.step(z, 0.9)     # radicand below 4
    with pytest.raises(InfeasibleInput):
        NUM.step(z, 0.05)    # radicand above 16
    with pytest.raises(InfeasibleInput):
        NUM.step(z, -0.1)


def test_oracle_values():
    assert NUM.oracle(np.array([-3.0, 0.0, 0.0, 0.0])) == 1.0
    assert NUM.oracle(np.zeros(4)) == pytest.approx(math.exp(-9.0 / 16.0), rel=1e-14)


def test_oracle_inverse_identity_on_grid():
    # f(state, oracle([target, state])) == target over a feasible grid
    worst = 0.0
    for y1 in np.linspace(-1, 1, 10):
        for y0 in np.linspace(-1, 1, 10):
            for ytgt in np.linspace(-1, 1, 10):
                for u0 in np.linspace(0.31, 0.77, 10):
                    z = np.array([y1, y0, u0])
                    u = NUM.oracle(np.concatenate([[ytgt], z]))
                    worst = max(worst, abs(NUM.step(z, u) - ytgt))
    assert worst <= 1e-10


def test_output_confinement():
    rng = rng_stream(0, 99)
    for _ in range(500):
        z = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.31, 0.77)])
        y = NUM.step(z, NUM.sample_feasible_input(z, rng))
        assert -1.0 <= y <= 1.0


def test_lipschitz_sanity_sampled():
    # sampled difference quotients stay below the published constants over
    # the realizable box
    rng = rng_stream(1, 99)
    box = NUM.state_box()
    worst_f, worst_c = 0.0, 0.0
    for _ in range(4000):
        z1 = rng.uniform(box[:, 0], box[:, 1])
        z2 = z1 + rng.normal(scale=0.02, size=3)
        z2 = np.clip(z2, box[:, 0], box[:, 1])
        u1 = NUM.sample_feasible_input(z1, rng)
        u2 = NUM.sample_feasible_input(z2, rng)
        dz = math.sqrt(np.sum((z1 - z2) ** 2) + (u1 - u2) ** 2)
        if dz > 1e-12:
            worst_f = max(worst_f, abs(NUM.step(z1, u1) - NUM.step(z2, u2)) / dz)
        x1 = np.concatenate([[rng.uniform(-1, 1)], z1])
        x2 = x1 + rng.normal(scale=0.02, size=4)
        dx = np.linalg.norm(x1 - x2)
        worst_c = max(worst_c, abs(NUM.oracle(x1) - NUM.oracle(x2)) / dx)
    assert worst_f <= 6.5
    assert worst_c <= 0.22


def test_collect_numerical_shape_and_count():
    trajs = collect_numerical_trajectories(seed=1)
    assert len(trajs) == 280
    for t in trajs:
        assert t.horizon == 2 and len(t.outputs) == 3
        assert t.outputs[0] == t.outputs[1]  # tied initial pair
    ds = build_dataset(trajs, 2, 1)
    assert len(ds) == 280
    grid_y = set(np.linspace(-1, 1, 7).round(12))
    grid_u = set(np.linspace(0, 1, 4).round(12))
    assert {round(t.outputs[0], 12) for t in trajs} == grid_y
    assert {round(t.inputs[0], 12) for t in trajs} == grid_u


def test_collect_numerical_inputs_feasible_and_reproducible():
    a = collect_numerical_trajectories(seed=5)
    b = collect_numerical_trajectories(seed=5)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.inputs, tb.inputs)
        assert np.array_equal(ta.outputs, tb.outputs)
        z = np.array([ta.outputs[0], ta.outputs[1], ta.inputs[0]])
        assert NUM.input_feasible(z, ta.inputs[1])
    c = collect_numerical_trajectories(seed=6)
    assert not np.array_equal(a[0].inputs, c[0].inputs)


# ------------------------------------------------------------- pendulum


def test_pendulum_zero_state_stays():
    z = np.zeros(3)
    assert PEND.free_output(z) == 0.0
    assert PEND.step(z, 0.0) == 0.0


def test_pendulum_coefficient():
    # arithmetic oracle: 2 - b Ts / (m l^2) with the study parameters
    assert PEND.coef_a == pytest.approx(2.0 - 0.4 * 0.001 / 0.09, rel=1e-15)
    assert PEND.coef_a == pytest.approx(1.9955555555555557, rel=1e-12)
    # bit for bit: A = 2 - b Ts/(m l^2), B = -1 + b Ts/(m l^2), C = g Ts^2 / l,
    # D = Ts^2/(m l^2) with m = 1, b = 0.4, g = 9.8, l = 0.3 and Ts = 0.001
    m, b, g, l, ts = 1.0, 0.4, 9.8, 0.3, 0.001
    assert PEND.ts == ts
    want = (2.0 - b * ts / (m * l**2), -1.0 + b * ts / (m * l**2), g * ts**2 / l,
            ts**2 / (m * l**2))
    got = (PEND.coef_a, PEND.coef_b, PEND.coef_c, PEND.coef_d)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_pendulum_oracle_inverse_identity():
    rng = rng_stream(2, 99)
    worst = 0.0
    for _ in range(10000):
        z = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                      rng.uniform(-5, 5)])
        tgt = rng.uniform(-0.3, 0.3)
        u = PEND.oracle(np.concatenate([[tgt], z]))
        worst = max(worst, abs(PEND.step(z, u) - tgt))
    assert worst <= 1e-9


def test_pendulum_advance_consistency():
    z = np.array([0.1, 0.12, -1.5])
    y1, z_next = PEND.advance(z, 0.7)
    assert y1 == PEND.free_output(z)
    assert np.array_equal(z_next, [0.12, y1, 0.7])
    # two-step output equals stepping the successor's free output
    assert PEND.step(z, 0.7) == pytest.approx(PEND.free_output(z_next), rel=1e-14)


def test_pendulum_lipschitz_bounds_dominate_samples():
    # the config constants derived in closed form next to their definition
    cfg = default_config("pendulum")
    lip_f, lip_c = cfg.lip_f, cfg.lip_c
    rng = rng_stream(3, 99)
    worst_f = worst_c = 0.0
    for _ in range(3000):
        z1 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                       rng.uniform(-5, 5)])
        u1 = rng.uniform(-5, 5)
        z2 = z1 + rng.normal(scale=0.01, size=3)
        u2 = u1 + rng.normal(scale=0.01)
        dz = math.sqrt(np.sum((z1 - z2) ** 2) + (u1 - u2) ** 2)
        worst_f = max(worst_f, abs(PEND.step(z1, u1) - PEND.step(z2, u2)) / dz)
        x1 = np.concatenate([[rng.uniform(-0.3, 0.3)], z1])
        x2 = x1 + rng.normal(scale=0.01, size=4)
        worst_c = max(worst_c,
                      abs(PEND.oracle(x1) - PEND.oracle(x2)) / np.linalg.norm(x1 - x2))
    assert worst_f <= lip_f
    assert worst_c <= lip_c


def test_pi_trajectory_integral_recursion():
    kp, ki, a = 15.0, 0.01, 0.18
    t = pi_trajectory(PEND, kp, ki, a)
    # oracle: independent reimplementation of the integral update, over the
    # first 50 inputs and 51 outputs
    integral = 0.0
    assert t.inputs[0] == 0.0
    for k in range(49):
        err = t.outputs[k + 1]
        if k > 0:
            integral += PEND.ts * err
        assert t.inputs[k + 1] == pytest.approx(-kp * err - ki * integral, rel=1e-14)
    # outputs follow the one-step recursion
    for k in range(49):
        z = np.array([t.outputs[k], t.outputs[k + 1], t.inputs[k]])
        assert t.outputs[k + 2] == pytest.approx(PEND.free_output(z), rel=1e-14)


def test_collect_pendulum_counts():
    trajs = collect_pendulum_trajectories()
    assert len(trajs) == 6
    assert all(t.horizon == 200 for t in trajs)
    ds = build_dataset(trajs, 2, 2)
    assert len(ds) == 6 * 198  # actual record count; windowing drops 2 per run


def test_collect_pendulum_initial_amplitudes():
    trajs = collect_pendulum_trajectories()
    amps = sorted(round(t.outputs[0], 12) for t in trajs)
    assert amps == [-0.22, -0.18, -0.16, 0.16, 0.18, 0.22]


# ------------------------------------------------------------- noise


def test_add_noise_zero_sigma_identity():
    t = collect_pendulum_trajectories()[0]
    out = add_noise(t, 0.0, 0)
    assert np.array_equal(out.outputs, t.outputs)
    assert np.array_equal(out.inputs, t.inputs)


def test_add_noise_reproducible_and_seed_sensitive():
    t = collect_pendulum_trajectories()[0]
    a = add_noise(t, 0.01, 3)
    b = add_noise(t, 0.01, 3)
    assert np.array_equal(a.outputs, b.outputs)
    assert not np.array_equal(a.outputs, t.outputs)
    c = add_noise(t, 0.01, 4)
    assert not np.array_equal(a.outputs, c.outputs)


def test_noise_mean_law_of_large_numbers():
    sigma = 0.01
    draws = rng_stream(11, 1).normal(0.0, sigma, size=10**5)
    assert abs(draws.mean()) <= 3.0 * sigma / math.sqrt(10**5)
