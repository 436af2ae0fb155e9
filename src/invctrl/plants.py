"""Benchmark plants: exact dynamics, constraints, analytic inverse oracles,
data collection, and measurement noise.

Numerical benchmark (order 2, delay 1)
    ``y+ = -3 + sqrt(-||state||^2 - 16 ln u)`` subject to the input band
    ``4 <= -||state||^2 - 16 ln u <= 16``, which confines outputs to
    [-1, 1].  The analytic inverse is
    ``c([y+; state]) = exp(-((y+ + 3)^2 + ||state||^2) / 16)``, a squared-
    exponential bump; the zero-output equilibrium input solves
    ``u^2 + 16 ln u + 9 = 0`` (about 0.5588).

Inverted pendulum (order 2, delay 2)
    Finite-difference discretization of
    ``m l^2 theta'' + b theta' - m g l sin(theta) = tau`` at sampling time
    ``Ts``; the input affects the output two steps ahead:

    ``y(t+2) = A y(t+1) + B y(t) + C sin(y(t)) + D u(t)`` with
    ``A = 2 - b Ts/(m l^2)``, ``B = -1 + b Ts/(m l^2)``, ``C = g Ts^2 / l``,
    ``D = Ts^2/(m l^2)``.  Solving for ``u(t)`` after eliminating
    ``y(t+1)`` gives the analytic inverse model used as the oracle.

Global gradient bounds for the pendulum two-step map and its inverse are
computed in closed form (``lipschitz_bounds``); the numerical benchmark's
constants hold over the constraint-induced compact domain.

Random number use is via the counter-based Philox generator keyed by
(seed, stream) so dataset and online noise are independent but reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .narx import Trajectory

__all__ = [
    "NoiseSpec",
    "NumericalPlant",
    "PendulumPlant",
    "InfeasibleInput",
    "rng_stream",
    "collect_numerical_trajectories",
    "collect_pendulum_trajectories",
    "add_noise",
]

# stream tags for rng_stream
STREAM_COLLECT = 0
STREAM_DATA_NOISE = 1
STREAM_ONLINE_NOISE = 2

_BAND_GRACE = 1e-9


class InfeasibleInput(ValueError):
    """Input outside the plant's feasibility band."""


def rng_stream(seed, stream, *extra):
    """Independent reproducible counter-based generator keyed by
    (seed, stream, *extra)."""
    key = [int(seed), int(stream)] + [int(v) for v in extra]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise standard deviations for dataset collection and the
    online loop, plus the seed that keys both streams."""

    sigma_d: float = 0.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_d < 0 or self.sigma < 0:
            raise ValueError("noise standard deviations must be >= 0")


class NumericalPlant:
    """Closed-form benchmark with input band and analytic inverse."""

    order = 2
    delay = 1

    # feasible band of the log-radicand
    BAND_LO = 4.0
    BAND_HI = 16.0

    def radicand(self, state, u):
        state = np.asarray(state, dtype=float)
        return -float(state @ state) - 16.0 * math.log(u)

    def input_feasible(self, state, u):
        if u <= 0:
            return False
        rad = self.radicand(state, u)
        return self.BAND_LO - _BAND_GRACE <= rad <= self.BAND_HI + _BAND_GRACE

    def step(self, state, u):
        """Next output; raises InfeasibleInput outside the band."""
        if u <= 0:
            raise InfeasibleInput(f"non-positive input {u}")
        rad = self.radicand(state, u)
        if not (self.BAND_LO - _BAND_GRACE <= rad <= self.BAND_HI + _BAND_GRACE):
            raise InfeasibleInput(f"radicand {rad} outside [4, 16]")
        return -3.0 + math.sqrt(max(rad, 0.0))

    def advance(self, state, u):
        """(new output, successor state) for closed-loop simulation."""
        y = self.step(state, u)
        state = np.asarray(state, dtype=float)
        return y, np.array([state[1], y, u])

    def oracle(self, features):
        """Analytic inverse model; total function on R^4."""
        f = np.asarray(features, dtype=float)
        ypart = (f[..., 0] + 3.0) ** 2
        zpart = np.sum(f[..., 1:] ** 2, axis=-1)
        out = np.exp(-(ypart + zpart) / 16.0)
        return float(out) if out.ndim == 0 else out

    def sample_feasible_input(self, state, rng):
        """Draw the radicand uniformly in the band and solve for the input,
        guaranteeing feasibility without rejection."""
        z2 = float(np.asarray(state, dtype=float) @ np.asarray(state, dtype=float))
        s = rng.uniform(self.BAND_LO, self.BAND_HI)
        return math.exp(-(s + z2) / 16.0)

    def equilibrium_input(self):
        """Input holding the output at zero from the zero-output state."""
        return brentq(lambda u: u * u + 16.0 * math.log(u) + 9.0, 0.2, 0.9999,
                      xtol=1e-14)

    def state_box(self):
        """Realizable augmented-state box [-1,1]^2 x [u_lo, u_hi]: past
        inputs were feasible for some feasible predecessor state."""
        lo = math.exp(-(self.BAND_HI + 3.0) / 16.0)
        hi = math.exp(-self.BAND_LO / 16.0)
        return np.array([[-1.0, 1.0], [-1.0, 1.0], [lo, hi]])


class PendulumPlant:
    """Discrete-time inverted pendulum with a two-step input delay."""

    order = 2
    delay = 2

    def __init__(self, mass=1.0, friction=0.4, gravity=9.8, length=0.3,
                 ts=0.001):
        self.mass = mass
        self.friction = friction
        self.gravity = gravity
        self.length = length
        self.ts = ts
        ml2 = mass * length**2
        self.coef_a = 2.0 - friction * ts / ml2
        self.coef_b = -1.0 + friction * ts / ml2
        self.coef_c = gravity * ts**2 / length
        self.coef_d = ts**2 / ml2

    def free_output(self, state):
        """y(t+1); fixed by the state alone (the input acts two steps out)."""
        s = np.asarray(state, dtype=float)
        return (self.coef_a * s[1] + self.coef_b * s[0]
                + self.coef_c * math.sin(s[0]) + self.coef_d * s[2])

    def step(self, state, u):
        """Two-step-ahead output y(t+2)."""
        s = np.asarray(state, dtype=float)
        y1 = self.free_output(s)
        return (self.coef_a * y1 + self.coef_b * s[1]
                + self.coef_c * math.sin(s[1]) + self.coef_d * u)

    def advance(self, state, u):
        """(y(t+1), successor state); the applied input enters the state."""
        s = np.asarray(state, dtype=float)
        y1 = self.free_output(s)
        return y1, np.array([s[1], y1, u])

    def input_feasible(self, state, u):
        return True

    def oracle(self, features):
        """Analytic inverse of the two-step map."""
        f = np.asarray(features, dtype=float)
        y2 = f[..., 0]
        y_old, y_cur, u_old = f[..., 1], f[..., 2], f[..., 3]
        a, b, c, d = self.coef_a, self.coef_b, self.coef_c, self.coef_d
        out = (y2 - (a * a + b) * y_cur - c * np.sin(y_cur)
               - a * (b * y_old + c * np.sin(y_old) + d * u_old)) / d
        return float(out) if out.ndim == 0 else out

    def lipschitz_bounds(self):
        """(lip_f, lip_c): global gradient bounds of the two-step map and
        its inverse, from the closed-form partial derivatives with the
        sine slope ranging over [-1, 1]."""
        a, b, c, d = self.coef_a, self.coef_b, self.coef_c, abs(self.coef_d)

        def over(lo_term, spread):
            return max(abs(lo_term - spread), abs(lo_term + spread))

        dy_cur = over(a * a + b, c)          # d/dy(t) of the two-step map
        dy_old = abs(a) * over(b, c)         # d/dy(t-1)
        lip_f = float(np.linalg.norm([dy_old, dy_cur, abs(a) * d, d]))
        g_c = np.array([1.0, dy_cur, dy_old, abs(a) * d]) / d
        lip_c = float(np.linalg.norm(g_c))
        return lip_f, lip_c


def collect_numerical_trajectories(seed=0, grid_outputs=7, grid_inputs=4,
                                   inputs_per_cell=10):
    """One-step experiments on the initial-condition grid.

    Initial states tie the two past outputs on a uniform output grid and take
    the past input from a uniform grid over [0, 1]; each cell gets
    ``inputs_per_cell`` independent feasible random inputs, one experiment
    each (so 7 * 4 * 10 = 280 windows in the default configuration).
    """
    plant = NumericalPlant()
    rng = rng_stream(seed, STREAM_COLLECT)
    trajs = []
    for g in np.linspace(-1.0, 1.0, grid_outputs):
        for ug in np.linspace(0.0, 1.0, grid_inputs):
            state0 = np.array([g, g, ug])
            for _ in range(inputs_per_cell):
                u0 = plant.sample_feasible_input(state0, rng)
                y1 = plant.step(state0, u0)
                trajs.append(Trajectory(inputs=np.array([ug, u0]),
                                        outputs=np.array([g, g, y1])))
    return trajs


PI_GAIN_TRIPLES = ((20.0, 0.01, 0.22), (20.0, 0.01, -0.22),
                   (15.0, 0.01, 0.18), (15.0, 0.01, -0.18),
                   (12.5, 0.01, 0.16), (12.5, 0.01, -0.16))


def pi_trajectory(plant: PendulumPlant, kp, ki, amplitude, horizon=200):
    """Closed-loop trajectory under a proportional-integral law from the
    initial state [a; a; 0].

    The integral state starts at zero and accumulates ``Ts * e`` from the
    second sample on, so the first applied input is the pure proportional
    term.  The file horizon counts the initial resting input, so the PI law
    runs horizon-1 steps.
    """
    T = horizon
    u = np.zeros(T)
    y = np.zeros(T + 1)
    y[0] = y[1] = amplitude
    integral = 0.0
    for t in range(T - 1):
        err = y[t + 1]
        if t > 0:
            integral += plant.ts * err
        u[t + 1] = -kp * err - ki * integral
        y[t + 2] = plant.free_output(np.array([y[t], y[t + 1], u[t]]))
    return Trajectory(inputs=u, outputs=y)


def collect_pendulum_trajectories(horizon=200):
    """Six deterministic expert-mimicking trajectories (three PI gain pairs,
    two symmetric initial amplitudes each)."""
    plant = PendulumPlant()
    return [pi_trajectory(plant, kp, ki, a, horizon) for kp, ki, a in PI_GAIN_TRIPLES]


def add_noise(traj: Trajectory, spec: NoiseSpec, stream_offset=0) -> Trajectory:
    """Attach noisy outputs: seeded zero-mean Gaussian of std ``sigma_d``
    on every output sample; inputs untouched.  ``stream_offset``
    distinguishes trajectories within one collection."""
    rng = rng_stream(spec.seed, STREAM_DATA_NOISE + 10 * stream_offset)
    noisy = traj.outputs + rng.normal(0.0, spec.sigma_d, size=traj.outputs.shape)
    return Trajectory(inputs=traj.inputs.copy(), outputs=traj.outputs.copy(),
                      noisy_outputs=noisy)
