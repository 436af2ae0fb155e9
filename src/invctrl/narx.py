"""Trajectory containers and inverse-model training datasets.

A NARX system of order ``n`` maps the augmented state
``state = [y(t-n+1..t); u(t-n+1..t-1)]`` (dimension ``2n-1``) and the input
``u(t)`` to the next output.  Training data for the inverse model pairs the
regression feature ``x = [target; state]`` with the input that produced the
target, where ``target`` is the output ``delay`` steps ahead:

* ``delay=1``: target is ``y(t+1)``, one record per window, ``N = T - n + 1``.
* ``delay=2``: target is ``y(t+2)`` (input affects the output two steps
  ahead), ``N = T - n``.

Each record also stores the one-step successor state, obtained by shifting
the state with the recorded next output and the applied input.

All trajectories are windowed at once, by index arithmetic on their
concatenated outputs and inputs, so the number of NumPy calls does not grow
with the records or trajectories.  Exact duplicate features are dropped in
one global pass (bitwise equality, so ``-0.0`` and ``0.0`` differ; no
tolerance), keeping the first occurrence in trajectory order, then time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Trajectory",
    "NarxDataset",
    "shift_state",
    "TrajectoryError",
    "build_dataset",
    "read_trajectory",
    "write_trajectory",
]

FLOAT_FMT = ".17g"


@dataclass
class Trajectory:
    """Input/output record of one experiment.

    ``inputs`` has length T, ``outputs`` length T+1 (one more output than
    inputs).  ``noisy_outputs``, when present, is a measurement-corrupted
    copy of ``outputs``.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    noisy_outputs: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.noisy_outputs is not None:
            self.noisy_outputs = np.asarray(self.noisy_outputs, dtype=float)
            if self.noisy_outputs.shape != self.outputs.shape:
                raise ValueError("noisy_outputs must match outputs in length")
        if len(self.outputs) != len(self.inputs) + 1:
            raise ValueError(
                f"need len(outputs) == len(inputs)+1, got {len(self.outputs)} "
                f"vs {len(self.inputs)}"
            )

    @property
    def horizon(self):
        return len(self.inputs)


def shift_state(state, y_next, u_now):
    """One-step state update: drop the oldest output and oldest input,
    append ``y_next`` and ``u_now``.

    For order n the layout is ``[y(t-n+1..t); u(t-n+1..t-1)]``; the result is
    ``[y(t-n+2..t+1); u(t-n+2..t)]``.
    """
    state = np.asarray(state, dtype=float)
    if state.ndim != 1 or state.shape[0] % 2 == 0:
        raise ValueError("state must be a 1-d vector of odd dimension (2n-1)")
    n = (state.shape[0] + 1) // 2
    if n == 1:
        return np.array([y_next], dtype=float)
    ys = state[:n]
    us = state[n:]
    return np.concatenate([ys[1:], [y_next], us[1:], [u_now]])


@dataclass
class NarxDataset:
    """Inverse-model training records for one (order, delay) pair.

    Arrays are row-aligned: ``features[i] = [targets[i]; states[i]]`` exactly,
    ``controls[i]`` is the input applied at the window's decision time, and
    ``succ_states[i]`` is the one-step successor of ``states[i]``.
    """

    order: int
    delay: int
    features: np.ndarray      # (N, 2n)
    states: np.ndarray        # (N, 2n-1)
    targets: np.ndarray       # (N,)
    controls: np.ndarray      # (N,)
    succ_states: np.ndarray   # (N, 2n-1)

    def __post_init__(self):
        if self.delay not in (1, 2):
            raise ValueError("delay must be 1 or 2")
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.succ_states = np.atleast_2d(np.asarray(self.succ_states, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float)
        self.controls = np.asarray(self.controls, dtype=float)

    def __len__(self):
        return self.features.shape[0]

    @property
    def feature_dim(self):
        return 2 * self.order


class TrajectoryError(ValueError):
    """A trajectory, at position ``index`` of the input, yielding no records."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def build_dataset(trajs, order: int, delay: int = 1,
                  noisy: bool = False) -> NarxDataset:
    """Window one trajectory, or a sequence of them, into inverse-model
    training records, keeping the first of each bitwise-distinct feature row.

    With ``noisy=True`` the records are built from ``noisy_outputs``
    (inputs are always exact).  A trajectory too short for one record, or
    without the noisy outputs asked for, raises ``TrajectoryError``.
    """
    if isinstance(trajs, Trajectory):
        trajs = [trajs]
    n = int(order)
    if delay not in (1, 2):
        raise ValueError("delay must be 1 or 2")
    if not trajs:
        raise ValueError("no trajectories to window")
    min_T = n if delay == 1 else n + 1
    ys = []
    for k, traj in enumerate(trajs):
        if traj.horizon < min_T:
            raise TrajectoryError(k, f"trajectory too short: horizon {traj.horizon} < {min_T}")
        if noisy and traj.noisy_outputs is None:
            raise TrajectoryError(k, "trajectory has no noisy outputs")
        ys.append(traj.noisy_outputs if noisy else traj.outputs)
    yu = np.concatenate(ys + [traj.inputs for traj in trajs])
    horizons = np.array([traj.horizon for traj in trajs])
    counts = horizons - min_T + 1
    # decision time t of each record, n-1 .. n-2+N in its own trajectory,
    # as an index of y(t) and of u(t) into ``yu`` (outputs, then inputs)
    t = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + (n - 1)
    t_y = t + np.repeat(np.cumsum(horizons + 1) - horizons - 1, counts)
    t_u = t + np.repeat((horizons + 1).sum() + np.cumsum(horizons) - horizons, counts)
    lags = np.arange(1 - n, 1)
    # [target; y(t-n+1..t); u(t-n+1..t-1)]; a successor index is its state index + 1
    idx = np.hstack([(t_y + delay)[:, None], t_y[:, None] + lags, t_u[:, None] + lags[:-1]])
    feats = yu[idx]
    rows = feats.view(np.dtype((np.void, feats.itemsize * feats.shape[1]))).ravel()
    keep = np.sort(np.unique(rows, return_index=True)[1])
    idx = idx[keep]
    return NarxDataset(
        order=n,
        delay=delay,
        features=feats[keep],
        states=yu[idx[:, 1:]],
        targets=yu[idx[:, 0]],
        controls=yu[t_u[keep]],
        succ_states=yu[idx[:, 1:] + 1],
    )


def write_trajectory(path, traj: Trajectory):
    """Write ``t,u,y[,y_noisy]`` rows; the input column is empty at t = T."""
    noisy = traj.noisy_outputs is not None
    header = ["t", "u", "y"] + (["y_noisy"] if noisy else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(len(traj.outputs)):
            u_cell = format(traj.inputs[t], FLOAT_FMT) if t < traj.horizon else ""
            row = [str(t), u_cell, format(traj.outputs[t], FLOAT_FMT)]
            if noisy:
                row.append(format(traj.noisy_outputs[t], FLOAT_FMT))
            w.writerow(row)


def read_trajectory(path) -> Trajectory:
    """Read ``write_trajectory`` rows; a bad line raises ``ConfigError`` at path:line."""
    from .config import ConfigError  # config imports this module through plants
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[:3] != ["t", "u", "y"]:
            raise ConfigError(f"{path}:1: unexpected trajectory header {header}")
        noisy = len(header) > 3 and header[3] == "y_noisy"
        us, ys, yn = [], [], []
        for row in r:
            try:
                if row[1] != "":
                    us.append(float(row[1]))
                ys.append(float(row[2]))
                if noisy:
                    yn.append(float(row[3]))
            except (IndexError, ValueError):
                raise ConfigError(f"{path}:{r.line_num}: bad trajectory row {row}") from None
    if len(us) != len(ys) - 1:  # only the last row leaves its input empty
        raise ConfigError(f"{path}: {len(ys)} outputs need {len(ys) - 1} inputs, not {len(us)}")
    return Trajectory(
        inputs=np.array(us),
        outputs=np.array(ys),
        noisy_outputs=np.array(yn) if noisy else None,
    )
