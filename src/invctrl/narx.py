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
the state with the recorded next output and the applied input.  Exact
duplicate features are dropped (bitwise equality; no tolerance), keeping the
first occurrence.
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
    "build_dataset",
    "merge_datasets",
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


def _dedup_rows(features):
    """Indices of first occurrences of bitwise-distinct feature rows,
    in original order."""
    first = {}
    for i, row in enumerate(features):
        first.setdefault(row.tobytes(), i)
    return np.array(list(first.values()), dtype=int)


def build_dataset(traj: Trajectory, order: int, delay: int = 1,
                  noisy: bool = False) -> NarxDataset:
    """Window a trajectory into inverse-model training records.

    With ``noisy=True`` the records are built from ``traj.noisy_outputs``
    (inputs are always exact).
    """
    n = int(order)
    if delay not in (1, 2):
        raise ValueError("delay must be 1 or 2")
    T = traj.horizon
    min_T = n if delay == 1 else n + 1
    if T < min_T:
        raise ValueError(f"trajectory too short: horizon {T} < {min_T}")
    if noisy:
        if traj.noisy_outputs is None:
            raise ValueError("trajectory has no noisy outputs")
        y = traj.noisy_outputs
    else:
        y = traj.outputs
    u = traj.inputs

    N = T - n + 1 if delay == 1 else T - n
    feats, states, targets, controls, succs = [], [], [], [], []
    for i in range(1, N + 1):
        t = i + n - 2  # decision-time index into the file arrays
        state = np.concatenate([y[i - 1:i + n - 1], u[i - 1:i + n - 2]])
        y_next = y[t + 1]
        target = y_next if delay == 1 else y[t + 2]
        states.append(state)
        targets.append(target)
        controls.append(u[t])
        feats.append(np.concatenate([[target], state]))
        succs.append(shift_state(state, y_next, u[t]))
    feats = np.array(feats)
    keep = _dedup_rows(feats)
    return NarxDataset(
        order=n,
        delay=delay,
        features=feats[keep],
        states=np.array(states)[keep],
        targets=np.array(targets)[keep],
        controls=np.array(controls)[keep],
        succ_states=np.array(succs)[keep],
    )


def merge_datasets(datasets) -> NarxDataset:
    """Concatenate datasets sharing (order, delay), deduplicating features
    globally (first occurrence wins)."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("nothing to merge")
    first = datasets[0]
    for d in datasets[1:]:
        if d.order != first.order or d.delay != first.delay:
            raise ValueError("datasets disagree on order or delay")
    feats = np.concatenate([d.features for d in datasets])
    keep = _dedup_rows(feats)
    return NarxDataset(
        order=first.order,
        delay=first.delay,
        features=feats[keep],
        states=np.concatenate([d.states for d in datasets])[keep],
        targets=np.concatenate([d.targets for d in datasets])[keep],
        controls=np.concatenate([d.controls for d in datasets])[keep],
        succ_states=np.concatenate([d.succ_states for d in datasets])[keep],
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
