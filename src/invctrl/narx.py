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

Trajectory files are read the same way: ``read_trajectories`` reads each
file whole, splits the rows of all of them in one pass and converts each
column with one call across all files, bitwise equal to ``float()`` of each
cell; a per-cell scan runs only when that conversion fails, to name the line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional

import numpy as np

__all__ = [
    "Trajectory",
    "NarxDataset",
    "shift_state",
    "TrajectoryError",
    "build_dataset",
    "read_trajectories",
    "read_trajectory",
    "write_trajectory",
]

FLOAT_FMT = ".17g"
_HEADERS = {b"t,u,y": 3, b"t,u,y,y_noisy": 4}  # header -> fields per row


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


def _cells(line):
    """The fields of one raw row, as ``csv`` would show them in a message."""
    return line.decode(errors="replace").split(",") if line else []


def parse_floats(cells):
    """``cells`` (bytes) as one float array, converted in one call, and the
    position of the first cell that is not a finite number (or None).  Only
    when the bulk conversion fails does a per-cell ``float()`` scan run, with
    NaN standing for each cell it rejects."""
    try:
        vals = np.array(cells, dtype=float)
    except ValueError:
        vals = np.array([_float_or_nan(c) for c in cells], dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    return vals, (int(bad[0]) if bad.size else None)


def _float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


def read_trajectories(paths) -> List[Trajectory]:
    """Read the ``write_trajectory`` files ``paths`` in one bulk pass.

    Each file is read whole; the rows of all files are split into cells
    together, and each column (u, y, y_noisy) is converted to floats in one
    call across all files, bitwise equal to ``float()`` of each cell.  Each
    file must have a ``t,u,y`` or ``t,u,y,y_noisy`` header, at least one row,
    exactly the header's field count in every row, finite numbers, and an
    input in every row but the last, whose input is empty.  The first fault
    in file and line order raises ``ConfigError``: a bad row at ``path:line``,
    a wrong input count at ``path``.  The trajectories are views of the
    column arrays.
    """
    from .config import ConfigError  # config imports this module through plants
    paths = list(paths)
    rows, widths, sizes, faults = [], [], [], []
    for k, path in enumerate(paths):
        with open(path, "rb", buffering=0) as fh:
            lines = fh.read().splitlines()
        head = lines[0] if lines else b""
        if head not in _HEADERS:
            faults.append((k, 1, f"{path}:1: unexpected trajectory header {_cells(head)}"))
            break
        rows += lines[1:]
        widths.append(_HEADERS[head])
        sizes.append(len(lines) - 1)
    sizes = np.array(sizes, dtype=int)
    first = np.cumsum(sizes) - sizes                  # each file's first row
    file_of = np.repeat(np.arange(len(sizes)), sizes)
    width = np.repeat(np.array(widths, dtype=int), sizes)

    def bad_row(r):
        k, line = int(file_of[r]), int(r - first[file_of[r]]) + 2
        return k, line, f"{paths[k]}:{line}: bad trajectory row {_cells(rows[r])}"

    # rows up to the first with a wrong field count split into cells in one pass
    seps = np.array(list(map(bytes.count, rows, repeat(b","))), dtype=int)
    wrong = np.flatnonzero(seps != width - 1)
    n = int(wrong[0]) if wrong.size else len(rows)
    if wrong.size:
        faults.append(bad_row(n))
    cells = b",".join(rows[:n]).split(b",") if n else []
    start = np.cumsum(width[:n]) - width[:n]
    noisy = width[:n] == 4
    ucells = [cells[i] for i in (start + 1).tolist()]
    has_u = np.array(list(map(len, ucells)), dtype=bool)
    y, bad_y = parse_floats([cells[i] for i in (start + 2).tolist()])
    yn, bad_n = parse_floats([cells[i] for i in (start[noisy] + 3).tolist()])
    u, bad_u = parse_floats([c for c, h in zip(ucells, has_u) if h])
    for bad, at in ((bad_y, np.arange(n)), (bad_n, np.flatnonzero(noisy)),
                    (bad_u, np.flatnonzero(has_u))):
        if bad is not None:
            faults.append(bad_row(at[bad]))
    # each complete file has an input in every row but the last
    done = first + sizes <= n
    inputs = np.bincount(file_of[:n], weights=has_u, minlength=len(sizes)).astype(int)
    for k in np.flatnonzero(done & (inputs != sizes - 1)):
        faults.append((k, math.inf, f"{paths[k]}: no trajectory rows" if sizes[k] == 0 else
                       f"{paths[k]}: {sizes[k]} outputs need {sizes[k] - 1} inputs, "
                       f"not {inputs[k]}"))
    counted = done & (inputs == sizes - 1)
    misplaced = np.flatnonzero(~has_u & counted[file_of[:n]])
    misplaced = misplaced[misplaced != (first + sizes - 1)[file_of[misplaced]]]
    if misplaced.size:
        faults.append(bad_row(misplaced[0]))
    if faults:
        raise ConfigError(min(faults)[2])

    # file k: outputs from row a, inputs from a - k (one fewer per file), noisy from b
    noisy_rows = np.where(np.array(widths) == 4, sizes, 0)
    spans = zip(first.tolist(), (np.cumsum(noisy_rows) - noisy_rows).tolist(),
                sizes.tolist(), widths)
    return [Trajectory(inputs=u[a - k:a - k + s - 1], outputs=y[a:a + s],
                       noisy_outputs=yn[b:b + s] if w == 4 else None)
            for k, (a, b, s, w) in enumerate(spans)]


def read_trajectory(path) -> Trajectory:
    """Read one ``write_trajectory`` file (see ``read_trajectories``)."""
    return read_trajectories([path])[0]
