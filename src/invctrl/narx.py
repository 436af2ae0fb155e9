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

A study's trajectories live in one table, ``write_trajectories`` writes it
and ``read_trajectories`` reads it the same way: the whole file at once, every
row split in one pass and each column converted with one call, bitwise equal
to ``float()`` of each cell; a per-cell scan runs only when that conversion
fails, to name the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

__all__ = [
    "Trajectory",
    "NarxDataset",
    "shift_state",
    "TrajectoryError",
    "build_dataset",
    "read_trajectories",
    "write_trajectories",
]

FLOAT_FMT = ".17g"
TABLE_HEADER = "traj,t,u,y"


@dataclass
class Trajectory:
    """Input/output record of one experiment.

    ``inputs`` has length T, ``outputs`` length T+1 (one more output than
    inputs); the outputs are as measured, with noise in a noisy study.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
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


def build_dataset(trajs, order: int, delay: int = 1) -> NarxDataset:
    """Window one trajectory, or a sequence of them, into inverse-model
    training records, keeping the first of each bitwise-distinct feature row.

    A trajectory too short for one record raises ``TrajectoryError``.
    """
    if isinstance(trajs, Trajectory):
        trajs = [trajs]
    n = int(order)
    if delay not in (1, 2):
        raise ValueError("delay must be 1 or 2")
    if not trajs:
        raise ValueError("no trajectories to window")
    min_T = n if delay == 1 else n + 1
    for k, traj in enumerate(trajs):
        if traj.horizon < min_T:
            raise TrajectoryError(k, f"trajectory too short: horizon {traj.horizon} < {min_T}")
    yu = np.concatenate([traj.outputs for traj in trajs] + [traj.inputs for traj in trajs])
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


def write_trajectories(path, trajs, meta):
    """Write ``trajs`` as one table: a ``# key=value`` comment holding
    ``meta`` in order and then ``count``, a ``traj,t,u,y`` header, and the
    rows of every trajectory in order, with the input cell empty on each
    trajectory's last row."""
    pairs = [f"{key}={val}" for key, val in {**meta, "count": len(trajs)}.items()]
    lines = ["# " + " ".join(pairs), TABLE_HEADER]
    for k, traj in enumerate(trajs):
        cells = [[format(v, FLOAT_FMT) for v in col] for col in (traj.inputs, traj.outputs)]
        cells[0].append("")
        lines += map(",".join, zip(repeat(str(k)), map(str, range(len(traj.outputs))), *cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def read_trajectories(path):
    """``(meta, trajectories)`` of a ``write_trajectories`` table, read in one
    bulk pass: every row split into cells once, each column converted to
    floats in one call, bitwise equal to ``float()`` of each cell.

    Line 1 must be a ``# key=value ...`` comment whose ``count`` is the number
    of trajectories, line 2 a ``traj,t,u,y`` header, and rows must follow,
    each with four fields and finite numbers; ``traj`` counts 0, 1, ... in
    contiguous blocks, ``t`` runs 0, 1, ... within each, and every row but a
    block's last has an input.  A fault raises
    ``ConfigError`` naming ``path:line``, the first in line order.  ``meta``
    maps each comment key to its text; the trajectories are views of the
    column arrays.
    """
    from .config import ConfigError  # config imports this module through plants
    with open(path, "rb", buffering=0) as fh:
        lines = fh.read().splitlines()
    (comment, head), rows = (lines + [b"", b""])[:2], lines[2:]
    text = comment.decode(errors="replace")
    tokens = text.split()
    if tokens[:1] != ["#"] or not all("=" in tok for tok in tokens[1:]):
        raise ConfigError(f"{path}:1: not a trajectory table comment {text!r}")
    meta = dict(tok.partition("=")[::2] for tok in tokens[1:])
    if head.decode(errors="replace") != TABLE_HEADER:
        raise ConfigError(f"{path}:2: unexpected trajectory header {_cells(head)}")
    if not rows:
        raise ConfigError(f"{path}:3: no trajectory rows")

    # rows up to the first with a wrong field count split into cells in one pass
    seps = np.array(list(map(bytes.count, rows, repeat(b","))), dtype=int)
    wrong = np.flatnonzero(seps != 3)
    n = int(wrong[0]) if wrong.size else len(rows)
    cells = b",".join(rows[:n]).split(b",") if n else []
    k, t = (parse_floats(cells[c::4])[0] for c in (0, 1))
    has_u = np.array(list(map(len, cells[2::4])), dtype=bool)
    u, bad_u = parse_floats(list(compress(cells[2::4], has_u)))
    y, bad_y = parse_floats(cells[3::4])
    # a block starts at t = 0; each row's traj is its block's number and its
    # t the rows since the block's start
    new, at = t == 0, np.arange(n)
    in_seq = (k == np.cumsum(new) - 1) & (t == at - np.maximum.accumulate(np.where(new, at, 0)))
    # a row ends its block when the next row, if in sequence, starts one
    last, next_ok = np.r_[new[1:], True], np.r_[in_seq[1:], n == len(rows)]
    faults = wrong[:1].tolist() + ([bad_y] if bad_y is not None else [])
    faults += np.flatnonzero(~in_seq | ((has_u == last) & next_ok))[:1].tolist()
    if bad_u is not None:
        faults.append(int(np.flatnonzero(has_u)[bad_u]))
    if faults:
        r = min(faults)
        raise ConfigError(f"{path}:{r + 3}: bad trajectory row {_cells(rows[r])}")

    # block j: outputs from row a to b, inputs from a - j (one fewer per block)
    starts = np.flatnonzero(new).tolist() + [n]
    trajs = [Trajectory(inputs=u[a - j:b - j - 1], outputs=y[a:b])
             for j, (a, b) in enumerate(zip(starts, starts[1:]))]
    if meta.get("count") != str(len(trajs)):
        raise ConfigError(f"{path}:1: count={meta.get('count')} in the comment, "
                          f"{len(trajs)} trajectories in the table")
    return meta, trajs
