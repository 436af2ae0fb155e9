"""Backward-reachable level families stored as radius tables.

For an accuracy ``delta`` the output slab is the set of augmented states
whose most recent output has magnitude at most ``delta``.  Level 0 collects,
for each data record whose successor state lies strictly inside the slab,
the ball around the successor with the slab inradius.  Level j+1 collects,
for each record whose successor lies inside the level-j union with positive
inradius ``r``, the ball around the record's *state* with the certified
radius ``state_dev_inv(r)``: from anywhere in that ball, replaying the
record's target provably lands the successor inside level j.

Inradius of a point in a ball union is NP-hard to compute exactly, so the
single-ball underestimate ``max_k (radius_k - dist(p, center_k))`` is used
throughout; every certificate built on it stays sound.  Entries with
inradius below 1e-12 are dropped (zero-measure certificates).

Each level step is the max-plus product ``r_new[i] = max_k (radii[k] -
D[i, k])`` over a distance table fixed for the build; ``ABSENT`` radii are
neutral.  ``pairwise_distances`` keeps, per row, the ``NEAR_K`` nearest
columns and ``beyond``, the smallest distance to any other column.
``max_plus`` takes ``best`` over the nearest columns, then scans in full,
``SCAN_ROWS`` rows at a time, only rows with ``max(radii) - beyond > best``.
This is exact: any other column has ``D[i, k] >= beyond`` and ``radii[k] <=
max(radii)``, and rounded subtraction is monotone, so ``radii[k] - D[i, k]
<= best``; the result is bit-identical to the product over all columns.

A family is two float64 tables indexed ``[level, record]``: ``inradius``
and ``cert_radius``, with ``ABSENT`` (-inf) where a record has no ball at
that level.  Rows stop at the first empty level, so every stored row holds
at least one ball.  Balls are reconstructed on demand from the dataset;
membership queries are vectorized scans over a row.  The tables are
persisted as one raw ``.npy`` array of shape ``(2, levels, records)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .config import ConfigError
from .narx import NarxDataset

__all__ = [
    "ABSENT",
    "LevelFamily",
    "index_set_slab",
    "build_level_family",
    "max_plus",
    "nearest_table",
    "pairwise_distances",
    "check_nesting",
    "dump_family",
    "load_family",
]

MIN_INRADIUS = 1e-12
ABSENT = -np.inf
NEAR_K = 32       # nearest columns kept per row of a distance table
SCAN_ROWS = 64    # rows per block of the full scan in ``max_plus``


@dataclass
class LevelFamily:
    """Levels 0..depth for one accuracy value.

    ``inradius`` and ``cert_radius`` have shape (stored levels, records),
    ``ABSENT`` where a record has no ball.  Level 0 balls: (successor
    state, inradius).  Level j >= 1 balls: (record state, certified
    radius).  Levels past the stored rows are empty.
    """

    delta: float
    depth: int
    inradius: np.ndarray
    cert_radius: np.ndarray
    dataset: NarxDataset

    @property
    def truncated_at(self):
        """First empty level when construction stopped early, else None."""
        rows = len(self.inradius)
        return None if rows == self.depth + 1 else rows

    def present(self, level):
        """Record indices with a ball at ``level``, ascending."""
        if level >= len(self.inradius):
            return np.zeros(0, dtype=int)
        return np.flatnonzero(self.inradius[level] != ABSENT)

    def sizes(self):
        """Ball count per level 0..depth."""
        return [len(self.present(j)) for j in range(self.depth + 1)]

    def centers_radii(self, level):
        """Ball centers and radii realizing level ``level``."""
        idx = self.present(level)
        if level == 0:
            centers, table = self.dataset.succ_states, self.inradius
        else:
            centers, table = self.dataset.states, self.cert_radius
        return centers[idx], (table[level, idx] if idx.size else np.zeros(0))

    def contains(self, level, point):
        """Closed-ball membership of ``point`` in the level's union."""
        if not 0 <= level <= self.depth:
            raise IndexError(f"level {level} outside 0..{self.depth}")
        centers, radii = self.centers_radii(level)
        d = np.linalg.norm(centers - np.asarray(point, dtype=float), axis=1)
        return bool((d <= radii).any())


def _inradius_row(inradii):
    return np.where(inradii > MIN_INRADIUS, inradii, ABSENT)


def index_set_slab(dataset: NarxDataset, delta):
    """Level-0 inradius row: each record's successor inradius in the
    output slab, ``ABSENT`` unless strictly inside."""
    return _inradius_row(delta - np.abs(dataset.succ_states[:, dataset.order - 1]))


def nearest_table(dist):
    """``(dist, near, near_dist, beyond)``: per row of ``dist``, partitioned
    once, the indices and distances of the ``NEAR_K`` nearest columns (all
    if no more) and the smallest distance to any other column."""
    n, m = dist.shape
    if m <= NEAR_K:
        return dist, np.broadcast_to(np.arange(m), (n, m)), dist, np.full(n, np.inf)
    # a copy, so that the full N x M index array is not kept alive
    part = np.argpartition(dist, NEAR_K, axis=1)[:, :NEAR_K + 1].copy()
    part_dist = np.take_along_axis(dist, part, axis=1)
    return dist, part[:, :NEAR_K], part_dist[:, :NEAR_K], part_dist[:, NEAR_K]


def max_plus(radii, table):
    """``max_k (radii[k] - dist[i, k])`` per row ``i`` of a ``nearest_table``,
    exactly (see the module docstring): on point-to-center distances, each
    point's single-ball inradius underestimate in the union of the balls."""
    dist, near, near_dist, beyond = table
    best = (radii[near] - near_dist).max(axis=1)
    rows = np.flatnonzero(radii.max() - beyond > best)
    buf = np.empty((min(SCAN_ROWS, len(rows)), len(radii)))
    for start in range(0, len(rows), SCAN_ROWS):
        block = rows[start:start + SCAN_ROWS]
        out = buf[:len(block)]
        # rows are valid indices; "clip" skips the buffered copy of "raise"
        np.take(dist, block, axis=0, out=out, mode="clip")
        np.subtract(radii, out, out=out)
        best[block] = out.max(axis=1)
    return best


def build_level_family(dataset: NarxDataset, bounds, delta, depth,
                       _dists=None) -> LevelFamily:
    """Construct levels 0..depth; stops early once a level comes out empty
    (an empty family is a valid, reported outcome).

    ``_dists`` optionally carries ``pairwise_distances(dataset)`` so that a
    batch build over several accuracies shares it.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ss, sz = pairwise_distances(dataset) if _dists is None else _dists
    rows_r, rows_c = [], []
    r = index_set_slab(dataset, delta)
    while True:
        idx = np.flatnonzero(r != ABSENT)
        if idx.size == 0:
            break
        c = np.full_like(r, ABSENT)
        c[idx] = bounds.state_dev_inv(r[idx])
        rows_r.append(r)
        rows_c.append(c)
        if len(rows_r) == depth + 1:
            break
        r = _inradius_row(max_plus(r, ss) if len(rows_r) == 1 else max_plus(c, sz))
    shape = (len(rows_r), len(dataset))
    return LevelFamily(delta=float(delta), depth=int(depth),
                       inradius=np.array(rows_r).reshape(shape),
                       cert_radius=np.array(rows_c).reshape(shape),
                       dataset=dataset)


def pairwise_distances(dataset: NarxDataset):
    """(successor-to-successor, successor-to-state) nearest tables, shared
    across family builds over one dataset."""
    return (nearest_table(cdist(dataset.succ_states, dataset.succ_states)),
            nearest_table(cdist(dataset.succ_states, dataset.states)))


def check_nesting(family: LevelFamily) -> bool:
    """Sufficient single-ball test that every level-0 ball lies inside some
    level-1 ball.  True certifies the nesting needed for indefinite
    regulation; False is inconclusive and only reported."""
    c0, r0 = family.centers_radii(0)
    c1, r1 = family.centers_radii(1)
    if len(r0) == 0:
        return True
    if len(r1) == 0:
        return False
    d = cdist(c0, c1)
    return bool(((d + r0[:, None]) <= r1[None, :]).any(axis=1).all())


def dump_family(path, family: LevelFamily):
    """Both radius tables as one raw ``.npy`` array (2, levels, records);
    the bytes depend on the table values only."""
    with open(path, "wb") as fh:
        np.save(fh, np.stack([family.inradius, family.cert_radius]))


def load_family(path, dataset: NarxDataset, delta, depth) -> LevelFamily:
    """Rebuild a family from its dump and the dataset and config it was
    built under; a table of another shape raises ``ConfigError``."""
    try:
        tables = np.load(path)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: not a radius table dump ({exc})") from None
    if (tables.dtype != np.float64 or tables.ndim != 3 or tables.shape[0] != 2
            or tables.shape[1] > depth + 1 or tables.shape[2] != len(dataset)):
        raise ConfigError(
            f"{path}: radius tables of shape {tables.shape} ({tables.dtype}) do "
            f"not fit {len(dataset)} records and depth {depth}; rebuild the families")
    return LevelFamily(delta=float(delta), depth=int(depth), inradius=tables[0],
                       cert_radius=tables[1], dataset=dataset)
