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
inradius at or below ``MIN_INRADIUS`` = 1e-12 are dropped (zero-measure
certificates).

Each level step is the inradius row of the max-plus product ``r_new[i] =
max_k (radii[k] - D[i, k])`` over a distance table fixed for the build (the
product where above ``MIN_INRADIUS``, else ``ABSENT``; ``ABSENT`` radii are
neutral).  ``pairwise_distances`` keeps, per row, the ``NEAR_K`` nearest
columns, row-major as ``(rows, NEAR_K)`` index and distance arrays that
``max_plus`` gathers with one flat ``take`` and reduces by an ``argmax``
along each contiguous row, and ``beyond``, the smallest distance to any
other column.  ``max_plus`` takes ``best`` over the nearest
columns, then scans in full, ``SCAN_ROWS`` rows at a time, only rows with
``max(radii) - beyond > max(best, MIN_INRADIUS)``.  This is exact: any
other column has ``D[i, k] >= beyond`` and ``radii[k] <= max(radii)``, and
rounded subtraction is monotone, so on a skipped row ``radii[k] - D[i, k]
<= max(best, MIN_INRADIUS)``: the product is ``best`` if that exceeds the
floor, else at most the floor, and the row is ``ABSENT`` either way.  Every
inradius row is bit-identical to the one from the product over all columns.

``max_plus`` also returns, per row, a column attaining the product (its
*witness*): the argmax over the nearest columns, or over the scanned row.
The product is read at the witness, so it is the maximum bit for bit.

A family is one float64 table ``radius[level, record]``, ``ABSENT`` (-inf)
where a record has no ball at that level: slab inradii at level 0, certified
radii above.  Rows stop at the first empty level.  Balls are reconstructed on
demand from the dataset; ball-union queries read ``margin`` over a radius row.
Beside it, ``verify`` reads a witness table ``witness[level - 1, record]`` for
levels >= 1: the level-(j-1) ball ``k`` whose ``radius[j - 1, k] - dist(succ,
center_k)`` is the record's successor inradius, stored in the smallest unsigned
integer type that holds ``records - 1``.  ``successor_inradii`` re-derives the
inradii from it, bit for bit those of the build.  Each table is one raw ``.npy``
file.

A derived inradius is one ``cdist`` distance, within a few ulps of ``d``, and
one subtraction, so ``R_k - d`` lies within a few ulps of ``R_k + d`` of the
real inradius.  ``state_dev_inv`` inverts from below, so ``state_dev(radius) <=
inradius`` holds exactly on the derived value, and the recursion property holds
on the real balls up to that rounding.
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
    "margin",
    "index_set_slab",
    "build_level_family",
    "max_plus",
    "nearest_table",
    "pairwise_distances",
    "check_nesting",
    "dump_family",
    "load_family",
    "load_witness",
    "paired_distances",
    "successor_inradii",
]

MIN_INRADIUS = 1e-12
ABSENT = -np.inf
NEAR_K = 32       # nearest columns kept per row of a distance table
SCAN_ROWS = 64    # rows per block of the full scan in ``max_plus``


@dataclass
class LevelFamily:
    """Levels 0..depth for one accuracy value: ``radius`` is (stored levels,
    records), slab inradii of balls at successors in row 0, certified radii
    of balls at states above; later levels are empty."""

    delta: float
    depth: int
    radius: np.ndarray
    dataset: NarxDataset

    @property
    def truncated_at(self):
        """First empty level when construction stopped early, else None."""
        rows = len(self.radius)
        return None if rows == self.depth + 1 else rows

    def present(self, level):
        """Record indices with a ball at ``level``, ascending."""
        if level >= len(self.radius):
            return np.zeros(0, dtype=int)
        return np.flatnonzero(self.radius[level] != ABSENT)

    def sizes(self):
        """Ball count per level 0..depth."""
        counts = np.count_nonzero(self.radius != ABSENT, axis=1)
        return np.pad(counts, (0, self.depth + 1 - len(counts))).tolist()

    def centers(self, level):
        """Every record's ball center at ``level``: its successor at 0, else its state."""
        return self.dataset.succ_states if level == 0 else self.dataset.states

    def centers_radii(self, level):
        """Ball centers and radii realizing level ``level``."""
        idx = self.present(level)
        return self.centers(level)[idx], (self.radius[level, idx] if idx.size else np.zeros(0))

    def margin(self, level, points):
        """``margin`` of each row of ``points`` in the level's union."""
        if not 0 <= level <= self.depth:
            raise IndexError(f"level {level} outside 0..{self.depth}")
        row = self.radius[level] if level < len(self.radius) else ABSENT
        return margin(points, self.centers(level), row)

    def contains(self, level, point):
        """Closed-ball membership of ``point`` in the level's union."""
        return bool(self.margin(level, np.reshape(point, (1, -1)))[0] >= 0)


def margin(points, centers, radii):
    """Signed margin ``max_k (radii[k] - dist(p, centers[k]))`` of each row
    ``p`` of ``points``, ``ABSENT`` for an empty union: the single-ball
    inradius underestimate, and >= 0 exactly in the closed union, since the
    rounded ``r - d`` is >= 0 exactly when ``d <= r``."""
    out = cdist(points, centers)
    np.subtract(radii, out, out=out)
    return out.max(axis=1, initial=ABSENT)


def index_set_slab(dataset: NarxDataset, delta):
    """Level-0 inradius row: each record's successor inradius in the
    output slab, ``ABSENT`` unless above ``MIN_INRADIUS``."""
    inradii = delta - np.abs(dataset.succ_states[:, dataset.order - 1])
    return np.where(inradii > MIN_INRADIUS, inradii, ABSENT)


def nearest_table(dist):
    """``(dist, near, near_dist, beyond)``: per row of ``dist``, partitioned
    once, the indices and distances of the ``NEAR_K`` nearest columns (all
    if no more) as C-contiguous ``(rows, NEAR_K)`` arrays, and the smallest
    distance to any other column."""
    n, m = dist.shape
    if m <= NEAR_K:
        return (dist, np.repeat(np.arange(m)[None, :], n, axis=0),
                np.ascontiguousarray(dist), np.full(n, np.inf))
    part = np.argpartition(dist, NEAR_K, axis=1)[:, :NEAR_K + 1]
    part_dist = np.take_along_axis(dist, part, axis=1)
    # copies, so that the full N x M index array is not kept alive
    return (dist, np.ascontiguousarray(part[:, :NEAR_K]),
            np.ascontiguousarray(part_dist[:, :NEAR_K]), part_dist[:, NEAR_K].copy())


def max_plus(radii, table):
    """``(row, witness)``: the inradius row of ``max_k (radii[k] - dist[i, k])``
    per row ``i`` of a ``nearest_table`` (the exact product where above
    ``MIN_INRADIUS``, else ``ABSENT``; on point-to-center distances, each
    point's single-ball inradius underestimate in the union of the balls), and
    per row a column ``k`` attaining the product.  With ``best`` over a row's
    ``NEAR_K`` nearest columns, the row is scanned in full only if
    ``max(radii) - beyond > max(best, MIN_INRADIUS)``: on any other, every
    far column gives at most that, so the row is ``best`` or ``ABSENT``."""
    dist, near, near_dist, beyond = table
    g = np.take(radii, near)
    np.subtract(g, near_dist, out=g)
    flat = g.argmax(axis=1)
    flat += np.arange(0, g.size, g.shape[1])  # flat index of each row's argmax
    best, witness = g.take(flat), near.take(flat)
    rows = np.flatnonzero(radii.max() - beyond > np.maximum(best, MIN_INRADIUS))
    # one shape on every call, so the heap the build leaves does not vary with the rows
    buf = np.empty((SCAN_ROWS, len(radii)))
    for start in range(0, len(rows), SCAN_ROWS):
        block = rows[start:start + SCAN_ROWS]
        out = buf[:len(block)]
        # rows are valid indices; "clip" skips the buffered copy of "raise"
        np.take(dist, block, axis=0, out=out, mode="clip")
        np.subtract(radii, out, out=out)
        arg = out.argmax(axis=1)
        witness[block], best[block] = arg, out.take(arg + np.arange(0, out.size, len(radii)))
    return np.where(best > MIN_INRADIUS, best, ABSENT), witness


def build_level_family(dataset: NarxDataset, bounds, delta, depth, _dists=None):
    """Construct levels 0..depth; stops early once a level comes out empty
    (an empty family is a valid, reported outcome).  Returns the family and
    the ``(levels - 1, records)`` witness table of its levels >= 1, in the
    smallest unsigned integer type that holds ``records - 1``.

    ``_dists`` optionally carries ``pairwise_distances(dataset)`` so that a
    batch build over several accuracies shares it.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ss, sz = pairwise_distances(dataset) if _dists is None else _dists
    r = index_set_slab(dataset, delta)
    rows, witness = ([r] if np.any(r != ABSENT) else []), []
    while rows and len(rows) <= depth:
        r, w = max_plus(rows[-1], ss if len(rows) == 1 else sz)
        idx = np.flatnonzero(r != ABSENT)
        if idx.size == 0:
            break
        c = np.full_like(r, ABSENT)
        c[idx] = bounds.state_dev_inv(r[idx])
        witness.append(w)
        rows.append(c)
    shape = (len(witness), len(dataset))
    witness = np.array(witness, dtype=np.min_scalar_type(max(len(dataset) - 1, 0)))
    radius = np.array(rows).reshape(len(rows), len(dataset))
    return LevelFamily(float(delta), int(depth), radius, dataset), witness.reshape(shape)


def pairwise_distances(dataset: NarxDataset):
    """(successor-to-successor, successor-to-state) nearest tables, shared
    across family builds over one dataset."""
    return (nearest_table(cdist(dataset.succ_states, dataset.succ_states)),
            nearest_table(cdist(dataset.succ_states, dataset.states)))


def check_nesting(family: LevelFamily) -> bool:
    """Sufficient single-ball test that every level-0 ball lies inside some
    level-1 ball.  True certifies the nesting needed for indefinite
    regulation; False (also for an empty level 0) is inconclusive and only
    reported.  Level-0 balls are tested ``SCAN_ROWS`` at a time, stopping at
    the first block holding a ball that no level-1 ball contains."""
    c0, r0 = family.centers_radii(0)
    c1, r1 = family.centers_radii(1)
    return len(r0) > 0 and all(((cdist(c0[s:s + SCAN_ROWS], c1) + r0[s:s + SCAN_ROWS, None])
                                <= r1).any(axis=1).all() for s in range(0, len(r0), SCAN_ROWS))


def _witness_path(path):  # the witness file next to the radius file
    return str(path).removesuffix(".npy") + ".witness.npy"


def dump_family(path, family: LevelFamily, witness):
    """The radius table to ``path`` and the witness table of levels >= 1
    beside it, as raw ``.npy`` arrays whose bytes depend on the values only."""
    for target, table in ((path, family.radius), (_witness_path(path), witness)):
        with open(target, "wb") as fh:
            np.save(fh, table)


def _load_table(path, what):
    """The table dumped at ``path``, else ``ConfigError`` naming the path and ``what``."""
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: not a {what} dump ({exc})") from None


def load_family(path, dataset: NarxDataset, delta, depth) -> LevelFamily:
    """A family from its radius dump and build inputs.  ``ConfigError`` names
    the path unless the dump is a float64 table of at most ``depth + 1`` rows
    and one column per record, each cell finite or ``ABSENT``."""
    radius = _load_table(path, "radius table")
    if (radius.dtype != np.float64 or radius.ndim != 2 or len(radius) > depth + 1
            or radius.shape[1] != len(dataset)):
        raise ConfigError(f"{path}: table of shape {radius.shape} ({radius.dtype}) does not "
                          f"fit {len(dataset)} records and depth {depth}; rebuild the families")
    # NaN and +inf both fail ``max < inf``; the offender is located on failure only
    if not radius.max(initial=ABSENT) < np.inf:
        j, i = np.argwhere(~(np.isfinite(radius) | (radius == ABSENT)))[0]
        raise ConfigError(f"{path}: level {j} record {i} has radius {radius[j, i]:g}: "
                          "not finite; rebuild the families")
    return LevelFamily(delta=float(delta), depth=int(depth), radius=radius, dataset=dataset)


def load_witness(path, family: LevelFamily):
    """The witness table dumped beside the radius file ``path`` of ``family``:
    unsigned integers of the shape of its radius levels >= 1, each below the
    record count, else ``ConfigError`` naming the witness path."""
    wpath, shape, records = _witness_path(path), family.radius[1:].shape, len(family.dataset)
    witness = _load_table(wpath, "witness table")
    if witness.dtype.kind != "u" or witness.shape != shape:
        raise ConfigError(f"{wpath}: table of shape {witness.shape} ({witness.dtype}) does not "
                          f"fit unsigned indices of shape {shape}; rebuild the families")
    if witness.size and witness.max() >= records:
        j, i = np.argwhere(witness >= records)[0]
        raise ConfigError(f"{wpath}: level {j + 1} record {i} has witness {witness[j, i]}, "
                          f"not one of the {records} records; rebuild the families")
    return witness


def paired_distances(pts, centers):
    """Distance of each row of ``pts`` to the matching row of ``centers`` (the
    two broadcast against each other), summed coordinate by coordinate as
    ``cdist`` sums, hence equal to its distances bit for bit."""
    return np.sqrt(sum((pts[..., k] - centers[..., k]) ** 2 for k in range(pts.shape[-1])))


def successor_inradii(family: LevelFamily, witness):
    """The ``(levels - 1, records)`` successor inradii of levels >= 1 that
    ``witness`` names: ``radius[j - 1, k] - dist(succ_states[i], center_k)``
    at ``k = witness[j - 1, i]``, ``ABSENT`` where ``radius[j, i]`` is.  The
    distance sums as ``cdist`` sums, so a build's witnesses give its inradii
    bit for bit."""
    radius, k = family.radius, witness.astype(np.intp)
    out = np.take_along_axis(radius[:-1], k, axis=1)
    centers = family.centers(1)[k]
    centers[:1] = family.centers(0)[k[:1]]  # level-1 entries are witnessed at level 0
    out -= paired_distances(family.dataset.succ_states, centers)
    out[radius[1:] == ABSENT] = ABSENT
    return out
