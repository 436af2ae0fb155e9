"""Online reference selection and control over precomputed level families.

Each step computes one ``cdist`` row of the state's distances to the record
states, which ``locate`` and ``select_reference`` read.  One comparison with
each family's largest certified radius per record finds the first accuracy
(ascending) with a level >= 1 ball holding the state; level 0 certifies
position, not an action, and is never searched.  A record holding the
state at any level is within that largest radius, so the level is the first
certified-radius row in which one of these candidates holds the state.  The
reference is the stored target of the level's record of largest slack
``radius - dist`` (ties by lowest index); the interpolant is applied at
``[reference; state]``.

A step in a family ball is ``certified`` when the families were built on a
sound bound, else ``heuristic``.  When no family covers the state the
nearest-training-neighbour fallback is used: the record minimizing the state
distance supplies the reference (distance ties broken toward the
smallest-magnitude target, then lowest index).  Descent of every step in a
family ball is asserted against the same family one level down, as ``margin
>= 0`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .levelsets import ABSENT, LevelFamily

__all__ = ["StepCertificate", "Controller"]


@dataclass(frozen=True)
class StepCertificate:
    """Decision record of one control step."""

    delta: Optional[float]   # None on fallback
    kappa: Optional[int]
    index: int               # selected record (reference provider)
    slack: Optional[float]   # radius - distance, >= 0 in a family ball
    certified: bool          # in a family ball built on a sound bound

    @property
    def label(self):
        """``certified``, ``heuristic`` (a ball of unsound families) or ``fallback``."""
        if self.delta is None:
            return "fallback"
        return "certified" if self.certified else "heuristic"


class Controller:
    """Immutable online controller over one dataset's families."""

    def __init__(self, families, interpolant, *, sound):
        """``families``: list of LevelFamily with strictly ascending,
        positive accuracies, all built over the same dataset; ``sound``: they
        were built on a sound bound, so their balls certify the plant."""
        families = sorted(families, key=lambda f: f.delta)
        deltas = [f.delta for f in families]
        if any(d <= 0 for d in deltas):
            raise ValueError("accuracies must be positive")
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("duplicate accuracy values")
        self.families = families
        self.interpolant = interpolant
        self.sound = bool(sound)
        self.dataset = families[0].dataset
        for f in families:
            if f.dataset is not self.dataset:
                raise ValueError("families must share one dataset")
        # top[f, i]: largest level >= 1 radius of record i (ABSENT if none)
        self._top = np.array([f.radius[1:].max(axis=0, initial=ABSENT)
                              for f in families])

    def locate(self, d):
        """First (delta, level >= 1) holding the state at record distances
        ``d``, scanning accuracies then levels ascending; None if uncovered."""
        hit = d <= self._top
        f, i = divmod(int(hit.argmax()), len(d))  # first hit, row-major
        if not hit[f, i]:
            return None
        # a record holding the state at any level is a candidate
        cand = hit[f].nonzero()[0]
        fam = self.families[f]
        holds = (fam.radius[1:].take(cand, axis=1) >= d.take(cand)).any(axis=1)
        return fam.delta, 1 + int(holds.argmax())

    def family(self, delta) -> LevelFamily:
        for f in self.families:
            if f.delta == delta:
                return f
        raise KeyError(f"no family with accuracy {delta}")

    def select_reference(self, d, delta, kappa):
        """Max-slack covering record of the level for the state at distances
        ``d``; returns the certificate and the record's stored target."""
        if kappa < 1:
            raise ValueError("reference selection needs level >= 1")
        fam = self.family(delta)
        slack = fam.radius[kappa] - d
        k = int(np.argmax(slack))  # first maximum: ties by lowest record index
        if not slack[k] >= 0:
            raise RuntimeError(
                "containment reported but no covering entry found; "
                "tolerance inconsistency between locate and select")
        cert = StepCertificate(delta=delta, kappa=int(kappa), index=k,
                               slack=float(slack[k]), certified=self.sound)
        return cert, float(self.dataset.targets[k])

    def _fallback(self, d):
        near = np.flatnonzero(d == d.min())
        j = int(near[np.argmin(np.abs(self.dataset.targets[near]))])
        cert = StepCertificate(delta=None, kappa=None, index=j, slack=None,
                               certified=False)
        return cert, float(self.dataset.targets[j])

    def control(self, state):
        """(input, certificate) for the current state."""
        state = np.asarray(state, dtype=float)
        d = cdist(state[None], self.dataset.states)[0]
        loc = self.locate(d)
        if loc is None:
            cert, reference = self._fallback(d)
        else:
            cert, reference = self.select_reference(d, *loc)
        x = np.concatenate([[reference], state])
        return self.interpolant.predict(x), cert

    def assert_descent(self, certificate: StepCertificate, next_state):
        """True when the successor of a step in a family ball sits one level
        down in the same family; None (skipped) for fallback steps."""
        if certificate.delta is None:
            return None
        fam = self.family(certificate.delta)
        return fam.contains(certificate.kappa - 1, next_state)
