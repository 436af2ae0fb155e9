"""Online reference selection and control over precomputed level families.

Each step: find the first (accuracy, level >= 1) pair whose ball union
contains the current augmented state, scanning accuracies ascending and
levels ascending within each accuracy.  Level 0 is never searched: its
balls certify position only, not an action.  The scan is one pass per
accuracy over a running maximum of the certified-radius table along the
levels, so a record's first covering level is a count of rows.  Among the
records of the chosen level the controller picks the one maximizing the
slack ``cert_radius - dist(state, record state)`` (ties by lowest record
index), reads off its stored target as the reference, and applies the
interpolant at ``[reference; state]``.

When no family covers the state the nearest-training-neighbour fallback is
used: the record minimizing the state distance supplies the reference
(distance ties broken toward the smallest-magnitude target, then lowest
index) and the step is flagged uncertified.  Certificate bookkeeping stays
honest either way; descent of a certified step is asserted against the same
family one level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .levelsets import LevelFamily

__all__ = ["StepCertificate", "Controller"]


@dataclass(frozen=True)
class StepCertificate:
    """Decision record of one control step."""

    delta: Optional[float]   # None on fallback
    kappa: Optional[int]
    index: int               # selected record (reference provider)
    slack: Optional[float]   # cert_radius - distance, >= 0 when certified
    certified: bool


class Controller:
    """Immutable online controller over one dataset's families."""

    def __init__(self, families, interpolant):
        """``families``: list of LevelFamily with strictly ascending,
        positive accuracies, all built over the same dataset."""
        families = sorted(families, key=lambda f: f.delta)
        deltas = [f.delta for f in families]
        if any(d <= 0 for d in deltas):
            raise ValueError("accuracies must be positive")
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("duplicate accuracy values")
        self.families = families
        self.interpolant = interpolant
        self.dataset = families[0].dataset
        for f in families:
            if f.dataset is not self.dataset:
                raise ValueError("families must share one dataset")
        # reach[k, i]: largest certified radius of record i over levels 1..k+1
        self._reach = [np.maximum.accumulate(f.cert_radius[1:], axis=0)
                       for f in families]

    def locate(self, state):
        """First (delta, level >= 1) containing the state, scanning
        accuracies ascending then levels ascending; None when uncovered."""
        state = np.asarray(state, dtype=float)
        d = np.linalg.norm(self.dataset.states - state, axis=1)
        for fam, reach in zip(self.families, self._reach):
            if len(reach) == 0:
                continue
            cand = np.flatnonzero(d <= reach[-1])
            if cand.size:
                # a record's first covering level counts the rows before it
                return fam.delta, 1 + int((reach[:, cand] < d[cand]).sum(axis=0).min())
        return None

    def family(self, delta) -> LevelFamily:
        for f in self.families:
            if f.delta == delta:
                return f
        raise KeyError(f"no family with accuracy {delta}")

    def select_reference(self, state, delta, kappa):
        """Max-slack covering record of the level; returns the certificate
        and the record's stored target."""
        if kappa < 1:
            raise ValueError("reference selection needs level >= 1")
        fam = self.family(delta)
        state = np.asarray(state, dtype=float)
        slack = (fam.cert_radius[kappa]
                 - np.linalg.norm(self.dataset.states - state, axis=1))
        k = int(np.argmax(slack))  # first maximum: ties by lowest record index
        if not slack[k] >= 0:
            raise RuntimeError(
                "containment reported but no covering entry found; "
                "tolerance inconsistency between locate and select")
        cert = StepCertificate(delta=delta, kappa=int(kappa), index=k,
                               slack=float(slack[k]), certified=True)
        return cert, float(self.dataset.targets[k])

    def _fallback(self, state):
        state = np.asarray(state, dtype=float)
        d = np.linalg.norm(self.dataset.states - state, axis=1)
        targets = self.dataset.targets
        order = np.lexsort((np.arange(len(d)), np.abs(targets), d))
        j = int(order[0])
        cert = StepCertificate(delta=None, kappa=None, index=j, slack=None,
                               certified=False)
        return cert, float(targets[j])

    def control(self, state):
        """(input, certificate) for the current state."""
        loc = self.locate(state)
        if loc is None:
            cert, reference = self._fallback(state)
        else:
            cert, reference = self.select_reference(state, *loc)
        x = np.concatenate([[reference], np.asarray(state, dtype=float)])
        return self.interpolant.predict(x), cert

    def assert_descent(self, certificate: StepCertificate, next_state):
        """True when the successor of a certified step sits one level down
        in the same family; None (skipped) for uncertified steps."""
        if not certificate.certified:
            return None
        fam = self.family(certificate.delta)
        return fam.contains(certificate.kappa - 1, next_state)
