"""Deviation bounds used by the certificates.

Holds the known constants (Lipschitz constant of the system map ``lip_f``,
Lipschitz constant of the inverse model ``lip_c``, RKHS-norm bound
``rkhs_bound``) and derives the class-K functions:

* ``interp_err(eps)``  -- bound on the inverse-model estimation error at
  distance ``eps`` from the training features:
  ``rkhs_bound * sqrt(1 - kbar(s)/kbar(0))`` from the kernel's profile at
  the radius ``s = eps / kernel.radius_scale``.
* ``input_dev(eps)  = lip_c * eps + interp_err(eps)``
* ``output_dev(eps) = lip_f * (eps + input_dev(eps))``   (delay 1 only)
* ``state_dev(eps)``:  ``input_dev + output_dev + eps`` for delay 1,
  ``input_dev + (1 + lip_f) * eps`` for delay 2, or a configured linear
  slope overriding both.
* ``state_dev_inv(r)`` -- the inverse of ``state_dev`` from below: an eps with
  ``0 <= r - state_dev(eps) <= 1e-11 * max(1, r)``, so a certified radius never
  maps past its inradius.  Linear mode divides and steps a rounded-up quotient
  down by ulps; otherwise a bisection returns its lower end, one ``state_dev``
  evaluation per step; delay 1 evaluates ``input_dev`` once.

Each bound is one private formula; the public methods check ``eps >= 0`` and
call it, the bisection calls it directly, and ``kbar(0)`` is read once.

The profile ``interp_err`` is one concrete choice of class-K error
bound; tighter bounds exist for specific kernels.  An anisotropic kernel's
``radius_scale`` takes its most conservative (smallest) length scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel

__all__ = ["DeviationBounds"]

_INV_TOL = 1e-11  # stop once r - state_dev(lo) <= _INV_TOL * max(1, r)
_BISECT_ITERS = 200


@dataclass(frozen=True)
class DeviationBounds:
    """Immutable bound set; all evaluations are pure.

    ``gamma_mode``: "composed" or "linear" (needs ``gamma_slope``).
    """

    lip_f: float
    lip_c: float
    rkhs_bound: float
    kernel: Kernel  # interp_err reads its profile
    delay: int = 1
    gamma_mode: str = "composed"
    gamma_slope: float = 0.0

    def __post_init__(self):
        if self.lip_f <= 0 or self.lip_c <= 0:
            raise ValueError("Lipschitz constants must be positive")
        if self.rkhs_bound < 0:
            raise ValueError("rkhs_bound must be >= 0")
        if self.delay not in (1, 2):
            raise ValueError("delay must be 1 or 2")
        if self.gamma_mode not in ("composed", "linear"):
            raise ValueError(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.gamma_mode == "linear" and self.gamma_slope <= 0:
            raise ValueError("linear gamma mode needs a positive slope")
        # kbar(0), read once: every interp_err evaluation divides by it
        object.__setattr__(self, "_k0", float(self.kernel.profile(0.0)))

    def _checked(self, formula, eps):
        """``formula`` at checked ``eps``; a float for scalar ``eps``."""
        eps = np.asarray(eps, dtype=float)
        if np.any(eps < 0):
            raise ValueError("eps must be >= 0")
        out = formula(eps)
        return float(out) if np.ndim(out) == 0 else out

    def _interp_err(self, eps):
        deficit = self.kernel.profile_deficit(eps / self.kernel.radius_scale)
        return self.rkhs_bound * np.sqrt(np.maximum(0.0, deficit / self._k0))

    def _input_dev(self, eps):
        return self.lip_c * eps + self._interp_err(eps)

    def _output_dev(self, eps, u):
        return self.lip_f * (eps + u)

    def _state_dev(self, eps):
        if self.gamma_mode == "linear":
            return self.gamma_slope * eps
        u = self._input_dev(eps)
        if self.delay == 1:
            return u + self._output_dev(eps, u) + eps
        return u + (1.0 + self.lip_f) * eps

    def interp_err(self, eps):
        """Class-K bound on |c(x) - chat(x)| given distance-to-data eps."""
        return self._checked(self._interp_err, eps)

    def input_dev(self, eps):
        """Bound on the gap between a stored control and the estimate
        evaluated at a state eps away from the stored one."""
        return self._checked(self._input_dev, eps)

    def output_dev(self, eps):
        """Bound on the resulting next-output gap (delay 1 only)."""
        if self.delay != 1:
            raise ValueError("output_dev is defined for delay 1 only")
        return self._checked(lambda e: self._output_dev(e, self._input_dev(e)), eps)

    def state_dev(self, eps):
        """Bound on the successor-state gap; drives the certificates."""
        return self._checked(self._state_dev, eps)

    def state_dev_inv(self, r):
        """eps with ``0 <= r - state_dev(eps) <= 1e-11 * max(1, r)``.

        Linear mode divides, then steps a quotient that rounded up down by ulps
        until ``slope * eps <= r``.  Otherwise brackets by doubling and bisects,
        returning the lower end, which only moves to midpoints that pass
        ``state_dev(mid) <= r``; a bracket that fails to grow past the target
        signals a non-class-K-infinity configuration and raises.

        The radii of one call bisect together until every one meets the
        tolerance, so a result depends on its batch: a radius inverted alone
        or with others can differ by about 1e-9 relative.  The builder
        inverts each family row in one call.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be >= 0")
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if self.gamma_mode == "linear":
            out = r / self.gamma_slope
            while np.any(over := self.gamma_slope * out > r):
                out[over] = np.nextafter(out[over], 0.0)
            return float(out[0]) if scalar else out
        out = np.zeros_like(r)
        pos = r > 0
        if pos.any():
            rp = r[pos]
            hi = np.ones_like(rp)
            while (bad := self._state_dev(hi) < rp).any():
                hi[bad] *= 2.0
                if np.any(np.isinf(hi)):  # after at most 1024 doublings
                    raise ValueError(
                        "state_dev does not reach the requested radius; "
                        "bounds are not class K-infinity")
            lo, at_lo = np.zeros_like(rp), np.zeros_like(rp)
            tol = _INV_TOL * np.maximum(1.0, rp)
            for _ in range(_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                at_mid = self._state_dev(mid)
                le = at_mid <= rp
                lo, at_lo = np.where(le, mid, lo), np.where(le, at_mid, at_lo)
                hi = np.where(le, hi, mid)
                if np.all(rp - at_lo <= tol):
                    break
            out[pos] = lo
        return float(out[0]) if scalar else out
