"""Strictly positive definite kernels and Gram-matrix assembly.

One immutable class, :class:`Kernel`, serves the two families the studies
use, each ``k(a, b) = kbar(||embed(a) - embed(b)||)`` with a non-increasing
profile:

- ``squared_exponential``:  ``sigma_f^2 * exp(-r^2 / (2 sigma_l^2))``
- ``ard_matern52``:         ``sigma_f^2 (1 + sqrt(5) s + 5 s^2 / 3) exp(-sqrt(5) s)``
  with one length scale per input dimension.

The first embeds by the identity and takes the plain distance ``r``; the
second divides each coordinate by ``sqrt(2) sigma_l_i`` and takes
``s = sqrt(sum_i (a_i - b_i)^2 / (2 sigma_l_i^2))``.  Every ``cross`` is
``profile(cdist(embed(a), embed(b)))``, so a point set can be embedded once.
The error bounds read the profile directly: a point distance ``r`` is a
profile radius of at most ``r / radius_scale`` (1, or ``sqrt(2) min
sigma_l`` for ``ard_matern52``), so ``profile_deficit(r / radius_scale)``
over-estimates ``kbar(0) - k(a, b)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["Kernel"]

_SQRT5 = np.sqrt(5.0)

FAMILIES = ("squared_exponential", "ard_matern52")


def _matern52_profile(s):
    b = _SQRT5 * s  # negation is exact: exp(-b) is exp(-sqrt(5) * s) bit for bit
    return (1.0 + b + (5.0 / 3.0) * s * s) * np.exp(-b)


def _matern52_deficit(s):
    """1 - matern52_profile(s), stable for small s (series below b = 0.05,
    b = sqrt(5) s; direct complement above)."""
    s = np.asarray(s, dtype=float)
    b = _SQRT5 * s
    small = b < 0.05
    out = np.empty_like(b)
    bs = b[small]
    out[small] = (bs**2 / 6.0 - bs**4 / 24.0 + bs**5 / 45.0
                  - bs**6 / 144.0 + bs**7 / 630.0 - bs**8 / 3456.0)
    out[~small] = 1.0 - _matern52_profile(s[~small])
    return out


@dataclass(frozen=True)
class Kernel:
    """Decreasing, strictly positive definite kernel.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    sigma_f : float
        Signal scale; ``kbar(0) = sigma_f**2``.
    sigma_l : tuple of float
        One length scale, in the units of the input space, or one per input
        dimension for ``ard_matern52``.

    Every scale must be positive with a normal float square: a square that
    underflows or overflows degenerates the Gram matrix or the fit's jitter.
    """

    family: str
    sigma_f: float
    sigma_l: tuple

    def __post_init__(self):
        sl = tuple(float(v) for v in np.atleast_1d(self.sigma_l))
        object.__setattr__(self, "sigma_f", float(self.sigma_f))
        object.__setattr__(self, "sigma_l", sl)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if len(sl) != 1 and self.family != "ard_matern52":
            raise ValueError(f"family {self.family!r} takes a single length scale")
        if not (sl and all(v > 0 and sys.float_info.min <= v * v <= sys.float_info.max
                           for v in (self.sigma_f, *sl))):
            raise ValueError("sigma_f and all length scales must be positive, "
                             "with squares in the normal float range")
        ard = self.family == "ard_matern52"
        # embed's divisor (None: identity) and the distance -> profile radius divisor;
        # not fields, so equality and hashing see the parameters only
        object.__setattr__(self, "_scale", np.sqrt(2.0) * np.asarray(sl) if ard else None)
        object.__setattr__(self, "radius_scale", np.sqrt(2.0) * min(sl) if ard else 1.0)

    def _exponent(self, r):
        """The exponent of the squared-exponential profile at radius r."""
        return -(r * r) / (2.0 * self.sigma_l[0]**2)

    def profile(self, r):
        """Scalar profile kbar at profile radius r >= 0; scalars or arrays."""
        r = np.asarray(r, dtype=float)
        if self._scale is not None:
            return self.sigma_f**2 * _matern52_profile(r)
        return self.sigma_f**2 * np.exp(self._exponent(r))

    def profile_deficit(self, r):
        """kbar(0) - kbar(r), evaluated without cancellation at small r."""
        r = np.asarray(r, dtype=float)
        if self._scale is not None:
            return self.sigma_f**2 * _matern52_deficit(r)
        return self.sigma_f**2 * -np.expm1(self._exponent(r))

    def embed(self, points):
        """Points as an (N, d) float array in which the profile takes plain
        distances; ``ard_matern52`` needs d equal to its number of scales."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._scale is None:
            return pts
        if pts.shape[1] != len(self.sigma_l):
            raise ValueError(f"expected dimension {len(self.sigma_l)}, got {pts.shape[1]}")
        return pts / self._scale

    def cross(self, rows, cols):
        """Matrix k(rows_i, cols_j); rows (N,d), cols (M,d) -> (N,M)."""
        return self.profile(cdist(self.embed(rows), self.embed(cols)))

    def gram(self, points):
        """N x N kernel matrix of a point set, symmetric bit for bit because
        ``cdist`` is."""
        return self.cross(points, points)


# ``perfbench/spans.py`` imports and patches the two former class names
IsotropicKernel = ArdMatern52Kernel = Kernel
