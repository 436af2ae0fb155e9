"""Strictly positive definite kernels and Gram-matrix assembly.

Two kernel families are provided:

* :class:`IsotropicKernel` -- kernels of the form ``k(a, b) = kbar(||a - b||)``
  with a non-increasing scalar profile ``kbar``.  Supported profiles:

  - ``squared_exponential``:  ``sigma_f^2 * exp(-r^2 / (2 sigma_l^2))``
  - ``laplacian``:            ``sigma_f^2 * exp(-r / sigma_l)``
  - ``matern52``:             ``sigma_f^2 (1 + sqrt(5) s + 5 s^2 / 3) exp(-sqrt(5) s)``
    with ``s = r / (sqrt(2) sigma_l)``

* :class:`ArdMatern52Kernel` -- Matern-5/2 with one length scale per input
  dimension (automatic relevance determination),
  ``s = sqrt(sum_i (a_i - b_i)^2 / (2 sigma_l_i^2))``.

All kernels are immutable values; evaluation is pure and thread-safe.  The
scalar profile of an isotropic kernel is exposed separately because the
error-bound machinery needs ``kbar(0) - kbar(eps)`` without constructing
points.

Every ``cross`` is ``profile(cdist(embed(a), embed(b)))``, ``embed`` being the
identity or the ARD scaling, so a fixed point set can be embedded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["IsotropicKernel", "ArdMatern52Kernel", "make_kernel"]

_SQRT5 = np.sqrt(5.0)

ISOTROPIC_FAMILIES = ("squared_exponential", "laplacian", "matern52")


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
class IsotropicKernel:
    """Isotropic, decreasing, strictly positive definite kernel.

    Parameters
    ----------
    family : str
        One of ``squared_exponential``, ``laplacian``, ``matern52``.
    sigma_f : float
        Signal scale; ``kbar(0) = sigma_f**2``.
    sigma_l : float
        Length scale, same units as the input space.
    """

    family: str
    sigma_f: float
    sigma_l: float

    # distance / radius_scale is the profile's radius
    radius_scale = 1.0

    def __post_init__(self):
        if self.family not in ISOTROPIC_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (self.sigma_f > 0 and self.sigma_l > 0):
            raise ValueError("sigma_f and sigma_l must be positive")

    def profile(self, r):
        """Scalar profile kbar(r); accepts scalars or arrays, r >= 0."""
        r = np.asarray(r, dtype=float)
        sf2 = self.sigma_f**2
        if self.family == "squared_exponential":
            return sf2 * np.exp(-(r * r) / (2.0 * self.sigma_l**2))
        if self.family == "laplacian":
            return sf2 * np.exp(-r / self.sigma_l)
        return sf2 * _matern52_profile(r / (np.sqrt(2.0) * self.sigma_l))

    def profile_deficit(self, r):
        """kbar(0) - kbar(r), evaluated without cancellation at small r."""
        r = np.asarray(r, dtype=float)
        sf2 = self.sigma_f**2
        if self.family == "squared_exponential":
            return sf2 * -np.expm1(-(r * r) / (2.0 * self.sigma_l**2))
        if self.family == "laplacian":
            return sf2 * -np.expm1(-r / self.sigma_l)
        return sf2 * _matern52_deficit(r / (np.sqrt(2.0) * self.sigma_l))

    def __call__(self, a, b):
        """k(a, b) for two points of equal dimension."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        return float(self.profile(np.linalg.norm(a - b)))

    def embed(self, points):
        """Points as an (N, d) float array; the profile takes plain radii."""
        return np.atleast_2d(np.asarray(points, dtype=float))

    def cross(self, rows, cols):
        """Matrix k(rows_i, cols_j); rows (N,d), cols (M,d) -> (N,M)."""
        return self.profile(cdist(self.embed(rows), self.embed(cols)))

    def gram(self, points):
        """Symmetric N x N kernel matrix of a point set."""
        K = self.cross(points, points)
        return 0.5 * (K + K.T)


@dataclass(frozen=True)
class ArdMatern52Kernel:
    """Matern-5/2 kernel with per-dimension length scales.

    ``k(a, b) = sigma_f^2 (1 + sqrt(5) s + 5 s^2/3) exp(-sqrt(5) s)`` where
    ``s = sqrt(sum_i (a_i - b_i)^2 / (2 sigma_l_i^2))``.
    """

    sigma_f: float
    sigma_l: tuple = field()  # per-dimension length scales

    family = "ard_matern52"

    def __post_init__(self):
        sl = tuple(float(v) for v in np.atleast_1d(self.sigma_l))
        object.__setattr__(self, "sigma_l", sl)
        if self.sigma_f <= 0 or any(v <= 0 for v in sl):
            raise ValueError("sigma_f and all length scales must be positive")
        object.__setattr__(self, "_scale", np.sqrt(2.0) * np.asarray(sl))  # embed's divisor

    @property
    def dim(self):
        return len(self.sigma_l)

    @property
    def radius_scale(self):
        """Divisor that turns a distance into a profile radius: ``s(a, b) <=
        ||a - b|| / (sqrt(2) min sigma_l)`` and the profile is non-increasing,
        so the profile at that radius over-estimates the deficit."""
        return np.sqrt(2.0) * min(self.sigma_l)

    def embed(self, pts):
        """Points (N, dim) scaled per dimension by 1 / (sqrt(2) sigma_l_i)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {pts.shape[1]}")
        return pts / self._scale

    def profile(self, s):
        """Profile in the ARD-scaled radius s (the bounds take a distance
        through ``radius_scale``)."""
        s = np.asarray(s, dtype=float)
        return self.sigma_f**2 * _matern52_profile(s)

    def profile_deficit(self, s):
        """kbar(0) - profile(s) in the ARD-scaled radius, cancellation-free."""
        return self.sigma_f**2 * _matern52_deficit(np.asarray(s, dtype=float))

    def __call__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape or a.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        s = np.linalg.norm((a - b) / self._scale)
        return float(self.profile(s))

    def cross(self, rows, cols):
        return self.profile(cdist(self.embed(rows), self.embed(cols)))

    def gram(self, points):
        K = self.cross(points, points)
        return 0.5 * (K + K.T)


def make_kernel(family, sigma_f, sigma_l):
    """Build a kernel from config-style values.

    ``family`` is one of the isotropic names or ``ard_matern52``; for the
    latter ``sigma_l`` must be a sequence of per-dimension scales.
    """
    if family == "ard_matern52":
        return ArdMatern52Kernel(sigma_f=float(sigma_f), sigma_l=tuple(np.atleast_1d(sigma_l)))
    sl = np.atleast_1d(sigma_l)
    if sl.size != 1:
        raise ValueError(f"family {family!r} takes a single length scale")
    return IsotropicKernel(family=family, sigma_f=float(sigma_f), sigma_l=float(sl[0]))
