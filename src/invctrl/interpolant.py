"""Minimal-norm kernel interpolation of the inverse model.

Given training pairs ``(x_i, u_i)`` and a strictly positive definite kernel,
the minimal-RKHS-norm interpolant has the closed form
``chat(x) = k(x)^T K^{-1} u`` where ``K`` is the Gram matrix of the training
features and ``k(x)_i = k(x_i, x)``.  A ridge term ``lam > 0`` replaces
``K^{-1}`` by ``(K + lam I)^{-1}`` for noise-corrupted data.

The solve is a symmetric positive definite Cholesky factorization.  If the
factorization fails (near-duplicate rows, very smooth kernels), a diagonal
jitter of ``1e-12 * kbar(0)`` is added and escalated by factors of 10 up to
``1e-6 * kbar(0)``; past that the fit fails with condition diagnostics.  The
jitter actually applied is recorded on the fitted model.

Diagnostics:

* ``rkhs_norm()`` returns ``sqrt(u^T K^{-1} u)``, a lower bound on the RKHS
  norm of any interpolant of the data.  (Some presentations write the
  squared quantity ``u^T K^{-1} u`` for the norm itself; the square root is
  the value with the right units and is what this module returns.)
* ``power(x)`` returns ``sqrt(k(x,x) - k(x)^T K^{-1} k(x))``, clamped at 0,
  the classical pointwise error multiplier.  Both require ``lam == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .config import ConfigError
from .kernels import Kernel
from .narx import FLOAT_FMT, NarxDataset, parse_floats

__all__ = [
    "Interpolant",
    "FitError",
    "fit_interpolant",
    "dump_interpolant",
    "load_interpolant",
]

JITTER_BASE = 1e-12
JITTER_MAX = 1e-6


class FitError(RuntimeError):
    """SPD factorization failed even after maximum jitter escalation."""


def _factor(K, lam, sf2):
    """Cholesky of K + lam*I with escalating jitter; returns (factor, jitter)."""
    N = K.shape[0]
    A = K if lam == 0 else K + lam * np.eye(N)
    jitter = 0.0
    while True:
        try:
            M = A if jitter == 0 else A + jitter * np.eye(N)
            return cho_factor(M, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_BASE * sf2 if jitter == 0 else jitter * 10.0
            if jitter > JITTER_MAX * sf2 * (1 + 1e-12):
                w = np.linalg.eigvalsh(A)
                raise FitError(
                    "SPD factorization failed at maximum jitter "
                    f"{JITTER_MAX * sf2:.3e}; eigenvalue range "
                    f"[{w[0]:.3e}, {w[-1]:.3e}], estimated condition "
                    f"{abs(w[-1] / w[0]) if w[0] != 0 else math.inf:.3e}"
                ) from None


@dataclass
class Interpolant:
    """Fitted inverse-model estimate; immutable after fit but for the factor
    that ``power`` caches, safe for concurrent prediction."""

    kernel: object
    train_x: np.ndarray     # (N, d)
    train_u: np.ndarray     # (N,)
    alpha: np.ndarray       # (N,) solves (K + lam I) alpha = u
    lam: float
    jitter: float
    _chol: object = None    # factor of K + lam I + jitter I, made on first use
    _train_e: np.ndarray = field(init=False, repr=False)  # kernel.embed(train_x)

    def __post_init__(self):
        self._train_e = self.kernel.embed(self.train_x)

    def __len__(self):
        return self.train_x.shape[0]

    def predict(self, x):
        """chat(x) = k(x)^T alpha; x is one point (d,) or a batch (M, d)."""
        x = np.asarray(x, dtype=float)
        kx = self.kernel.profile(cdist(self.kernel.embed(x), self._train_e))
        out = kx @ self.alpha
        return float(out[0]) if x.ndim == 1 else out

    def rkhs_norm(self):
        """sqrt(u^T K^{-1} u); defined for exact interpolation only."""
        if self.lam != 0:
            raise ValueError("RKHS norm estimate is undefined for lam > 0")
        return float(np.sqrt(max(0.0, float(self.train_u @ self.alpha))))

    def power(self, x):
        """Pointwise error multiplier sqrt(k(x,x) - k(x)^T K^{-1} k(x)) >= 0."""
        x = np.asarray(x, dtype=float)
        val = self.power_of_columns(self.kernel.cross(self.train_x, np.atleast_2d(x)))
        return float(val[0]) if x.ndim == 1 else val

    def power_of_columns(self, kx, gram=None):
        """``power`` at the points whose kernel columns ``k(train_x, x)`` are the
        columns of the C-contiguous ``kx`` (N, M); ``gram`` may carry the
        training kernel matrix for the factor, which is otherwise built once."""
        if self.lam != 0:
            raise ValueError("power function is undefined for lam > 0")
        if self._chol is None:
            K = self.kernel.gram(self.train_x) if gram is None else gram
            self._chol = cho_factor(K + (self.lam + self.jitter) * np.eye(len(self)), lower=True)
        sol = cho_solve(self._chol, kx)
        k0 = float(self.kernel.profile(0.0))  # k(x, x)
        return np.sqrt(np.maximum(0.0, k0 - np.sum(kx * sol, axis=0)))


def fit_interpolant(kernel, dataset: NarxDataset, lam: float = 0.0) -> Interpolant:
    """Fit the minimal-norm interpolant (lam = 0) or its ridge variant."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X = dataset.features
    u = dataset.controls
    K = kernel.gram(X)
    chol, jitter = _factor(K, lam, kernel.sigma_f**2)
    alpha = cho_solve(chol, u)
    return Interpolant(kernel=kernel, train_x=X.copy(), train_u=u.copy(),
                       alpha=alpha, lam=float(lam), jitter=jitter, _chol=chol)


def dump_interpolant(path, model: Interpolant):
    """Full-precision text dump sufficient to reload without refitting.

    Header lines are ``key = value``; then one row per training point with
    the feature coordinates and the weight ``alpha_i``.
    """
    k = model.kernel
    lines = [
        f"family = {k.family}",
        f"sigma_f = {format(k.sigma_f, FLOAT_FMT)}",
        f"sigma_l = {','.join(format(v, FLOAT_FMT) for v in np.atleast_1d(k.sigma_l))}",
        f"lambda = {format(model.lam, FLOAT_FMT)}",
        f"jitter = {format(model.jitter, FLOAT_FMT)}",
        f"N = {len(model)}",
        f"dim = {model.train_x.shape[1]}",
        "columns = x..., u, alpha",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for xi, ui, ai in zip(model.train_x, model.train_u, model.alpha):
            row = [format(v, FLOAT_FMT) for v in xi]
            row.append(format(ui, FLOAT_FMT))
            row.append(format(ai, FLOAT_FMT))
            fh.write(",".join(row) + "\n")


def load_interpolant(path) -> Interpolant:
    """Reload a dumped model without refitting (the Cholesky factor is rebuilt
    on the first ``power`` call).

    The leading ``key = value`` lines are the header; every later non-blank
    line is a model row, and all rows are converted to floats in one call,
    bitwise equal to ``float()`` of each cell.  A row without ``dim + 2``
    fields or with a value that is not a finite number raises ``ConfigError``
    at ``path:line``; a missing or bad header key, or a row count other than
    ``N``, or a kernel that does not take ``dim``-dimensional points, raises
    ``ConfigError`` at ``path`` ("not a model dump")."""
    with open(path, "rb", buffering=0) as fh:
        lines = fh.read().splitlines()
    meta, h = {}, len(lines)
    for i, raw in enumerate(lines):
        line = raw.decode(errors="replace").strip()
        if not line:
            continue
        if not ("=" in line and not line[0].isdigit() and not line.startswith("-")):
            h = i
            break
        key, _, val = line.partition("=")
        meta[key.strip()] = val.strip()
    try:
        kernel = Kernel(meta["family"], float(meta["sigma_f"]),
                        [float(v) for v in meta["sigma_l"].split(",")])
        dim, lam, jitter = int(meta["dim"]), float(meta["lambda"]), float(meta["jitter"])
        N = int(meta["N"])
        kernel.embed(np.empty((0, dim)))  # the kernel must take dim-dimensional points
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: not a model dump ({type(exc).__name__}: {exc})") from None
    rows = list(filter(None, map(bytes.strip, lines[h:])))
    wrong = np.flatnonzero(np.array(list(map(bytes.count, rows, repeat(b","))), dtype=int)
                           != dim + 1)
    n = int(wrong[0]) if wrong.size else len(rows)
    vals, bad = parse_floats(b",".join(rows[:n]).split(b",") if n else [])
    if bad is not None or wrong.size:
        r = n if bad is None else bad // (dim + 2)
        lineno = [i for i, raw in enumerate(lines[h:], h + 1) if raw.strip()][r]
        raise ConfigError(f"{path}:{lineno}: bad model row "
                          f"{rows[r].decode(errors='replace')!r}")
    data = vals.reshape(n, dim + 2)
    if data.shape != (N, dim + 2):
        raise ConfigError(f"{path}: not a model dump (ValueError: rows of shape "
                          f"{data.shape}, N = {N}, dim = {dim})")
    return Interpolant(kernel=kernel, train_x=data[:, :dim], train_u=data[:, dim],
                       alpha=data[:, dim + 1], lam=lam, jitter=jitter)
