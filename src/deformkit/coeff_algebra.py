"""Finite-dimensional matrix coefficient algebra.

The coefficient fibers are full matrix algebras M_k (k <= 8) with the
operator 2-norm as C*-norm.  This module provides the norm, spectra of
elements and of their unitizations, inversion in the unitization, and
smooth functional calculus for self-adjoint elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotSelfAdjointError, SingularError

__all__ = [
    "MatrixElement",
    "UnitizedElement",
    "MAX_DIM",
    "cstar_norm",
    "spectrum",
    "unitized_spectrum",
    "unitized_inverse",
    "smooth_calculus",
    "spectral_smoothing",
]

MAX_DIM = 8

# Conditioning beyond this is treated as singular.
COND_LIMIT = 1e12

# Relative tolerance for clustering repeated eigenvalues.
SPECTRUM_CLUSTER_RTOL = 1e-9


def _as_entries(a) -> np.ndarray:
    """Normalize a matrix-like input to a (k, k) complex array."""
    if isinstance(a, MatrixElement):
        return a.entries
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MatrixElement:
    """Element of the coefficient algebra M_k.

    Parameters
    ----------
    entries : array_like
        Square complex matrix with k <= MAX_DIM.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_entries(self.entries)
        if arr.shape[0] > MAX_DIM:
            raise ValueError(f"matrix dimension {arr.shape[0]} exceeds {MAX_DIM}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def adjoint(self) -> "MatrixElement":
        return MatrixElement(self.entries.conj().T)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MatrixElement(self.entries * other)
        return MatrixElement(self.entries @ _as_entries(other))


@dataclass(frozen=True)
class UnitizedElement:
    """Element (a, alpha) of the unitization, a + alpha*1.

    Multiplication follows (a, alpha)(b, beta) = (ab + alpha b + beta a,
    alpha beta); the unit is (0, 1).
    """

    matrix: MatrixElement
    scalar: complex

    @classmethod
    def unit(cls, k: int) -> "UnitizedElement":
        return cls(MatrixElement(np.zeros((k, k))), 1.0 + 0.0j)

    def multiply(self, other: "UnitizedElement") -> "UnitizedElement":
        a, alpha = self.matrix.entries, self.scalar
        b, beta = other.matrix.entries, other.scalar
        return UnitizedElement(MatrixElement(a @ b + alpha * b + beta * a), alpha * beta)

    def adjoint(self) -> "UnitizedElement":
        return UnitizedElement(self.matrix.adjoint(), np.conj(self.scalar))


def cstar_norm(a) -> float:
    """C*-norm of a coefficient element: the largest singular value."""
    return float(np.linalg.norm(_as_entries(a), 2))


def _cluster(values: np.ndarray) -> tuple:
    """Collapse eigenvalues that agree within SPECTRUM_CLUSTER_RTOL."""
    order = np.lexsort((values.imag, values.real))
    vals = values[order]
    out: list[complex] = []
    for v in vals:
        scale = max(1.0, abs(v))
        if out and abs(v - out[-1]) <= SPECTRUM_CLUSTER_RTOL * scale:
            continue
        out.append(complex(v))
    return tuple(out)


def spectrum(a) -> tuple:
    """Distinct eigenvalues of a, sorted by (real, imag)."""
    return _cluster(np.linalg.eigvals(_as_entries(a)))


def unitized_spectrum(a) -> tuple:
    """Spectrum of a viewed in the unitization: spectrum(a) union {0}."""
    vals = spectrum(a)
    if any(abs(v) <= SPECTRUM_CLUSTER_RTOL for v in vals):
        return vals
    return _cluster(np.asarray(list(vals) + [0.0 + 0.0j]))


def unitized_inverse(x: UnitizedElement) -> UnitizedElement:
    """Inverse of (a, alpha) in the unitization.

    (a, alpha)^{-1} = ((alpha 1 + a)^{-1} - alpha^{-1} 1, alpha^{-1});
    raises SingularError when alpha = 0 or alpha 1 + a is singular or
    has condition number beyond COND_LIMIT.
    """
    a = x.matrix.entries
    alpha = complex(x.scalar)
    if alpha == 0:
        raise SingularError("scalar part vanishes; no inverse in the unitization")
    k = a.shape[0]
    total = alpha * np.eye(k) + a
    if np.linalg.cond(total) > COND_LIMIT:
        raise SingularError("alpha 1 + a is singular or too ill-conditioned")
    inv = np.linalg.inv(total) - np.eye(k) / alpha
    return UnitizedElement(MatrixElement(inv), 1.0 / alpha)


def smooth_calculus(f: Callable[[np.ndarray], np.ndarray], b) -> MatrixElement:
    """Apply a scalar function to a self-adjoint element by diagonalization.

    Raises NotSelfAdjointError unless ||b - b*|| <= 1e-12 ||b||.
    """
    mat = _as_entries(b)
    norm = np.linalg.norm(mat, 2)
    if np.linalg.norm(mat - mat.conj().T, 2) > 1e-12 * norm:
        raise NotSelfAdjointError("functional calculus needs a self-adjoint element")
    eigvals, eigvecs = np.linalg.eigh(mat)
    fvals = np.asarray(f(eigvals), dtype=np.complex128)
    return MatrixElement((eigvecs * fvals) @ eigvecs.conj().T)


def _bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (smooth at 0)."""
    out = np.zeros_like(s, dtype=float)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def spectral_smoothing(y, eps: float) -> MatrixElement:
    """Smoothly suppress the spectral part of y inside (-eps/3, eps/3).

    Applies f(t) = t (1 - chi(t)) where chi is a smooth cutoff equal to 1
    on |t| <= eps/3 and 0 on |t| >= 2 eps/3.  Elements with spectrum
    outside (-eps, eps) are returned unchanged; spectrum inside
    (-eps/3, eps/3) is annihilated.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = eps / 3.0, 2.0 * eps / 3.0

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        num = _bump(hi - np.abs(t))
        den = num + _bump(np.abs(t) - lo)
        chi = num / den
        return t * (1.0 - chi)

    return smooth_calculus(f, y)
