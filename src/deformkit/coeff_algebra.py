"""Finite-dimensional matrix coefficient algebra.

The coefficient fibers are full matrix algebras M_k (k <= 8) with the
operator 2-norm as C*-norm.  This module provides the norm, spectra of
elements and of their unitizations, inversion in the unitization,
smooth functional calculus for self-adjoint elements, seminorms induced
by *-representations, and a spectral-invariance membership check for
unital subalgebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotHomomorphismError, NotSelfAdjointError, SingularError

__all__ = [
    "MatrixElement",
    "UnitizedElement",
    "MAX_DIM",
    "cstar_norm",
    "spectrum",
    "unitized_spectrum",
    "spectral_radius",
    "unitized_inverse",
    "smooth_calculus",
    "spectral_smoothing",
    "seminorm_from_rep",
    "spectral_invariance_check",
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


def spectral_radius(a) -> float:
    """Largest modulus of an eigenvalue of a."""
    return float(max(abs(np.linalg.eigvals(_as_entries(a)))))


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


def _matrix_units(k: int) -> list[np.ndarray]:
    units = []
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k), dtype=np.complex128)
            e[i, j] = 1.0
            units.append(e)
    return units


def seminorm_from_rep(rho: Callable[[np.ndarray], np.ndarray], b) -> float:
    """Seminorm ||rho(b)|| induced by a *-representation rho of M_k.

    Multiplicativity and adjoint-compatibility of rho are checked on all
    matrix units to 1e-12; NotHomomorphismError otherwise.  The result
    never exceeds ||b|| + 1e-10.
    """
    mat = _as_entries(b)
    k = mat.shape[0]
    units = _matrix_units(k)
    images = [np.asarray(rho(e), dtype=np.complex128) for e in units]
    scale = max(1.0, max(np.linalg.norm(im, 2) for im in images))
    for e, im in zip(units, images):
        im_star = np.asarray(rho(e.conj().T), dtype=np.complex128)
        if np.linalg.norm(im_star - im.conj().T, 2) > 1e-12 * scale:
            raise NotHomomorphismError("rho is not adjoint-compatible on matrix units")
    for (e, im_e) in zip(units, images):
        for (f_, im_f) in zip(units, images):
            im_prod = np.asarray(rho(e @ f_), dtype=np.complex128)
            if np.linalg.norm(im_prod - im_e @ im_f, 2) > 1e-12 * scale * scale:
                raise NotHomomorphismError("rho is not multiplicative on matrix units")
    return float(np.linalg.norm(np.asarray(rho(mat), dtype=np.complex128), 2))


def _orthonormal_span(vectors: list[np.ndarray], tol: float = 1e-12) -> np.ndarray:
    """Gram-Schmidt basis (columns) of the span of the given flat vectors."""
    basis: list[np.ndarray] = []
    for v in vectors:
        w = v.astype(np.complex128).copy()
        scale = np.linalg.norm(w)
        if scale == 0:
            continue
        for q in basis:
            w -= q * np.vdot(q, w)
        # Reorthogonalize once for numerical safety.
        for q in basis:
            w -= q * np.vdot(q, w)
        nrm = np.linalg.norm(w)
        if nrm > tol * scale:
            basis.append(w / nrm)
    return np.array(basis).T if basis else np.zeros((vectors[0].size, 0))


def _residual_outside_span(q: np.ndarray, v: np.ndarray) -> float:
    """Relative norm of the component of v outside the span with basis q."""
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    resid = v - q @ (q.conj().T @ v)
    return float(np.linalg.norm(resid) / nrm)


def spectral_invariance_check(b, basis: Sequence) -> bool:
    """Check that b^{-1} stays in the unital subalgebra generated by basis.

    The span of words in {1} + basis is saturated under products, b is
    required to lie in it, and True is returned when b^{-1} lies in it
    with relative residual <= 1e-10.  SingularError when b is singular.
    """
    mat = _as_entries(b)
    k = mat.shape[0]
    mats = [np.eye(k, dtype=np.complex128)] + [_as_entries(m) for m in basis]
    vecs = [m.reshape(-1) for m in mats]
    q = _orthonormal_span(vecs)
    # Saturate under multiplication: the span of words stabilizes at dim <= k^2.
    while q.shape[1] < k * k:
        cols = [q[:, i].reshape(k, k) for i in range(q.shape[1])]
        products = [(a @ c).reshape(-1) for a in cols for c in cols]
        q_new = _orthonormal_span([q[:, i] for i in range(q.shape[1])] + products)
        if q_new.shape[1] == q.shape[1]:
            break
        q = q_new
    if _residual_outside_span(q, mat.reshape(-1)) > 1e-10:
        raise ValueError("b does not lie in the span of the generated subalgebra")
    if np.linalg.cond(mat) > COND_LIMIT:
        raise SingularError("b is singular or too ill-conditioned to invert")
    inv = np.linalg.inv(mat)
    return _residual_outside_span(q, inv.reshape(-1)) <= 1e-10
