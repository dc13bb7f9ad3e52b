"""Matrix-coefficient operators on the discretized module.

Operators act on ModuleVector data by left multiplication of the k x k
values, so they commute with the right module action g . c.  An
operator built from phase-space lattice terms

    a(x, xi) = sum_t c_t exp(i (omega_t . x + w_t . xi)),
    Op(a) g (x) = sum_t c_t exp(i omega_t . x) g(x + w_t),

acts exactly on the periodic grid: in the coefficient domain each term
is an index shift by m_t (omega_t = pi m_t / L) together with the phase
ramp exp(2 pi i p . w_t), so modulation and translation are both exact.
Every operator carries its exact adjoint closure.  The adjoint of a
lattice operator is the operator of the dagger symbol, and compositions
stay inside the lattice class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .deformation import _compose_terms, _dagger_terms, _lattice_action, tilde_map
from .errors import GridMismatchError, NoConvergenceError
from .symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    _is_pow2,
    _sample_norms,
    centered_dft,
    centered_idft,
    default_grid_size,
    derivative,
    dual_axis_points,
)

__all__ = [
    "DiscretizedOperator",
    "ModuleVector",
    "op_from_phase_terms",
    "rieffel_operator",
    "multiplier_operator",
    "multiplication_operator",
    "fourier_operator",
    "adjoint",
    "operator_norm",
    "cv_functional",
    "right_multiply",
]

POWER_ITER_SEED = 0x5EED
POWER_ITER_TOL = 1e-8
POWER_ITER_MAX = 10_000


def right_multiply(g: ModuleVector, c) -> ModuleVector:
    """Right module action g . c with c a k x k matrix."""
    c = np.asarray(c, dtype=np.complex128)
    return g.with_values(np.einsum("...ab,bc->...ac", g.values, c))


@dataclass
class DiscretizedOperator:
    """Linear operator between discretized modules, with its exact adjoint.

    forward maps value arrays of geometry_in to geometry_out and adjoint_fn
    is its exact matrix adjoint, from geometry_out back to geometry_in.  A
    lattice phase-term operator also carries its terms, the symbolic form
    that adjoints dagger and compositions multiply.
    """

    geometry_in: tuple
    geometry_out: tuple
    forward: object
    adjoint_fn: object
    terms: PlaneWavePhaseSymbol | None = None

    def __call__(self, g: ModuleVector) -> ModuleVector:
        if g.geometry() != self.geometry_in:
            raise GridMismatchError(
                f"operator expects geometry {self.geometry_in}, got {g.geometry()}"
            )
        n, N, L, k = self.geometry_out
        return ModuleVector(n, N, L, self.forward(g.values))

    def compose(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        if other.geometry_out != self.geometry_in:
            raise GridMismatchError("operator domains do not chain")
        terms = None
        if self.terms is not None and other.terms is not None:
            # continuum law; matches fwd exactly when every translation
            # in self.terms is a multiple of the grid step
            terms = _compose_terms(self.terms, other.terms)
        return DiscretizedOperator(
            other.geometry_in, self.geometry_out, _chain(other.forward, self.forward),
            _chain(self.adjoint_fn, other.adjoint_fn), terms,
        )

    def __matmul__(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        return self.compose(other)


def _chain(first, second):
    """values -> second(first(values))."""
    return lambda values: second(first(values))


def op_from_phase_terms(sym: PlaneWavePhaseSymbol, N: int) -> DiscretizedOperator:
    """Operator of a phase-space lattice symbol, exact on the periodic grid.

    N must be a power of two, as for grid symbols: the lattice kernel folds
    its axis-0 transforms for such grids (ValueError otherwise).
    """
    if not _is_pow2(N):
        raise ValueError(f"points per axis must be a power of two, got {N}")
    geometry = (sym.n, N, sym.L, sym.k)
    return DiscretizedOperator(
        geometry,
        geometry,
        _lattice_action(sym, N),
        _lattice_action(sym, N, adjoint=True),
        sym,
    )


def rieffel_operator(
    f, J: DeformationMatrix, N: int | None = None
) -> DiscretizedOperator:
    """Deformed left action L_f: L_f g = f x_J g realized on the grid.

    L_f g (x) = sum_p fhat_p exp(2 pi i p.x) g(x + Jp), the twisted
    translation sum.  Composition satisfies L_f L_g = L_{f x_J g}
    exactly when every translation Jp is a multiple of the grid step
    2L/N (commuting a translation past a modulation otherwise picks up
    a wrap factor on the band-edge modes); for other J the identity
    holds up to the spectral truncation of the factors.
    """
    if N is None:
        N = f.N if isinstance(f, GridSymbol) else default_grid_size(f.n)[0]
    sym = tilde_map(f, J)
    return op_from_phase_terms(sym, N)


def _sampled_operator(geometry: tuple, samples: np.ndarray, axes=()) -> DiscretizedOperator:
    """Left multiplication by k x k samples: pointwise, or per frequency over axes.

    The adjoint multiplies by the conjugate transposed samples.
    """

    def by(s):
        def apply(values):
            if not axes:
                return np.einsum("...ab,...bc->...ac", s, values)
            ghat = np.einsum("...ab,...bc->...ac", s, centered_dft(values, axes))
            return centered_idft(ghat, axes) / float(geometry[1]) ** len(axes)

        return apply

    return DiscretizedOperator(
        geometry, geometry, by(samples), by(np.conj(np.swapaxes(samples, -1, -2)))
    )


def multiplier_operator(phi, n: int, N: int, L: float, k: int = 1) -> DiscretizedOperator:
    """Operator of a frequency-only symbol phi(xi): diagonal after Fourier.

    phi is a callable taking arrays of angular frequencies per axis (as
    a mesh) and returning scalar or k x k samples.
    """
    xi = dual_axis_points(N, L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij") if n > 1 else [xi]
    vals = np.asarray(phi(*mesh), dtype=np.complex128)
    if vals.shape == (N,) * n:
        vals = vals[..., None, None] * np.eye(k)
    return _sampled_operator((n, N, L, k), vals, tuple(range(n)))


def multiplication_operator(psi: GridSymbol) -> DiscretizedOperator:
    """Pointwise left multiplication by a sampled symbol."""
    return _sampled_operator(psi.geometry(), psi.values)


def fourier_operator(n: int, N: int, L: float, k: int = 1,
                     inverse: bool = False) -> DiscretizedOperator:
    """The unitary Fourier transform between the box and its dual box."""
    axes = tuple(range(n))
    L_dual = np.pi * N / (2.0 * L)
    dx = 2.0 * L / N
    dxi = 2.0 * L_dual / N

    def dft(values):
        return centered_dft(values, axes) * ((2.0 * np.pi) ** (-n / 2.0) * dx ** n)

    def idft(values):
        return centered_idft(values, axes) * ((2.0 * np.pi) ** (-n / 2.0) * dxi ** n)

    box, dual = (n, N, L, k), (n, N, L_dual, k)
    if inverse:
        return DiscretizedOperator(dual, box, idft, dft)
    return DiscretizedOperator(box, dual, dft, idft)


def adjoint(op: DiscretizedOperator) -> DiscretizedOperator:
    """Adjoint with respect to the weighted L2 inner product.

    Swaps the forward action and its exact adjoint; lattice-term
    operators carry the dagger symbol along as the adjoint's symbolic
    representation.
    """
    terms = _dagger_terms(op.terms) if op.terms is not None else None
    return DiscretizedOperator(op.geometry_out, op.geometry_in, op.adjoint_fn, op.forward, terms)


def operator_norm(op: DiscretizedOperator, tol: float = POWER_ITER_TOL) -> float:
    """Spectral norm by power iteration on A*A.

    Deterministic start (seeded with POWER_ITER_SEED), stops when the
    Rayleigh quotient changes by less than tol relatively;
    NoConvergenceError after POWER_ITER_MAX iterations.
    """
    n, N, L, k = op.geometry_in
    star = adjoint(op)
    rng = np.random.default_rng(POWER_ITER_SEED)
    shape = (N,) * n + (k, k)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_ITER_MAX):
        w = star.forward(op.forward(v))
        new_lam = float(np.real(np.vdot(v, w)))
        scale = np.linalg.norm(w)
        if scale == 0.0:
            return 0.0
        v = w / scale
        if new_lam > 0 and abs(new_lam - lam) <= tol * new_lam:
            return float(np.sqrt(new_lam))
        lam = new_lam
    raise NoConvergenceError(
        f"power iteration did not settle within {POWER_ITER_MAX} iterations"
    )


def cv_functional(sym: PlaneWavePhaseSymbol, x_axis, xi_axis) -> float:
    """max over mixed first derivatives (at most one per axis) of sup norms.

    pi(a) = max_{beta, gamma in {0,1}^n} sup |d_x^beta d_xi^gamma a|,
    the quantity controlling the operator norm of Op(a).  Each
    derivative is exact (termwise); the sup is taken over the product
    grid x_axis^n x xi_axis^n.
    """
    n = sym.n
    x_pts = np.stack(np.meshgrid(*([x_axis] * n), indexing="ij"), axis=-1)
    xi_pts = np.stack(np.meshgrid(*([xi_axis] * n), indexing="ij"), axis=-1)
    x_pts = x_pts.reshape(x_pts.shape[:-1] + (1,) * n + (n,))
    xi_pts = xi_pts.reshape((1,) * n + xi_pts.shape)
    best = 0.0
    for alpha in _iproduct((0, 1), repeat=2 * n):
        d = derivative(sym, alpha) if any(alpha) else sym
        best = max(best, float(_sample_norms(d.evaluate(x_pts, xi_pts)).max()))
    return best
