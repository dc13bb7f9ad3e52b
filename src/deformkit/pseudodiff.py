"""Matrix-coefficient operators on the discretized module.

Operators act on ModuleVector data by left multiplication of the k x k
values, so they commute with the right module action g . c.  An
operator built from phase-space lattice terms

    a(x, xi) = sum_t c_t exp(i (omega_t . x + w_t . xi)),
    Op(a) g (x) = sum_t c_t exp(i omega_t . x) g(x + w_t),

acts exactly on the periodic grid: in the coefficient domain each term
is an index shift by m_t (omega_t = pi m_t / L) together with the phase
ramp exp(2 pi i p . w_t), so modulation and translation are both exact.
The adjoint of such an operator is the operator of the dagger symbol,
and compositions stay inside the lattice class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _iproduct

import numpy as np

from .deformation import _compose_terms, _dagger_terms, _lattice_action, tilde_map
from .errors import (
    GridMismatchError,
    NoConvergenceError,
    UnsupportedOperatorError,
)
from .symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
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
    """Linear operator between discretized modules.

    forward maps value arrays of geometry_in to geometry_out.  When the
    operator is a lattice phase-term sum its terms are carried along,
    keeping adjoints and compositions exact; otherwise an explicit
    adjoint closure may be supplied.
    """

    geometry_in: tuple
    geometry_out: tuple
    forward: object
    adjoint_fn: object = None
    terms: PlaneWavePhaseSymbol | None = None
    label: str = field(default="")

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
        adj = None
        if self.adjoint_fn is not None and other.adjoint_fn is not None:
            mine, theirs = self.adjoint_fn, other.adjoint_fn

            def adj(values):
                return theirs(mine(values))

        def fwd(values, first=other.forward, second=self.forward):
            return second(first(values))

        return DiscretizedOperator(
            other.geometry_in, self.geometry_out, fwd, adj, terms,
            label=f"{self.label}.{other.label}",
        )

    def __matmul__(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        return self.compose(other)


def op_from_phase_terms(sym: PlaneWavePhaseSymbol, N: int,
                        label: str = "op") -> DiscretizedOperator:
    """Operator of a phase-space lattice symbol, exact on the periodic grid."""
    geometry = (sym.n, N, sym.L, sym.k)
    return DiscretizedOperator(
        geometry,
        geometry,
        _lattice_action(sym, N),
        _lattice_action(sym, N, adjoint=True),
        sym,
        label=label,
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
    return op_from_phase_terms(sym, N, label="L_f")


def multiplier_operator(phi, n: int, N: int, L: float, k: int = 1,
                        label: str = "multiplier") -> DiscretizedOperator:
    """Operator of a frequency-only symbol phi(xi): diagonal after Fourier.

    phi is a callable taking arrays of angular frequencies per axis (as
    a mesh) and returning scalar or k x k samples.
    """
    axes = tuple(range(n))
    xi = dual_axis_points(N, L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij") if n > 1 else [xi]
    vals = np.asarray(phi(*mesh), dtype=np.complex128)
    if vals.shape == (N,) * n:
        vals = vals[..., None, None] * np.eye(k)
    samples = vals

    def forward(values):
        ghat = centered_dft(values, axes)
        ghat = np.einsum("...ab,...bc->...ac", samples, ghat)
        return centered_idft(ghat, axes) / float(N) ** n

    adj_samples = np.conj(np.swapaxes(samples, -1, -2))

    def adjoint_fn(values):
        ghat = centered_dft(values, axes)
        ghat = np.einsum("...ab,...bc->...ac", adj_samples, ghat)
        return centered_idft(ghat, axes) / float(N) ** n

    geometry = (n, N, L, k)
    return DiscretizedOperator(geometry, geometry, forward, adjoint_fn, None, label=label)


def multiplication_operator(psi: GridSymbol, label: str = "multiplication"):
    """Pointwise left multiplication by a sampled symbol."""
    samples = psi.values

    def forward(values):
        return np.einsum("...ab,...bc->...ac", samples, values)

    adj_samples = np.conj(np.swapaxes(samples, -1, -2))

    def adjoint_fn(values):
        return np.einsum("...ab,...bc->...ac", adj_samples, values)

    geometry = psi.geometry()
    return DiscretizedOperator(geometry, geometry, forward, adjoint_fn, None, label=label)


def fourier_operator(n: int, N: int, L: float, k: int = 1,
                     inverse: bool = False) -> DiscretizedOperator:
    """The unitary Fourier transform between the box and its dual box."""
    axes = tuple(range(n))
    L_dual = np.pi * N / (2.0 * L)
    dx = 2.0 * L / N
    dxi = 2.0 * L_dual / N
    if not inverse:
        scale = (2.0 * np.pi) ** (-n / 2.0) * dx ** n

        def forward(values):
            return centered_dft(values, axes) * scale

        def adjoint_fn(values):
            return centered_idft(values, axes) * ((2.0 * np.pi) ** (-n / 2.0) * dxi ** n)

        geo_in, geo_out = (n, N, L, k), (n, N, L_dual, k)
    else:
        scale = (2.0 * np.pi) ** (-n / 2.0) * dxi ** n

        def forward(values):
            return centered_idft(values, axes) * scale

        def adjoint_fn(values):
            return centered_dft(values, axes) * ((2.0 * np.pi) ** (-n / 2.0) * dx ** n)

        geo_in, geo_out = (n, N, L_dual, k), (n, N, L, k)
    return DiscretizedOperator(
        geo_in, geo_out, forward, adjoint_fn, None,
        label="fourier_inv" if inverse else "fourier",
    )


def adjoint(op: DiscretizedOperator) -> DiscretizedOperator:
    """Adjoint with respect to the weighted L2 inner product.

    Uses the exact adjoint closure (matrix adjoint of the forward
    action); lattice-term operators carry the dagger symbol along as
    the adjoint's symbolic representation.
    """
    terms = _dagger_terms(op.terms) if op.terms is not None else None
    if op.adjoint_fn is not None:
        return DiscretizedOperator(
            op.geometry_out, op.geometry_in, op.adjoint_fn, op.forward, terms,
            label=f"{op.label}*",
        )
    if terms is not None:
        N = op.geometry_in[1]
        return DiscretizedOperator(
            op.geometry_out, op.geometry_in,
            _lattice_action(op.terms, N, adjoint=True), op.forward, terms,
            label=f"{op.label}*",
        )
    raise UnsupportedOperatorError(
        f"operator {op.label!r} has neither lattice terms nor an adjoint closure"
    )


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
