"""Matrix-coefficient operators on the discretized module.

Operators act on ModuleVector data by left multiplication of the k x k
values, so they commute with the right module action g . c.  An
operator built from phase-space lattice terms

    a(x, xi) = sum_t c_t exp(i (omega_t . x + w_t . xi)),
    Op(a) g (x) = sum_t c_t exp(i omega_t . x) g(x + w_t),

acts exactly on the periodic grid: in the coefficient domain each term
is an index shift by m_t (omega_t = pi m_t / L) together with the phase
ramp exp(2 pi i p . w_t), so modulation and translation are both exact.
An operator is its action: a forward closure and its exact adjoint
closure, which adjoints swap and compositions chain.  It keeps no
symbol; the symbol calculus (derivation norms, the symbol map) takes the
lattice symbol itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .deformation import _LatticePlan, _plan_batches, tilde_map
from .errors import GridMismatchError, NoConvergenceError
from .symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    _LatticeFold,
    _derivative_factors,
    _same_geometry,
    _sample_norms,
    centered_dft,
    centered_idft,
)

__all__ = [
    "DiscretizedOperator",
    "ModuleVector",
    "op_from_phase_terms",
    "rieffel_operator",
    "fourier_operator",
    "adjoint",
    "operator_norm",
    "phase_norms",
    "cv_functional",
]

NORM_SEED = 0x5EED
NORM_TOL = 1e-8
NORM_MAX_STEPS = 10_000
# values (samples times k^2) per chunk of xi points in cv_functional
_CV_CHUNK_VALUES = 1 << 18


@dataclass
class DiscretizedOperator:
    """Linear operator between discretized modules, with its exact adjoint.

    forward maps value arrays of geometry_in to geometry_out and adjoint_fn
    is its exact matrix adjoint, from geometry_out back to geometry_in.
    """

    geometry_in: tuple
    geometry_out: tuple
    forward: object
    adjoint_fn: object

    def __call__(self, g: ModuleVector) -> ModuleVector:
        if not _same_geometry(g.geometry(), self.geometry_in):
            raise GridMismatchError(
                f"operator expects geometry {self.geometry_in}, got {g.geometry()}"
            )
        n, N, L, k = self.geometry_out
        return ModuleVector(n, N, L, self.forward(g.values))

    def compose(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        if not _same_geometry(other.geometry_out, self.geometry_in):
            raise GridMismatchError("operator domains do not chain")
        return DiscretizedOperator(
            other.geometry_in, self.geometry_out, _chain(other.forward, self.forward),
            _chain(self.adjoint_fn, other.adjoint_fn),
        )

    def __matmul__(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        return self.compose(other)


def _chain(first, second):
    """values -> second(first(values))."""
    return lambda values: second(first(values))


def op_from_phase_terms(sym: PlaneWavePhaseSymbol, N: int) -> DiscretizedOperator:
    """Operator of a phase-space lattice symbol, exact on the periodic grid.

    N must be a power of two, as for grid symbols: the lattice kernel folds
    its axis-0 transforms for such grids (_LatticePlan raises ValueError otherwise).
    """
    geometry, plan = (sym.n, N, sym.L, sym.k), _LatticePlan(sym, N)
    return DiscretizedOperator(geometry, geometry, plan.forward, plan.adjoint)


def rieffel_operator(
    f, J: DeformationMatrix, N: int | None = None
) -> DiscretizedOperator:
    """Deformed left action L_f: L_f g = f x_J g realized on the grid.

    L_f g (x) = sum_p fhat_p exp(2 pi i p.x) g(x + Jp), the twisted
    translation sum.  Composition satisfies L_f L_g = L_{f x_J g}
    exactly when every translation Jp is a multiple of the grid step
    2L/N (commuting a translation past a modulation otherwise picks up
    a wrap factor on the band-edge modes); for other J the identity
    holds up to the spectral truncation of the factors.  The same
    condition, theta N / (4 L^2) an integer for J = symplectic(theta), makes
    it a *-representation, L_{f*} = L_f^*: frequencies m and m + N agree on
    the grid, and their translations then differ by whole periods.  Off it,
    a real Gaussian G gives a non-self-adjoint L_G (largest entry of
    L_G - L_G^* 2.2e-2 at N = 32, L = 6, theta = 0.25; 1.4e-17 at theta =
    4.5).  N defaults to the grid of a grid symbol; a plane-wave symbol
    needs it (ValueError).
    """
    if N is None and not isinstance(f, GridSymbol):
        raise ValueError("a plane-wave symbol needs the grid size N")
    return op_from_phase_terms(tilde_map(f, J), f.N if N is None else N)


def fourier_operator(n: int, N: int, L: float, k: int = 1) -> DiscretizedOperator:
    """The unitary Fourier transform from the box to its dual box; its adjoint
    is the inverse transform."""
    axes = tuple(range(n))
    L_dual = np.pi * N / (2.0 * L)
    dx = 2.0 * L / N
    dxi = 2.0 * L_dual / N

    def dft(values):
        return centered_dft(values, axes) * ((2.0 * np.pi) ** (-n / 2.0) * dx ** n)

    def idft(values):
        return centered_idft(values, axes) * ((2.0 * np.pi) ** (-n / 2.0) * dxi ** n)

    return DiscretizedOperator((n, N, L, k), (n, N, L_dual, k), dft, idft)


def adjoint(op: DiscretizedOperator) -> DiscretizedOperator:
    """Adjoint with respect to the weighted L2 inner product: the forward
    action and its exact adjoint swapped."""
    return DiscretizedOperator(op.geometry_out, op.geometry_in, op.adjoint_fn, op.forward)


def operator_norm(op: DiscretizedOperator) -> float:
    """Spectral norm by the Lanczos recurrence on A*A: _lanczos on a batch of one,
    through the operator's own forward and adjoint closures.

    NoConvergenceError after NORM_MAX_STEPS steps, or at once when an
    application gives a non-finite alpha or beta.
    """
    n, N, L, k = op.geometry_in
    return _lanczos(lambda V: op.adjoint_fn(op.forward(V[0]))[None], (N,) * n + (k, k), 1)[0]


def phase_norms(symbols, N: int) -> list:
    """Operator norms of lattice phase symbols of one box on the N-point grid, in order.

    Bit for bit operator_norm(op_from_phase_terms(sym, N)) for each
    symbol, run as one lockstep Lanczos over one batched _LatticePlan:
    every step is one batched A*A over the members still running.  The
    symbols are split into consecutive runs whose kernel spectra fit
    _KEPT_BYTES and _BATCH_BYTES as a whole; a run is one batch
    (deformation._plan_batches).
    """
    norms = []
    for batch, groups in _plan_batches(list(symbols), N):
        plan, sym = _LatticePlan(batch, N, groups), batch[0]
        norms += _lanczos(lambda V, plan=plan: plan.adjoint(plan.forward(V)),
                          (N,) * sym.n + (sym.k, sym.k), len(batch), plan.keep)
    return norms


def _lanczos(gram, shape: tuple, count: int, keep=None) -> list:
    """Spectral norms of count operators A_i by lockstep Lanczos recurrences on A_i* A_i.

    gram(V) maps the stacked vectors V, one row per running member, to the
    rows A_i* A_i V_i; keep(rows) drops from gram the members where the
    boolean rows is False.  Each member runs the symmetric three-term
    recurrence from the same seeded random start (NORM_SEED) and keeps only
    its last two Lanczos vectors and the coefficients alpha_j, beta_j of its
    tridiagonal T_k.  It stops when the residual beta_k |s_k| of the top Ritz
    pair of T_k is at most NORM_TOL * theta_k (NORM_TOL read once per call),
    with the norm sqrt(theta_k), which approaches it from below, and leaves
    the batch.  The batch shares only the applications: start, recurrence,
    Ritz solve and stop are per member, so each member's bits are those of
    its solo run.  NoConvergenceError after NORM_MAX_STEPS steps, or at once
    when an application gives a non-finite alpha or beta.
    """
    tol, rng = NORM_TOL, np.random.default_rng(NORM_SEED)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v /= _real_dot(v, v) ** 0.5
    V = np.repeat(v[None], count, axis=0)
    V_prev = np.zeros_like(V)
    live = list(range(count))  # original index of each row
    norms = [0.0] * count
    # per member: alpha_1, the pivot pairs (alpha_j, beta_{j-1}) of _top_ritz, theta and
    # the residual; per row: the last beta
    first, pairs = [0.0] * count, [[] for _ in range(count)]
    beta, theta, residual = [0.0] * count, [0.0] * count, [0.0] * count
    # per-row coefficients: a column of complex values (as a Python float becomes, so no
    # mixed-type ufunc loop), or the one row's float, multiplied without a broadcast
    column = (slice(None),) + (None,) * len(shape)

    def rows_of(values):
        return values[0] if len(values) == 1 else np.array(values, dtype=complex)[column]

    beta_rows = rows_of(beta)
    for step in range(NORM_MAX_STEPS):
        W = gram(V)
        alpha = _real_dots(V, W)
        W = W - rows_of(alpha) * V  # a new array: gram's own output is never written
        W -= beta_rows * V_prev
        dots = _real_dots(W, W)
        settled = []
        for j, i in enumerate(live):
            a, b = alpha[j], dots[j] ** 0.5
            if not (math.isfinite(a) and math.isfinite(b)):
                raise NoConvergenceError(f"non-finite Lanczos step: alpha {a}, beta {b}")
            if step:
                pairs[i].append((a, beta[j]))
                theta[i], s = _top_ritz(first[i], pairs[i], theta[i], residual[i])
            else:
                first[i], theta[i], s = a, a, 1.0
            beta[j] = b
            residual[i] = b * s
            if residual[i] <= tol * theta[i]:
                norms[i] = math.sqrt(max(theta[i], 0.0))
                settled.append(j)
        if settled:
            if len(settled) == len(live):
                return norms
            rows = np.ones(len(live), dtype=bool)
            rows[settled] = False
            live = [i for i, r in zip(live, rows) if r]
            beta = [b for b, r in zip(beta, rows) if r]
            V, W = V[rows], W[rows]
            keep(rows)
        beta_rows = rows_of(beta)
        W /= beta_rows
        V_prev, V = V, W
    raise NoConvergenceError(f"Lanczos did not settle within {NORM_MAX_STEPS} steps")


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> by einsum over the float views: no BLAS, so no thread-dependent rounding."""
    return float(np.einsum("i,i->", a.reshape(-1).view(np.float64),
                           b.reshape(-1).view(np.float64)))


def _real_dots(A: np.ndarray, B: np.ndarray) -> list:
    """Re <A_i, B_i> for each row i: _real_dot row by row, so each is its bits."""
    return list(map(_real_dot, A, B))


def _top_ritz(first: float, pairs: list, pole: float, r: float) -> tuple:
    """Top eigenvalue of the Lanczos matrix T_k and the last entry of its eigenvector.

    T_k has diagonal alpha_1 = first, alpha_2, ..., alpha_k and off-diagonal
    beta_1, ..., beta_{k-1}, given as the pivot pairs (alpha_j, beta_{j-1}) for
    j = 2, ..., k, a list that grows by one pair per Lanczos step; pole is the
    top eigenvalue of T_{k-1} and r = beta_{k-1} |s_{k-1}| its residual.  By
    interlacing and Weyl the root lies in [pole, max(pole, alpha_k) +
    beta_{k-1}], and the top eigenvalue of [[pole, r], [r, alpha_k]] is a
    lower bound to start from.  Above the pole every leading pivot of
    x - T_k is positive, and the last one, d_k(x), has the root as its only
    zero and a pole of residue -r^2 at the pole.  Newton runs on
    (x - pole) d_k(x), which is smooth there; bisection guards the bracket.
    |s_k| then comes from the bottom-up pivots, whose products are the
    eigenvector's entries.  Each pass is O(k).
    """
    a_k, beta = pairs[-1]
    lo, hi = pole, max(pole, a_k) + beta
    x = min(max(0.5 * (pole + a_k) + math.hypot(0.5 * (pole - a_k), r), lo), hi)
    while True:
        d, slope = x - first, 1.0
        for a, b in pairs:
            if d <= 0.0:
                lo = x  # below the top eigenvalue of a leading block
                break
            q = b / d
            slope = 1.0 + q * q * slope
            d = x - a - b * q
        else:
            if d > 0.0:
                hi = x
            else:
                lo = x
            t = x - pole
            dg = d + t * slope  # derivative of (x - pole) d_k(x)
            if dg > 0.0:
                step = x - t * d / dg
                if step == x:
                    break
                if lo < step < hi:
                    x = step
                    continue
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        x = mid
    # bottom-up pivots D_j of x - T_k: eigenvector entry j is entry j + 1 times
    # D_{j+1} / beta_j, from entry k = 1; D_j = x - alpha_j - beta_j^2 / D_{j+1}
    entry, total, carry = 1.0, 1.0, 0.0
    for a, b in reversed(pairs):
        D = x - a - carry
        if D <= 0.0:
            return x, 1.0
        entry *= D / b
        total += entry * entry
        carry = b * b / D
    return x, total ** -0.5


def cv_functional(sym: PlaneWavePhaseSymbol, points: int, xi_axis) -> float:
    """max over mixed first derivatives (at most one per axis) of sup norms.

    pi(a) = max_{beta, gamma in {0,1}^n} sup |d_x^beta d_xi^gamma a|, the quantity
    controlling the operator norm of Op(a).  Each derivative is exact (termwise); the sup
    is taken over the product grid x^n x xi_axis^n, x_j = -L + j 2L/points on the symbol's
    own box (axis_points(points, L) for even points; ValueError unless points is a
    positive integer).  At each xi point every derivative is one fold of its terms, times
    exp(i w.xi), into the bins m mod points and one inverse FFT over them (_LatticeFold),
    for the xi points in chunks of _CV_CHUNK_VALUES.
    """
    if not isinstance(points, (int, np.integer)) or points < 1:
        raise ValueError(f"x points per axis must be a positive integer, got {points!r}")
    n, k, t, P, start = sym.n, sym.k, sym.terms, points, -sym.L
    om, w = sym.omega(t["m"]), t["w"]
    xi = np.stack(np.meshgrid(*([np.asarray(xi_axis, dtype=float)] * n), indexing="ij"),
                  axis=-1).reshape(-1, n)
    # each term at the grid's first point, and each derivative's factor
    c = np.exp(1j * start * om.sum(axis=1))[:, None, None] * t["c"]
    factors = [_derivative_factors(sym, alpha) for alpha in _iproduct((0, 1), repeat=2 * n)]
    fold = _LatticeFold(t["m"], P)
    chunk = max(1, _CV_CHUNK_VALUES // (max(len(t), P ** n) * k * k))
    best = 0.0
    for q in range(0, len(xi), chunk):
        arg = sum(w[:, ax, None] * xi[None, q:q + chunk, ax] for ax in range(n))
        waves = np.exp(1j * arg)[..., None, None] * c[:, None]  # (T, chunk, k, k)
        for factor in factors:
            samples = fold(factor[:, None, None, None] * waves, P)
            best = max(best, float(_sample_norms(samples).max()))
    return best
