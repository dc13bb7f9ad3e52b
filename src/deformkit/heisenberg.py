"""Heisenberg group action, derivation norms, and the symbol map.

The projective translation-modulation group acts by

    U_{a,b,c} f(x) = exp(ic) exp(ib.x) f(x - a),

with composition law (a,b,c)(a',b',c') = (a+a', b+b', c+c'-a.b').
On the grid U is an operator like any other: its translation is the
lattice operator of the symbol exp(-i a.xi), and the conjugation
AdU(a,b)(A) = U A U* is a composition.  AdU shifts phase-space symbols,
its derivatives at the identity are the derivations delta^alpha, on a
lattice symbol the signed derivatives (-1)^|alpha| d^alpha, and the sums
and maxima of their operator norms give the hierarchy T_k, s_m and rho_m.
An operator keeps no symbol, so the hierarchy, rho_m, the symbol map and
its kernel bound take the lattice symbol a of A = Op(a) and the grid size.

The symbol map S reconstructs a(x, xi) from Op(a) through the rank-one
pairing with the kernels u and v built from the Green kernels of
(1 + d/dt): gamma1(t) = exp(-t) [t >= 0] and gamma2 = gamma1 * gamma1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .deformation import _czt_axis
from .errors import ConvergenceError, UnsupportedOperatorError
from .pseudodiff import (
    DiscretizedOperator, adjoint, op_from_phase_terms, operator_norm, phase_norms,
)
from .symbols import (
    PlaneWavePhaseSymbol, _axis_product, _check_order, _derivative_factors, _frequencies,
    axis_points, multi_indices,
)

__all__ = [
    "heisenberg_operator",
    "adu_conjugate",
    "delta_symbol",
    "rho_m",
    "differential_norm_T",
    "DifferentialNormReport",
    "differential_norms",
    "gamma1",
    "gamma2",
    "gamma2_prime",
    "d_apply",
    "d_inverse",
    "d_inverse_factor",
    "kernel_identity_residual",
    "kernel_u",
    "kernel_v",
    "symbol_map_S",
    "inverse_cv_bound",
]

# d_inverse: truncation point and Simpson step of the gamma2 transform.
D_INVERSE_T = 27.0
D_INVERSE_STEP = 0.005

# kernel_identity_residual: first lower eta limit and quadrature step.
KERNEL_ETA_FLOOR = -20.0
KERNEL_STEP = 1e-3

# symbol_map_S: the s, sigma and eta quadrature axes, and the finite
# difference step of the check of D at the origin.
SYMBOL_S_FLOOR = -25.0
SYMBOL_DS = 0.025
SYMBOL_SIGMA_SPAN = (-26.0, 25.0)
SYMBOL_DSIGMA = 0.0125
SYMBOL_ETA_FLOOR = -30.0
SYMBOL_DETA = 0.125
FD_STEP = 1e-2
_ETA_BLOCK_POINTS = 1 << 15  # sigma x eta values per eta block of symbol_map_S

# inverse_cv_bound: the exact kernel norms ||u||_2^2 = 303/32 and
# ||v||_2^2 = pi/4.
KERNEL_U_L2 = float(np.sqrt(303.0 / 32.0))
KERNEL_V_L2 = float(np.sqrt(np.pi / 4.0))


def heisenberg_operator(geometry, a, b, c: float = 0.0) -> DiscretizedOperator:
    """U_{a,b,c} g = exp(ic) exp(ib.x) g(. - a) on the grid of geometry (n, N, L, k).

    The translation is the lattice operator of the one-term symbol
    exp(-i a.xi) (m = 0, w = -a, coefficient I_k), exact on the periodic
    grid for every a; the phase exp(ic) exp(ib.x) is pointwise on the
    principal branch [-L, L).  Both factors are unitary, so U is, and its
    adjoint is the lattice adjoint after the conjugate phase.  Modulations
    that are characters of the box (b in (pi/L) Z^n) respect periodicity
    and make the group law exact; other b differ from the continuum action
    by boundary wrap terms, so they suit vectors with negligible boundary
    mass.  a and b need one entry per axis (ValueError otherwise).
    """
    n, N, L, k = geometry
    a, b = tuple(float(v) for v in a), tuple(float(v) for v in b)
    if len(a) != n or len(b) != n:
        raise ValueError(f"translation {a} and modulation {b} need {n} entries each")
    shift = op_from_phase_terms(
        PlaneWavePhaseSymbol(n, L, k, (((0,) * n, tuple(-v for v in a), np.eye(k)),)), N)
    x = np.meshgrid(*([axis_points(N, L)] * n), indexing="ij")
    phase = np.exp(1j * (float(c) + sum(bj * xj for bj, xj in zip(b, x))))[..., None, None]
    return DiscretizedOperator(
        geometry, geometry,
        lambda values: phase * shift.forward(values),
        lambda values: shift.adjoint_fn(np.conj(phase) * values),
    )


def adu_conjugate(op: DiscretizedOperator, a, b) -> DiscretizedOperator:
    """AdU(a,b)(A) = U A U* with U = U_{a,b}; U* = U^{-1} as U is unitary on the grid.

    The composition chains both closures, so U A* U* is the exact adjoint
    of U A U*.  For A = Op(sigma) it is Op(sigma(. - a, . - b)).
    A must act on one box: composing with U raises GridMismatchError otherwise.
    """
    U = heisenberg_operator(op.geometry_in, a, b)
    return U @ op @ adjoint(U)


def delta_symbol(sym: PlaneWavePhaseSymbol, alpha) -> PlaneWavePhaseSymbol:
    """Derivation delta^alpha: d^alpha/d(a,b)^alpha of AdU(a,b) at 0.

    alpha has length 2n (translation axes then modulation axes); each
    unit step multiplies a term by -i omega_j or -i w_j, so delta^alpha is
    the signed symbol derivative (-1)^|alpha| d^alpha, with its index checks.
    """
    alpha = _check_order(alpha, 2 * sym.n)
    return sym.scale_terms((-1) ** sum(alpha) * _derivative_factors(sym, alpha))


def _derivation_norms(sym: PlaneWavePhaseSymbol, N: int, orders) -> list:
    """For each k of orders, the norms of Op(delta^alpha sym) on the N-point grid over
    |alpha| = k, in one lockstep run over every alpha."""
    alphas = [multi_indices(2 * sym.n, k, exact=True) for k in orders]
    norms = iter(phase_norms([delta_symbol(sym, a) for group in alphas for a in group], N))
    return [[next(norms) for _ in group] for group in alphas]


def rho_m(sym: PlaneWavePhaseSymbol, N: int, m: int) -> float:
    """max over |alpha| <= m of the norm of Op(d^alpha sym) on the N-point grid, which is
    that of Op(delta^alpha sym), in one lockstep run."""
    return max(max(group) for group in _derivation_norms(sym, N, range(m + 1)))


def _hierarchy(sym: PlaneWavePhaseSymbol, N: int, orders) -> list:
    """T_k(Op(sym)) for each k of orders: the norms of order k added in order (np.cumsum,
    not a pairwise sum), over k!."""
    return [float(np.cumsum(group)[-1]) / factorial(k)
            for k, group in zip(orders, _derivation_norms(sym, N, orders))]


def differential_norm_T(sym: PlaneWavePhaseSymbol, N: int, k: int) -> float:
    """T_k(A) = (1/k!) sum over |alpha| = k of the norm of delta^alpha A, A = Op(sym)
    on the N-point grid."""
    return _hierarchy(sym, N, [k])[0]


@dataclass(frozen=True)
class DifferentialNormReport:
    """T_k values and their partial sums s_m = sum_{k <= m} T_k."""

    T: tuple
    s: tuple

    @property
    def op_norm(self) -> float:
        return self.T[0]


def differential_norms(sym: PlaneWavePhaseSymbol, N: int, m: int) -> DifferentialNormReport:
    """The hierarchy (T_0, ..., T_m) of Op(sym) on the N-point grid and the
    nondecreasing sums s_k, in one lockstep run."""
    T = _hierarchy(sym, N, range(m + 1))
    s = list(np.cumsum(T))
    return DifferentialNormReport(tuple(T), tuple(float(v) for v in s))


# ---------------------------------------------------------------------------
# Composite Simpson quadrature


def _simpson_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Nodes on [lo, hi] with an even number (at least 8) of intervals near step."""
    intervals = max(int(round((hi - lo) / step)), 8)
    intervals += intervals % 2
    return np.linspace(lo, hi, intervals + 1)


def _simpson_weights(axis: np.ndarray) -> np.ndarray:
    """Composite Simpson weights h/3 (1, 4, 2, ..., 2, 4, 1) on a _simpson_axis."""
    w = np.ones(axis.shape)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * ((axis[1] - axis[0]) / 3.0)


# ---------------------------------------------------------------------------
# Green kernels and the D calculus


def gamma1(t):
    """Green kernel of (1 + d/dt): exp(-t) on t >= 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, np.exp(-np.clip(t, 0.0, None)), 0.0)


def gamma2(t):
    """gamma1 * gamma1: t exp(-t) on t >= 0, the kernel of (1 + d/dt)^-2."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, t * np.exp(-np.clip(t, 0.0, None)), 0.0)


def gamma2_prime(t):
    """(1 - t) exp(-t) on t >= 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, (1.0 - t) * np.exp(-np.clip(t, 0.0, None)), 0.0)


def d_apply(sym: PlaneWavePhaseSymbol) -> PlaneWavePhaseSymbol:
    """D = prod_j (1 + d_{x_j})^2 (1 + d_{xi_j})^2 on lattice terms (exact): each term
    times (1 + i nu)^2 over its frequencies nu."""
    return sym.scale_terms(_axis_product(sym, (1.0 + 1j * _frequencies(sym)) ** 2))


def d_inverse_factor(nu: float) -> complex:
    """int_0^T gamma2(s) exp(-i nu s) ds by Simpson quadrature, T = D_INVERSE_T read per call.

    The analytic value is (1 + i nu)^{-2}; the quadrature keeps the
    inverse route independent.  ConvergenceError when the dropped tail
    (1 + T) exp(-T) exceeds 1e-10.
    """
    T = D_INVERSE_T
    tail = (1.0 + T) * np.exp(-T)
    if tail > 1e-10:
        raise ConvergenceError(
            f"gamma2 tail {tail:.2e} beyond T={T} exceeds 1e-10"
        )
    s = _simpson_axis(0.0, T, D_INVERSE_STEP)
    vals = gamma2(s) * np.exp(-1j * nu * s)
    return complex(np.sum(_simpson_weights(s) * vals))


def d_inverse(sym: PlaneWavePhaseSymbol) -> PlaneWavePhaseSymbol:
    """Inverse of D by the gamma2 x gamma2 convolution, termwise: each term times, over
    its frequencies nu, the quadrature factor int gamma2(s) exp(-i nu s) ds, computed
    once per distinct nu."""
    freqs = _frequencies(sym)
    nus, index = np.unique(freqs, return_inverse=True)
    per_nu = np.array([d_inverse_factor(float(nu)) for nu in nus], dtype=np.complex128)
    return sym.scale_terms(_axis_product(sym, per_nu[index.reshape(freqs.shape)]))


# ---------------------------------------------------------------------------
# The rank-one kernels and the symbol map


def kernel_v(t, eta):
    """v(t, eta) = gamma1(t - eta) / (1 + i t)^2 (broadcasting)."""
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return gamma1(t - eta) / (1.0 + 1j * t) ** 2


def kernel_u(s, eta):
    """u(s, eta); conj(u) = (1 + d_eta)[(1+i eta)^2 gamma2(-s) gamma2(-eta) e^{-i s eta}]."""
    s = np.asarray(s, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g2 = gamma2(-eta)
    g2p = gamma2_prime(-eta)
    bracket = (
        (1.0 + 1j * s) * (1.0 - 1j * eta) ** 2 * g2
        - 2j * (1.0 - 1j * eta) * g2
        - (1.0 - 1j * eta) ** 2 * g2p
    )
    return gamma2(-s) * np.exp(1j * s * eta) * bracket


def kernel_identity_residual(s: float, t: float) -> float:
    """Residual of int conj(u(s, eta)) v(t, eta) deta = gamma2(-s) gamma2(-t) e^{-i s t}.

    The integrand lives on eta <= min(0, t) and decays like exp(2 eta);
    the truncation is extended until its edge magnitude drops below
    1e-12 of the peak (ConvergenceError if that fails).
    """
    upper = min(0.0, float(t))
    floor = KERNEL_ETA_FLOOR
    for _ in range(8):
        eta = _simpson_axis(floor, upper, KERNEL_STEP)
        vals = np.conj(kernel_u(s, eta)) * kernel_v(t, eta)
        peak = float(np.abs(vals).max())
        if peak == 0.0 or float(np.abs(vals[0])) <= 1e-12 * peak:
            break
        floor *= 2.0
    else:
        raise ConvergenceError("kernel integrand tail does not decay below 1e-12")
    quad = complex(np.sum(_simpson_weights(eta) * vals))
    target = complex(gamma2(-s) * gamma2(-t) * np.exp(-1j * s * t))
    return abs(quad - target)


def _fd_d_value(sym: PlaneWavePhaseSymbol, x0: float, xi0: float) -> np.ndarray:
    """D sym at one point by central differences with one Richardson step.

    (1 + d)^2 = 1 + 2 d + d^2 is the 3-point stencil (1/h^2 - 1/h,
    1 - 2/h^2, 1/h^2 + 1/h) at offsets (-h, 0, h); D is its outer product
    over the x and xi axes.
    """

    def d_at(h):
        stencil = np.array([1.0 / h ** 2 - 1.0 / h, 1.0 - 2.0 / h ** 2, 1.0 / h ** 2 + 1.0 / h])
        offsets = np.array([-h, 0.0, h])
        vals = sym.evaluate((x0 + offsets)[:, None, None], (xi0 + offsets)[None, :, None])
        return np.sum(np.outer(stencil, stencil)[..., None, None] * vals, axis=(0, 1))

    return (4.0 * d_at(FD_STEP / 2.0) - d_at(FD_STEP)) / 3.0


def symbol_map_S(sym: PlaneWavePhaseSymbol, x_points, xi_points) -> np.ndarray:
    """S(Op(sym)) at phase-space points: the symbol reconstructed from its operator.

    S(A)(x, xi) = sqrt(2 pi) < u . 1, {(Op(b_{x,xi}) F^{-1}) (x) I} v . 1 >
    with b = D a and b_{x,xi} = b(. + x, . + xi); the pairing collapses
    through the kernel identity and the gamma2 smoothing inverts D, so
    S(Op(a)) = a.  As b is a sum of plane waves, the Simpson-weighted
    pairing scales each term b_t by one number K(omega_t, w_t) =
    sum_s e^{i omega s} sum_eta u(s, eta) sum_sigma e^{i (s + w) sigma}
    v(sigma, eta); the sigma sum is a chirp-z transform.  It streams eta
    in blocks of _ETA_BLOCK_POINTS sigma x eta values and adds each block's
    eta sum into one s row per distinct w, so no table spans the eta axis:
    memory O(|w| |s|) plus one eta block, about 2.0 MiB traced on the
    symbol-map suite.  One-dimensional symbols only
    (UnsupportedOperatorError otherwise).  The D route is cross-checked
    once at the origin against finite differences (ConvergenceError
    beyond 1e-3 relative).
    """
    if sym.n != 1:
        raise UnsupportedOperatorError("symbol map is implemented for n = 1")
    b = d_apply(sym)
    symbolic, fd = b.evaluate(0.0, 0.0), _fd_d_value(sym, 0.0, 0.0)
    gap = np.abs(symbolic - fd).max() / max(np.abs(symbolic).max(), np.abs(fd).max(), 1e-12)
    if gap > 1e-3:
        raise ConvergenceError(f"D routes disagree at the origin by {gap:.2e} relative")

    s_ax = _simpson_axis(SYMBOL_S_FLOOR, 0.0, SYMBOL_DS)
    sig_ax = _simpson_axis(*SYMBOL_SIGMA_SPAN, SYMBOL_DSIGMA)
    eta_ax = _simpson_axis(SYMBOL_ETA_FLOOR, 0.0, SYMBOL_DETA)
    # composite Simpson weights; plain sums bias the oscillatory pairing
    s_wt, sig_wt, eta_wt = (_simpson_weights(ax) for ax in (s_ax, sig_ax, eta_ax))
    # sigma = sigma_c + m dsigma over the centered index m, so the chirp-z
    # with L = pi and scale dsigma sums e^{i m dsigma y} at y = s + w
    sig_c = sig_ax[len(sig_ax) // 2]
    ws, index = np.unique(b.terms["w"][:, 0], return_inverse=True)
    # pairings[i] = sum_eta u_w V_w e^{i y sigma_c} for w = ws[i], added one eta block at a time
    pairings = np.zeros((len(ws), len(s_ax)), dtype=np.complex128)
    u_peak = u_tail = 0.0
    width = max(1, _ETA_BLOCK_POINTS // len(sig_ax))
    for j in range(0, len(eta_ax), width):
        cols = slice(j, j + width)
        u = np.conj(kernel_u(s_ax[:, None], eta_ax[None, cols]))
        # v's sup over sigma never decays in eta (sigma chases eta), so the
        # truncation control lives in u's exponential gamma2(-eta) factor
        u_peak = max(u_peak, float(np.abs(u).max()))
        u_tail = u_tail if j else float(np.abs(u[:, 0]).max())
        u *= s_wt[:, None] * eta_wt[None, cols]
        v = kernel_v(sig_ax[:, None], eta_ax[None, cols]) * sig_wt[:, None]
        for row, w in zip(pairings, ws):
            y = s_ax + w
            V = _czt_axis(v, 0, np.pi, sig_ax[1] - sig_ax[0], y[0], s_ax[1] - s_ax[0], len(y))
            V *= np.exp(1j * y * sig_c)[:, None]
            V *= u
            row += V.sum(axis=1)
            del V  # before the next pass's padded buffer
        del u, v  # before the next block's kernels
    if u_peak > 0 and u_tail > 1e-6 * u_peak:
        raise ConvergenceError("eta truncation leaves kernel tail mass above 1e-6")

    pairings = pairings[index]
    om = b.omega(b.terms["m"])
    multiplier = np.sum(np.exp(1j * om * s_ax) * pairings, axis=1)

    x_points = np.atleast_1d(np.asarray(x_points, dtype=float))
    xi_points = np.atleast_1d(np.asarray(xi_points, dtype=float))
    return b.scale_terms(multiplier).evaluate(
        x_points[:, None, None], xi_points[None, :, None])


def inverse_cv_bound(sym: PlaneWavePhaseSymbol, N: int) -> float:
    """sqrt(2 pi) ||u||_2 ||v||_2 ||Op(D a)||, a = sym, Op on the N-point grid.

    The symbol map's Cauchy-Schwarz estimate bounds sup |a| by this
    multiple of the operator norm of Op(D a); the kernel norms are exact.
    """
    if sym.n != 1:
        raise UnsupportedOperatorError("kernel bound is implemented for n = 1")
    norm_b = operator_norm(op_from_phase_terms(d_apply(sym), N))
    return float(np.sqrt(2.0 * np.pi) * KERNEL_U_L2 * KERNEL_V_L2 * norm_b)
