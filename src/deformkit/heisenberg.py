"""Heisenberg group action, derivation norms, and the symbol map.

The projective translation-modulation group acts by

    U_{a,b,c} f(x) = exp(ic) exp(ib.x) f(x - a),

with composition law (a,b,c)(a',b',c') = (a+a', b+b', c+c'-a.b').
Conjugation AdU(a,b) shifts phase-space symbols, its derivatives at the
identity are the derivations delta, and the sums of their operator
norms give the differential norm hierarchy T_k and s_m.

The symbol map S reconstructs a(x, xi) from Op(a) through the rank-one
pairing with the kernels u and v built from the Green kernels of
(1 + d/dt): gamma1(t) = exp(-t) [t >= 0] and gamma2 = gamma1 * gamma1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np
from scipy.integrate import simpson

from .errors import ConvergenceError, UnsupportedOperatorError
from .pseudodiff import (
    DiscretizedOperator,
    ModuleVector,
    op_from_phase_terms,
    operator_norm,
)
from .symbols import (
    PlaneWavePhaseSymbol,
    centered_dft,
    centered_idft,
    derivative,
    multi_indices,
)

__all__ = [
    "HeisenbergElement",
    "heisenberg_act",
    "adu_conjugate",
    "shifted_symbol",
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
SYMBOL_N_ETA = 241
FD_STEP = 1e-2

# inverse_cv_bound: safety factor on the quadrature kernel norms, and the
# half-width and step of the square on which _kernel_l2 integrates.
CV_MARGIN = 1.05
KERNEL_L2_SPAN = 30.0
KERNEL_L2_STEP = 0.01


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element (a, b, c): translation a, modulation b, phase c."""

    a: tuple
    b: tuple
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "c", float(self.c))
        if len(self.a) != len(self.b):
            raise ValueError("translation and modulation parts differ in length")

    @classmethod
    def identity(cls, n: int) -> "HeisenbergElement":
        return cls((0.0,) * n, (0.0,) * n, 0.0)

    def compose(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """Group law: central phase picks up -a.b' from moving U_2 past U_1."""
        a1, b1 = np.asarray(self.a), np.asarray(self.b)
        a2, b2 = np.asarray(other.a), np.asarray(other.b)
        c = self.c + other.c - float(a1 @ b2)
        return HeisenbergElement(tuple(a1 + a2), tuple(b1 + b2), c)

    def inverse(self) -> "HeisenbergElement":
        a, b = np.asarray(self.a), np.asarray(self.b)
        return HeisenbergElement(tuple(-a), tuple(-b), -self.c - float(a @ b))


def heisenberg_act(el: HeisenbergElement, g: ModuleVector) -> ModuleVector:
    """U_{a,b,c} g = exp(ic) exp(ib.x) g(. - a) on the periodic grid.

    Translations commensurate with the grid are index rolls (exact);
    other shifts act through the trigonometric series.  Modulation and
    phase are pointwise, so the action is unitary.  Modulations that
    are characters of the box (b in (pi/L) Z^n) respect periodicity and
    make the group law exact; other b use the principal branch on
    [-L, L) and differ from the continuum action by boundary wrap
    terms, so they suit vectors with negligible boundary mass.
    """
    n, N, L = g.n, g.N, g.L
    dx = g.dx
    values = np.asarray(g.values)
    shifts = []
    commensurate = True
    for ax in range(n):
        steps = el.a[ax] / dx
        if abs(steps - round(steps)) > 1e-9:
            commensurate = False
            break
        shifts.append(int(round(steps)))
    axes = tuple(range(n))
    if commensurate:
        out = np.roll(values, shift=tuple(shifts), axis=axes)
    else:
        ghat = centered_dft(values, axes)
        half = N // 2
        lattice = (np.arange(N) - half) / (2.0 * L)
        for ax in range(n):
            ramp = np.exp(-2j * np.pi * lattice * el.a[ax])
            shape = [1] * ghat.ndim
            shape[ax] = N
            ghat = ghat * ramp.reshape(shape)
        out = centered_idft(ghat, axes) / float(N) ** n
    x = g.axis
    for ax in range(n):
        mod = np.exp(1j * el.b[ax] * x)
        shape = [1] * out.ndim
        shape[ax] = N
        out = out * mod.reshape(shape)
    return g.with_values(np.exp(1j * el.c) * out)


def shifted_symbol(sym: PlaneWavePhaseSymbol, a, b) -> PlaneWavePhaseSymbol:
    """sigma(. - a, . - b): each term picks up exp(-i(omega.a + w.b))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    terms = []
    for m, w, c in sym.terms:
        phase = np.exp(-1j * (float(sym.omega(m) @ a) + float(np.asarray(w) @ b)))
        terms.append((m, w, phase * c))
    return PlaneWavePhaseSymbol(sym.n, sym.L, sym.k, tuple(terms))


def _act_adjoint(el: HeisenbergElement, g: ModuleVector) -> ModuleVector:
    """Exact matrix adjoint of heisenberg_act(el, .) applied to g.

    The action factors as phase * modulation * translation; both
    translation branches are exactly unitary on the grid, so the adjoint
    is the reversed product of the inverted factors.  For incommensurate
    shifts combined with modulation this differs from acting with
    el.inverse() by a band-edge wrap, which the reversed order avoids.
    """
    n = len(el.a)
    zero = (0.0,) * n
    mod = HeisenbergElement(zero, tuple(-v for v in el.b), -el.c)
    shift = HeisenbergElement(tuple(-v for v in el.a), zero, 0.0)
    return heisenberg_act(shift, heisenberg_act(mod, g))


def adu_conjugate(op: DiscretizedOperator, a, b) -> DiscretizedOperator:
    """AdU(a,b)(A) = U_{a,b} A U_{a,b}^{-1}.

    The forward closure conjugates by the unitary action; when A carries
    a lattice symbol the shifted symbol sigma(. - a, . - b) rides along,
    so the two routes can be compared.
    """
    n, N, L, k = op.geometry_in
    el = HeisenbergElement(tuple(a), tuple(b), 0.0)
    inv = el.inverse()

    def make(fn):
        def conjugated(values):
            g = ModuleVector(n, N, L, values)
            return heisenberg_act(el, ModuleVector(n, N, L, fn(heisenberg_act(inv, g).values))).values

        return conjugated

    def make_adjoint(fn):
        def conjugated_adjoint(values):
            g = ModuleVector(n, N, L, values)
            mid = ModuleVector(n, N, L, fn(_act_adjoint(el, g).values))
            return _act_adjoint(inv, mid).values

        return conjugated_adjoint

    terms = shifted_symbol(op.terms, a, b) if op.terms is not None else None
    adj = make_adjoint(op.adjoint_fn) if op.adjoint_fn is not None else None
    return DiscretizedOperator(
        op.geometry_in, op.geometry_out, make(op.forward), adj, terms,
        label=f"AdU({op.label})",
    )


def delta_symbol(sym: PlaneWavePhaseSymbol, alpha) -> PlaneWavePhaseSymbol:
    """Derivation delta^alpha: d^alpha/d(a,b)^alpha of AdU(a,b) at 0.

    alpha has length 2n (translation axes then modulation axes); each
    unit step multiplies a term by -i omega_j or -i w_j.  Norms agree
    with plain symbol derivatives; the sign bookkeeping differs.
    """
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != 2 * sym.n:
        raise ValueError(f"delta index {alpha} needs length {2 * sym.n}")
    terms = []
    for m, w, c in sym.terms:
        om = sym.omega(m)
        factor = 1.0 + 0.0j
        for j in range(sym.n):
            factor *= (-1j * om[j]) ** alpha[j]
            factor *= (-1j * w[j]) ** alpha[sym.n + j]
        terms.append((m, w, factor * c))
    return PlaneWavePhaseSymbol(sym.n, sym.L, sym.k, tuple(terms))


def _require_terms(op: DiscretizedOperator) -> PlaneWavePhaseSymbol:
    if op.terms is None:
        raise UnsupportedOperatorError(
            f"operator {op.label!r} carries no lattice symbol"
        )
    return op.terms


def rho_m(op: DiscretizedOperator, m: int) -> float:
    """max over |alpha| <= m of the operator norm of Op(d^alpha sigma)."""
    sym = _require_terms(op)
    N = op.geometry_in[1]
    best = 0.0
    for alpha in multi_indices(2 * sym.n, m):
        d = derivative(sym, alpha) if any(alpha) else sym
        best = max(best, operator_norm(op_from_phase_terms(d, N)))
    return best


def differential_norm_T(op: DiscretizedOperator, k: int) -> float:
    """T_k(A) = (1/k!) sum over |alpha| = k of the norm of delta^alpha A."""
    sym = _require_terms(op)
    N = op.geometry_in[1]
    total = 0.0
    for alpha in multi_indices(2 * sym.n, k, exact=True):
        d = delta_symbol(sym, alpha)
        total += operator_norm(op_from_phase_terms(d, N))
    return total / factorial(k)


@dataclass(frozen=True)
class DifferentialNormReport:
    """T_k values and their partial sums s_m = sum_{k <= m} T_k."""

    order: int
    T: tuple
    s: tuple

    @property
    def op_norm(self) -> float:
        return self.T[0]


def differential_norms(op: DiscretizedOperator, m: int) -> DifferentialNormReport:
    """The hierarchy (T_0, ..., T_m) and the nondecreasing sums s_k."""
    T = [differential_norm_T(op, k) for k in range(m + 1)]
    s = list(np.cumsum(T))
    return DifferentialNormReport(m, tuple(T), tuple(float(v) for v in s))


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
    """D = prod_j (1 + d_{x_j})^2 (1 + d_{xi_j})^2 on lattice terms (exact)."""
    terms = []
    for m, w, c in sym.terms:
        om = sym.omega(m)
        factor = 1.0 + 0.0j
        for j in range(sym.n):
            factor *= (1.0 + 1j * om[j]) ** 2 * (1.0 + 1j * w[j]) ** 2
        terms.append((m, w, factor * c))
    return PlaneWavePhaseSymbol(sym.n, sym.L, sym.k, tuple(terms))


def d_inverse_factor(nu: float, T: float = D_INVERSE_T) -> complex:
    """int_0^T gamma2(s) exp(-i nu s) ds by Simpson quadrature.

    The analytic value is (1 + i nu)^{-2}; the quadrature keeps the
    inverse route independent.  ConvergenceError when the dropped tail
    (1 + T) exp(-T) exceeds 1e-10.
    """
    tail = (1.0 + T) * np.exp(-T)
    if tail > 1e-10:
        raise ConvergenceError(
            f"gamma2 tail {tail:.2e} beyond T={T} exceeds 1e-10"
        )
    count = int(np.ceil(T / D_INVERSE_STEP)) | 1
    s = np.linspace(0.0, T, count + 1)
    vals = gamma2(s) * np.exp(-1j * nu * s)
    return complex(simpson(vals, x=s))


def d_inverse(sym: PlaneWavePhaseSymbol) -> PlaneWavePhaseSymbol:
    """Inverse of D by the gamma2 x gamma2 convolution, termwise.

    Each axis contributes the quadrature factor int gamma2(s)
    exp(-i nu s) ds at the term frequency nu.
    """
    cache: dict[float, complex] = {}

    def factor(nu: float) -> complex:
        key = round(float(nu), 14)
        if key not in cache:
            cache[key] = d_inverse_factor(nu)
        return cache[key]

    terms = []
    for m, w, c in sym.terms:
        om = sym.omega(m)
        f = 1.0 + 0.0j
        for j in range(sym.n):
            f *= factor(om[j]) * factor(w[j])
        terms.append((m, w, f * c))
    return PlaneWavePhaseSymbol(sym.n, sym.L, sym.k, tuple(terms))


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
        count = max(int(np.ceil((upper - floor) / KERNEL_STEP)), 8) | 1
        eta = np.linspace(floor, upper, count + 1)
        vals = np.conj(kernel_u(s, eta)) * kernel_v(t, eta)
        peak = float(np.abs(vals).max())
        if peak == 0.0 or float(np.abs(vals[0])) <= 1e-12 * peak:
            break
        floor *= 2.0
    else:
        raise ConvergenceError("kernel integrand tail does not decay below 1e-12")
    quad = complex(simpson(vals, x=eta))
    target = complex(gamma2(-s) * gamma2(-t) * np.exp(-1j * s * t))
    return abs(quad - target)


def _fd_d_value(sym: PlaneWavePhaseSymbol, x0: float, xi0: float) -> complex:
    """D sym at one point by central differences with one Richardson step."""

    def eval_at(x, xi):
        return complex(
            sym.evaluate(np.array([x]), np.array([xi]))[0, 0]
        ) if sym.k == 1 else None

    def partial(fun, which, order, x, xi, hh):
        if order == 0:
            return fun(x, xi)
        if order == 1:
            if which == 0:
                return (fun(x + hh, xi) - fun(x - hh, xi)) / (2 * hh)
            return (fun(x, xi + hh) - fun(x, xi - hh)) / (2 * hh)
        if which == 0:
            return (fun(x + hh, xi) - 2 * fun(x, xi) + fun(x - hh, xi)) / hh ** 2
        return (fun(x, xi + hh) - 2 * fun(x, xi) + fun(x, xi - hh)) / hh ** 2

    def d_at(hh):
        total = 0.0 + 0.0j
        for i in range(3):
            for j in range(3):
                def mixed(x, xi, i=i, j=j):
                    def fx(xx, xxi):
                        return partial(eval_at, 1, j, xx, xxi, hh)

                    return partial(fx, 0, i, x, xi, hh)

                total += comb(2, i) * comb(2, j) * mixed(x0, xi0)
        return total

    coarse = d_at(FD_STEP)
    fine = d_at(FD_STEP / 2.0)
    return (4.0 * fine - coarse) / 3.0


def symbol_map_S(op: DiscretizedOperator, x_points, xi_points) -> np.ndarray:
    """Reconstruct the symbol of a lattice operator at phase-space points.

    S(A)(x, xi) = sqrt(2 pi) < u . 1, {(Op(b_{x,xi}) F^{-1}) (x) I} v . 1 >
    with b = D a and b_{x,xi} = b(. + x, . + xi); the pairing collapses
    through the kernel identity and the gamma2 smoothing inverts D, so
    S(Op(a)) = a.  One-dimensional operators only; the operator must
    carry a lattice symbol (UnsupportedOperatorError otherwise).  The D
    route is cross-checked once at the origin against finite
    differences (ConvergenceError beyond 1e-3 relative).
    """
    sym = _require_terms(op)
    if sym.n != 1:
        raise UnsupportedOperatorError("symbol map is implemented for n = 1")
    b = d_apply(sym)

    def odd_linspace(lo, hi, step):
        intervals = max(int(round((hi - lo) / step)), 2)
        intervals += intervals % 2
        return np.linspace(lo, hi, intervals + 1)

    if sym.k == 1:
        symbolic = complex(b.evaluate(np.zeros(1), np.zeros(1))[0, 0])
        fd = _fd_d_value(sym, 0.0, 0.0)
        scale = max(abs(symbolic), abs(fd), 1e-12)
        if abs(symbolic - fd) / scale > 1e-3:
            raise ConvergenceError(
                f"D routes disagree at the origin: symbolic {symbolic:.6e}, "
                f"finite differences {fd:.6e}"
            )

    k = sym.k
    s_ax = odd_linspace(SYMBOL_S_FLOOR, 0.0, SYMBOL_DS)
    sig_ax = odd_linspace(*SYMBOL_SIGMA_SPAN, SYMBOL_DSIGMA)
    eta_ax = np.linspace(SYMBOL_ETA_FLOOR, 0.0, SYMBOL_N_ETA | 1)

    u_vals = np.conj(kernel_u(s_ax[:, None], eta_ax[None, :]))
    v_vals = kernel_v(sig_ax[:, None], eta_ax[None, :])
    # v's sup over sigma never decays in eta (sigma chases eta), so the
    # truncation control lives in u's exponential gamma2(-eta) factor
    u_peak = float(np.abs(u_vals).max())
    u_tail = float(np.abs(u_vals[:, 0]).max())
    if u_peak > 0 and u_tail > 1e-6 * u_peak:
        raise ConvergenceError("eta truncation leaves kernel tail mass above 1e-6")

    osc = np.exp(1j * np.outer(s_ax, sig_ax))
    x_points = np.atleast_1d(np.asarray(x_points, dtype=float))
    xi_points = np.atleast_1d(np.asarray(xi_points, dtype=float))
    out = np.zeros((len(x_points), len(xi_points), k, k), dtype=np.complex128)

    # composite Simpson weights; plain sums bias the oscillatory pairing
    def simpson_weights(ax):
        w = np.ones(ax.shape)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * ((ax[1] - ax[0]) / 3.0)

    u_w = u_vals * (simpson_weights(s_ax)[:, None] * simpson_weights(eta_ax)[None, :])
    v_w = v_vals * simpson_weights(sig_ax)[:, None]
    for ix, x0 in enumerate(x_points):
        for jxi, xi0 in enumerate(xi_points):
            bmat = b.evaluate(
                (s_ax + x0)[:, None, None], (sig_ax + xi0)[None, :, None]
            )
            bker = osc[..., None, None] * bmat
            if k == 1:
                W = (bker[..., 0, 0] @ v_w)
                out[ix, jxi, 0, 0] = np.sum(u_w * W)
            else:
                W = np.einsum("soab,oe->seab", bker, v_w)
                out[ix, jxi] = np.einsum("se,seab->ab", u_w, W)
    return out


def inverse_cv_bound(op: DiscretizedOperator, sup_value: float) -> tuple:
    """The pair (sup |a|, sqrt(2 pi) ||u||_2 ||v||_2 ||Op(D a)|| CV_MARGIN).

    The symbol map's Cauchy-Schwarz estimate bounds the sup of a symbol
    by the operator norm of Op(D a); the returned right-hand side uses
    numerically integrated kernel norms with a safety margin absorbing
    their quadrature error.
    """
    sym = _require_terms(op)
    if sym.n != 1:
        raise UnsupportedOperatorError("kernel bound is implemented for n = 1")
    N = op.geometry_in[1]
    b = d_apply(sym)
    op_b = op_from_phase_terms(b, N)
    norm_b = operator_norm(op_b)
    u_l2 = _kernel_l2(kernel_u)
    v_l2 = _kernel_l2(kernel_v)
    bound = float(np.sqrt(2.0 * np.pi) * u_l2 * v_l2 * norm_b * CV_MARGIN)
    return float(sup_value), bound


@lru_cache(maxsize=8)
def _kernel_l2(kernel) -> float:
    """L2 norm of a two-argument kernel over its effective support.

    Simpson in eta, one block of rows at a time, then Simpson over the
    row integrals; the full 6001 x 6001 sample square is never formed.
    """
    span, step = KERNEL_L2_SPAN, KERNEL_L2_STEP
    axis = np.arange(-span, span + step / 2, step)
    inner = np.concatenate([
        simpson(np.abs(kernel(rows[:, None], axis[None, :])) ** 2, x=axis, axis=1)
        for rows in np.array_split(axis, -(-axis.size // 256))
    ])
    return float(np.sqrt(simpson(inner, x=axis)))
