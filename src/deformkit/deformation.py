"""Deformed products of symbols and the phase-space symbol calculus.

The deformed product is driven by a real antisymmetric matrix J:

    (f x_J g)(x) = int int f(x + Ju) g(x + v) exp(2 pi i u.v) dv du.

Two evaluation routes are provided.  The lattice route expands both
factors in plane waves, where the integral collapses to the phase law

    e_p x_J e_q = exp(-2 pi i p.Jq) e_{p+q},      p = m / (2L),

and is exact on the periodic model.  The quadrature route evaluates the
regularized oscillatory integral

    I = int W_N(u) F_M(u) Gcheck(u) du,
    F_M = (1 - Lap_u / 4 pi^2)^M [f(x + Ju)],
    Gcheck = FT[ (1 - Lap_v / 4 pi^2)^N [ (1+|v|^2)^{-M} g(x + v) ] ],

absolutely convergent once N, M > n/2, and serves as the independent
oracle at sampled points.  The same machinery backs the phase-space
composition and involution integrals (in angular variables z, eta) and
the Fourier inversion check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product as _iproduct
from math import comb, factorial

import numpy as np
from scipy.signal import czt

from .errors import BoxMismatchError, ConvergenceError
from .symbols import (
    GridSymbol,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    DeformationMatrix,
    centered_dft,
    centered_idft,
    eval_series,
    series_coefficients,
    significant_terms,
)

__all__ = [
    "OscIntegralConfig",
    "deformed_product_exact",
    "deformed_product_numeric",
    "tilde_map",
    "symbol_dagger",
    "symbol_compose",
    "fourier_inversion_check",
    "oscillatory_pair_integral",
]


# Truncation radius and quadrature points per axis of the inner grid, and
# the zero-padding factor of the transform to the outer grid.
OSC_R = 12.0
OSC_Q = 256
OSC_PAD = 2


@dataclass(frozen=True)
class OscIntegralConfig:
    """Parameters of the regularized oscillatory quadrature.

    n_reg defaults to floor(n/2) + 1 and must exceed n/2 for absolute
    convergence; the weight order m_reg is always floor(n/2) + 1.  tol
    is the route-agreement tolerance and check_points the number of
    sample points at which the quadrature oracle verifies the lattice
    route (0 disables the check).
    """

    n_reg: int | None = None
    tol: float = 1e-6
    check_points: int = 5

    def resolve(self, n: int) -> tuple[int, int]:
        """The regularization orders (n_reg, m_reg) in dimension n."""
        n_reg = self.n_reg if self.n_reg is not None else n // 2 + 1
        if not n_reg > n / 2:
            raise ValueError(f"regularization order {n_reg} must exceed n/2 = {n / 2}")
        return int(n_reg), n // 2 + 1


# ---------------------------------------------------------------------------
# Rational weight derivatives
#
# Derivatives of (1+|v|^2)^{-q} stay in the family
# sum_j c_j v^{mono_j} (1+|v|^2)^{-q_j}; differentiate by term rewriting.


def _diff_weight_terms(terms, axis: int):
    out: dict[tuple, float] = {}

    def add(c, mono, q):
        key = (mono, q)
        out[key] = out.get(key, 0.0) + c

    for (mono, q), c in terms.items():
        if mono[axis] > 0:
            lowered = list(mono)
            lowered[axis] -= 1
            add(c * mono[axis], tuple(lowered), q)
        raised = list(mono)
        raised[axis] += 1
        add(-2.0 * q * c, tuple(raised), q + 1)
    return {k: v for k, v in out.items() if v != 0.0}


@lru_cache(maxsize=None)
def _weight_derivative(n: int, m_reg: int, sigma: tuple) -> tuple:
    terms = {((0,) * n, m_reg): 1.0}
    for axis, order in enumerate(sigma):
        for _ in range(order):
            terms = _diff_weight_terms(terms, axis)
    return tuple((mono, q, c) for (mono, q), c in sorted(terms.items()))


def _eval_weight_derivative(n, m_reg, sigma, axes):
    """d^sigma (1+|v|^2)^{-m_reg} on the mesh spanned by the given axes."""
    mesh = np.meshgrid(*axes, indexing="ij") if n > 1 else [axes[0]]
    r2 = sum(v * v for v in mesh)
    out = np.zeros_like(r2, dtype=float)
    for mono, q, c in _weight_derivative(n, m_reg, tuple(sigma)):
        term = c * (1.0 + r2) ** float(-q)
        for ax, power in enumerate(mono):
            if power:
                term = term * mesh[ax] ** power
        out += term
    return out


@lru_cache(maxsize=None)
def _reg_pairs(n: int, order: int) -> tuple:
    """Leibniz expansion of (1 - Lap/4pi^2)^order applied to w(v)*G(v).

    Returns ((sigma_w, sigma_g, coef), ...) with
    (1-Lap/4pi^2)^order [wG] = sum coef * d^{sigma_w} w * d^{sigma_g} G.
    """
    acc: dict[tuple, float] = {}
    for j in range(order + 1):
        cj = comb(order, j) * (-1.0 / (4.0 * np.pi ** 2)) ** j
        for tau in _iproduct(range(j + 1), repeat=n):
            if sum(tau) != j:
                continue
            mult = factorial(j)
            for t in tau:
                mult //= factorial(t)
            two_tau = tuple(2 * t for t in tau)
            for sigma in _iproduct(*(range(v + 1) for v in two_tau)):
                c = cj * mult
                for tt, s in zip(two_tau, sigma):
                    c *= comb(tt, s)
                sigma_g = tuple(tt - s for tt, s in zip(two_tau, sigma))
                key = (sigma, sigma_g)
                acc[key] = acc.get(key, 0.0) + c
    return tuple((sw, sg, c) for (sw, sg), c in sorted(acc.items()))


# ---------------------------------------------------------------------------
# Quadrature grids


def _inner_axis() -> np.ndarray:
    h = 2.0 * OSC_R / OSC_Q
    return (np.arange(OSC_Q) - OSC_Q // 2) * h


def _outer_axis() -> np.ndarray:
    Qp = OSC_PAD * OSC_Q
    h = 2.0 * OSC_R / OSC_Q
    du = 1.0 / (Qp * h)
    return (np.arange(Qp) - Qp // 2) * du


def _transform_inner(psi: np.ndarray, n: int) -> np.ndarray:
    """FT with kernel exp(+2 pi i u.v) from the inner grid to the outer grid."""
    Q, Qp = OSC_Q, OSC_PAD * OSC_Q
    h = 2.0 * OSC_R / OSC_Q
    shape = (Qp,) * n + psi.shape[n:]
    padded = np.zeros(shape, dtype=np.complex128)
    off = (Qp - Q) // 2
    padded[(slice(off, off + Q),) * n] = psi
    return centered_idft(padded, tuple(range(n))) * h ** n


def _dense_trig(freqs: np.ndarray, coeffs: np.ndarray, axes) -> np.ndarray:
    """sum_t coeffs[t] prod_ax exp(2 pi i freqs[t, ax] axes[ax]) on the mesh."""
    n = freqs.shape[1]
    phases = [
        np.exp(2j * np.pi * np.outer(freqs[:, ax], axes[ax])) for ax in range(n)
    ]
    if n == 1:
        return np.einsum("tq,tab->qab", phases[0], coeffs)
    return np.einsum("tq,tr,tab->qrab", phases[0], phases[1], coeffs)


def oscillatory_pair_integral(f_terms, g_terms, n: int, k: int, cfg=None) -> np.ndarray:
    """Regularized evaluation of int int F(u) G(v) exp(2 pi i u.v) dv du.

    F(u) = sum cf exp(2 pi i qf.u), G(v) = sum cg exp(2 pi i pg.v) with
    real cycle frequencies; coefficients are k x k matrices and the
    result keeps F on the left.  Dense term evaluation; meant for
    moderate term counts.
    """
    cfg = cfg or OscIntegralConfig()
    n_reg, m_reg = cfg.resolve(n)
    vax = _inner_axis()
    uax = _outer_axis()
    fq = np.asarray([t[0] for t in f_terms], dtype=float).reshape(len(f_terms), n)
    fc = np.asarray([t[1] for t in f_terms], dtype=np.complex128).reshape(
        len(f_terms), k, k
    )
    gq = np.asarray([t[0] for t in g_terms], dtype=float).reshape(len(g_terms), n)
    gc = np.asarray([t[1] for t in g_terms], dtype=np.complex128).reshape(
        len(g_terms), k, k
    )

    psi = np.zeros((OSC_Q,) * n + (k, k), dtype=np.complex128)
    for sigma_w, sigma_g, coef in _reg_pairs(n, n_reg):
        wvals = _eval_weight_derivative(n, m_reg, sigma_w, [vax] * n)
        mult = np.ones(len(g_terms), dtype=np.complex128)
        for ax, order in enumerate(sigma_g):
            if order:
                mult = mult * (2j * np.pi * gq[:, ax]) ** order
        gveils = _dense_trig(gq, gc * mult[:, None, None], [vax] * n)
        psi += coef * wvals[..., None, None] * gveils

    gcheck = _transform_inner(psi, n)

    fmult = (1.0 + np.sum(fq ** 2, axis=1)) ** m_reg
    fvals = _dense_trig(fq, fc * fmult[:, None, None], [uax] * n)

    umesh = np.meshgrid(*([uax] * n), indexing="ij") if n > 1 else [uax]
    wn = (1.0 + sum(u * u for u in umesh)) ** float(-n_reg)
    du = uax[1] - uax[0]
    if n == 1:
        return np.einsum("q,qab,qbc->ac", wn, fvals, gcheck) * du
    return np.einsum("qr,qrab,qrbc->ac", wn, fvals, gcheck) * du ** 2


# ---------------------------------------------------------------------------
# Lattice evaluation via the chirp-z transform


def _czt_axis(coeffs: np.ndarray, axis: int, L: float, scale: float,
              start: float, step: float, count: int) -> np.ndarray:
    """Evaluate sum_m C[m] exp(2 pi i scale (m/2L) y_j), y_j = start + j step.

    The summed axis is indexed by i = m + N/2 and is replaced by the
    output point axis of length count.
    """
    N = coeffs.shape[axis]
    half = N // 2
    m = np.arange(N) - half
    pre = np.exp(2j * np.pi * scale * m * start / (2.0 * L))
    shape = [1] * coeffs.ndim
    shape[axis] = N
    x = coeffs * pre.reshape(shape)
    psi = 2.0 * np.pi * scale * step / (2.0 * L)
    out = czt(x, m=count, w=np.exp(1j * psi), axis=axis)
    post = np.exp(-1j * psi * half * np.arange(count))
    shape = [1] * out.ndim
    shape[axis] = count
    return out * post.reshape(shape)


def _lattice_point_values(coeffs: np.ndarray, n: int, L: float, x) -> np.ndarray:
    """Evaluate the series with the given coefficient grid at one point x."""
    out = coeffs
    for ax in range(n):
        out = _czt_axis(out, 0, L, 1.0, float(x[ax]), 1.0, 1)[0]
    return out


def _theta_of(J: DeformationMatrix) -> float:
    """The scalar theta with J = theta * [[0, 1], [-1, 0]] (n = 2)."""
    return float(J.entries[0, 1])


def _quadrature_point_lattice(fhat, ghat, n, L, J, x, cfg) -> np.ndarray:
    """Quadrature route for grid data via chirp-z lattice evaluation."""
    n_reg, m_reg = cfg.resolve(n)
    k = fhat.shape[-1]
    vax = _inner_axis()
    uax = _outer_axis()
    h = vax[1] - vax[0]
    half = fhat.shape[0] // 2
    m_axis = np.arange(fhat.shape[0]) - half
    p_axis = m_axis / (2.0 * L)

    # Psi(v) = (1 - Lap/4pi^2)^{n_reg} [ (1+|v|^2)^{-m_reg} g(x+v) ]
    psi = np.zeros((OSC_Q,) * n + (k, k), dtype=np.complex128)
    deriv_cache: dict[tuple, np.ndarray] = {}
    for sigma_w, sigma_g, coef in _reg_pairs(n, n_reg):
        if sigma_g not in deriv_cache:
            c = ghat
            for ax, order in enumerate(sigma_g):
                if order:
                    factor = (2j * np.pi * p_axis) ** order
                    shape = [1] * c.ndim
                    shape[ax] = c.shape[ax]
                    c = c * factor.reshape(shape)
            for ax in range(n):
                c = _czt_axis(c, ax, L, 1.0, float(x[ax]) - OSC_R, h, OSC_Q)
            deriv_cache[sigma_g] = c
        wvals = _eval_weight_derivative(n, m_reg, sigma_w, [vax] * n)
        psi += coef * wvals[..., None, None] * deriv_cache[sigma_g]

    gcheck = _transform_inner(psi, n)

    if J.is_zero:
        fvals = _lattice_point_values(fhat, n, L, x)
        fvals = np.broadcast_to(fvals, gcheck.shape)
    else:
        theta = _theta_of(J)
        # f(x + Ju) = sum c_m exp(2 pi i p.x) exp(2 pi i (J^T p).u) with
        # J^T p = (-theta p_2, theta p_1): axis roles swap under J.
        pre1 = np.exp(2j * np.pi * p_axis * x[0])
        pre2 = np.exp(2j * np.pi * p_axis * x[1])
        mult = (
            1.0
            + theta ** 2 * (p_axis[:, None] ** 2 + p_axis[None, :] ** 2)
        ) ** m_reg
        c = fhat * (pre1[:, None] * pre2[None, :] * mult)[..., None, None]
        c = np.swapaxes(c, 0, 1)
        du = uax[1] - uax[0]
        c = _czt_axis(c, 0, L, -theta, float(uax[0]), du, len(uax))
        fvals = _czt_axis(c, 1, L, theta, float(uax[0]), du, len(uax))

    umesh = np.meshgrid(*([uax] * n), indexing="ij") if n > 1 else [uax]
    wn = (1.0 + sum(u * u for u in umesh)) ** float(-n_reg)
    du = uax[1] - uax[0]
    if n == 1:
        return np.einsum("q,qab,qbc->ac", wn, fvals, gcheck) * du
    return np.einsum("qr,qrab,qrbc->ac", wn, fvals, gcheck) * du ** 2


# ---------------------------------------------------------------------------
# Deformed products


def _check_boxes(f, g):
    if f.n != g.n or abs(f.L - g.L) > 1e-12 * max(f.L, g.L) or f.k != g.k:
        raise BoxMismatchError(
            f"symbols live on different boxes: "
            f"(n={f.n}, L={f.L}, k={f.k}) vs (n={g.n}, L={g.L}, k={g.k})"
        )


def deformed_product_exact(
    f: PlaneWaveSymbol, g: PlaneWaveSymbol, J: DeformationMatrix
) -> PlaneWaveSymbol:
    """Deformed product of plane-wave symbols by the exact phase law."""
    if not isinstance(f, PlaneWaveSymbol) or not isinstance(g, PlaneWaveSymbol):
        raise TypeError("exact route needs plane-wave symbols")
    _check_boxes(f, g)
    if J.n != f.n:
        raise BoxMismatchError(f"J has dimension {J.n}, symbols have {f.n}")
    terms = []
    for m1, c1 in f.terms:
        p1 = f.frequency(m1)
        for m2, c2 in g.terms:
            p2 = g.frequency(m2)
            phase = np.exp(-2j * np.pi * float(p1 @ J.entries @ p2))
            terms.append((tuple(a + b for a, b in zip(m1, m2)), phase * (c1 @ c2)))
    return PlaneWaveSymbol(f.n, f.L, f.k, tuple(terms))


def _twisted_lattice_product(f: GridSymbol, g: GridSymbol, J: DeformationMatrix):
    """Route (b): the alias-folded twisted convolution, L_f applied to g.

    The term loop runs over the factor with fewer significant terms: over
    g it uses (f x_J g)^T = g^T x_{-J} f^T, with pointwise k x k transposes.
    """
    if J.is_zero:
        return np.einsum("...ab,...bc->...ac", f.values, g.values)
    if len(significant_terms(f)) <= len(significant_terms(g)):
        return _lattice_action(tilde_map(f, J), f.N)(g.values)
    g_t = g.with_values(np.swapaxes(g.values, -1, -2))
    action = _lattice_action(tilde_map(g_t, DeformationMatrix(-J.entries)), f.N)
    return np.swapaxes(action(np.swapaxes(f.values, -1, -2)), -1, -2)


def _check_point_indices(N: int, count: int) -> list[int]:
    stride = max(1, N // max(count, 1))
    return [(stride // 2 + j * stride) % N for j in range(count)]


def deformed_product_numeric(
    f: GridSymbol,
    g: GridSymbol,
    J: DeformationMatrix,
    cfg: OscIntegralConfig | None = None,
    report: dict | None = None,
) -> GridSymbol:
    """Deformed product of grid symbols.

    The twisted lattice convolution produces the grid (exact on the
    periodic model); the regularized quadrature route re-evaluates the
    product at cfg.check_points sample points and ConvergenceError is
    raised when the routes disagree beyond 10x cfg.tol.  The measured
    disagreement is written to report["route_disagreement"] when a dict
    is passed.
    """
    if not isinstance(f, GridSymbol) or not isinstance(g, GridSymbol):
        raise TypeError("numeric route needs grid symbols")
    _check_boxes(f, g)
    if f.N != g.N:
        raise BoxMismatchError("grids have different resolutions")
    if J.n != f.n:
        raise BoxMismatchError(f"J has dimension {J.n}, symbols have {f.n}")
    cfg = cfg or OscIntegralConfig()
    values = _twisted_lattice_product(f, g, J)
    result = f.with_values(values)

    worst = 0.0
    checked = 0
    if cfg.check_points > 0:
        fhat = series_coefficients(f)
        ghat = series_coefficients(g)
        scale = max(
            float(np.abs(values).max()),
            float(np.abs(f.values).max()) * float(np.abs(g.values).max()),
            1e-300,
        )
        for i in _check_point_indices(f.N, cfg.check_points):
            idx = (i,) * f.n
            x = [float(f.axis[i])] * f.n
            oracle = _quadrature_point_lattice(fhat, ghat, f.n, f.L, J, x, cfg)
            disagree = float(np.abs(oracle - values[idx]).max()) / scale
            worst = max(worst, disagree)
            checked += 1
        if worst > 10.0 * cfg.tol:
            raise ConvergenceError(
                f"product routes disagree: {worst:.3e} > 10 x tol {cfg.tol:.1e}"
            )
    if report is not None:
        report["route_disagreement"] = worst
        report["points_checked"] = checked
        report["tolerance"] = cfg.tol
    return result


# ---------------------------------------------------------------------------
# Phase-space symbol calculus


def tilde_map(f, J: DeformationMatrix) -> PlaneWavePhaseSymbol:
    """Phase-space symbol of the deformed left action of f.

    tilde(f)(x, xi) = f(x - J xi / 2 pi); a plane wave e_p maps to the
    phase term with angular x-frequency 2 pi p and xi-frequency Jp.
    """
    if isinstance(f, PlaneWaveSymbol):
        terms = list(f.terms)
    elif isinstance(f, GridSymbol):
        terms = significant_terms(f)
    else:
        raise TypeError(f"cannot lift {type(f).__name__}")
    n, L, k = f.n, f.L, f.k
    if J.n != n:
        raise BoxMismatchError(f"J has dimension {J.n}, symbol has {n}")
    out = []
    for m, c in terms:
        w = J.entries @ (np.asarray(m, dtype=float) / (2.0 * L))
        out.append((m, tuple(w), c))
    return PlaneWavePhaseSymbol(n, L, k, tuple(out))


def _lattice_action(sym: PlaneWavePhaseSymbol, N: int, adjoint: bool = False):
    """The twisted translation sum of a lattice phase symbol on the N-point grid.

    Returns values -> field g + IDFT(sum_t roll((c_t ghat) r_t, m_t)) / N^n,
    ghat = DFT(g).  The zero-shift terms collapse into the pointwise field;
    every other term is the index shift m_t after the separable phase ramp
    r_t = exp(2 pi i p.w_t), p = (index - N/2) / 2L, formed per term from
    its 1-D ramps.  adjoint=True gives the exact matrix adjoint: the same
    loop over the terms (-m_t, conj(r_t) rolled by m_t, c_t^H) and the
    pointwise adjoint of the field.
    """
    n, k = sym.n, sym.k
    axes = tuple(range(n))
    half = N // 2
    lattice = (np.arange(N) - half) / (2.0 * sym.L)
    zero_w = np.zeros((N,) * n + (k, k), dtype=np.complex128)
    have_field = False
    shifted = []
    for m, w, c in sym.terms:
        if not any(w):
            zero_w[tuple((v + half) % N for v in m)] += c
            have_field = True
            continue
        ramps = [np.exp(2j * np.pi * lattice * v) for v in w]
        if adjoint:
            ramps = [np.roll(np.conj(r), v) for r, v in zip(ramps, m)]
            m, c = tuple(-v for v in m), c.conj().T
        shifted.append((m, ramps, c))
    field = centered_idft(zero_w, axes) if have_field else None
    if adjoint and have_field:
        field = np.conj(np.swapaxes(field, -1, -2))

    def apply(values):
        if field is not None:
            out = np.einsum("...ab,...bc->...ac", field, values)
        else:
            out = np.zeros_like(np.asarray(values, dtype=np.complex128))
        if not shifted:
            return out
        ghat = centered_dft(values, axes)
        acc = np.zeros_like(ghat)
        for m, ramps, c in shifted:
            phase = reduce(np.multiply.outer, ramps)[..., None, None]
            acc += np.roll(np.einsum("ab,...bc->...ac", c, ghat) * phase, m, axis=axes)
        return out + centered_idft(acc, axes) / float(N) ** n

    return apply


def _phase_terms(a) -> PlaneWavePhaseSymbol:
    if isinstance(a, PlaneWavePhaseSymbol):
        return a
    raise TypeError(f"not a lattice phase-space symbol: {type(a).__name__}")


def _dagger_terms(a: PlaneWavePhaseSymbol) -> PlaneWavePhaseSymbol:
    terms = []
    for m, w, c in a.terms:
        omega = a.omega(m)
        phase = np.exp(1j * float(omega @ np.asarray(w)))
        terms.append((tuple(-v for v in m), tuple(-v for v in w), phase * c.conj().T))
    return PlaneWavePhaseSymbol(a.n, a.L, a.k, tuple(terms))


def _compose_terms(
    a: PlaneWavePhaseSymbol, b: PlaneWavePhaseSymbol
) -> PlaneWavePhaseSymbol:
    if (a.n, a.k) != (b.n, b.k) or abs(a.L - b.L) > 1e-12 * a.L:
        raise BoxMismatchError("phase symbols live on different boxes")
    terms = []
    for m1, w1, c1 in a.terms:
        for m2, w2, c2 in b.terms:
            omega2 = b.omega(m2)
            phase = np.exp(1j * float(np.asarray(w1) @ omega2))
            terms.append(
                (
                    tuple(p + q for p, q in zip(m1, m2)),
                    tuple(p + q for p, q in zip(w1, w2)),
                    phase * (c1 @ c2),
                )
            )
    return PlaneWavePhaseSymbol(a.n, a.L, a.k, tuple(terms))


def _kernel_value_oracle(omega, w, n: int, k: int, cfg) -> complex:
    """Quadrature value of (2pi)^{-n} int int e^{-iz.eta} e^{i omega.z} e^{i w.eta}.

    Separable per axis; the analytic value is exp(i omega.w).  Evaluated
    with the generic pair integral in cycle variables.
    """
    val = 1.0 + 0.0j
    eye = np.eye(1)
    for ax in range(n):
        # eta-side factor exp(i w eta) -> F(u) = exp(2 pi i (w/2pi) u);
        # z-side exp(i omega z), z = -2 pi v -> G(v) = exp(2 pi i (-omega) v).
        f_terms = [((w[ax] / (2.0 * np.pi),), eye)]
        g_terms = [((-omega[ax],), eye)]
        val *= complex(oscillatory_pair_integral(f_terms, g_terms, 1, 1, cfg)[0, 0])
    return val


def _spot_phase_points(a: PlaneWavePhaseSymbol, count: int = 3):
    xs = np.linspace(-a.L / 2.0, a.L / 2.0, count)
    xis = np.linspace(-1.0, 1.0, count)
    return xs, xis


def symbol_dagger(a, cfg: OscIntegralConfig | None = None):
    """Involution of a lattice phase-space symbol: Op(dagger(a)) = Op(a)*.

    Termwise law (exact): c e^{i(omega.x + w.xi)} maps to
    conj(c)^T e^{i omega.w} e^{-i(omega.x + w.xi)}.  The defining
    twisted-kernel integral is re-evaluated per distinct frequency by
    the quadrature oracle; ConvergenceError beyond 10x cfg.tol.  a must
    be a PlaneWavePhaseSymbol (TypeError otherwise).
    """
    cfg = cfg or OscIntegralConfig()
    terms = _phase_terms(a)
    result = _dagger_terms(terms)
    if cfg.check_points > 0 and terms.terms:
        worst = 0.0
        for m, w, _ in terms.terms[: cfg.check_points]:
            omega = terms.omega(m)
            exact = np.exp(1j * float(omega @ np.asarray(w)))
            oracle = _kernel_value_oracle(omega, w, terms.n, terms.k, cfg)
            worst = max(worst, abs(oracle - exact))
        if worst > 10.0 * cfg.tol:
            raise ConvergenceError(
                f"involution kernel quadrature off by {worst:.3e} (tol {cfg.tol:.1e})"
            )
    return result


def symbol_compose(a, b, cfg: OscIntegralConfig | None = None):
    """Composition of lattice phase-space symbols: Op(compose(a, b)) = Op(a) Op(b).

    Termwise law (exact): frequencies add and the coefficient picks up
    exp(i w_a . omega_b).  The defining integral
    (2pi)^{-n} int int e^{-iz.eta} a(x, xi-eta) b(x-z, xi) dz deta is
    re-evaluated at sample phase points by the quadrature oracle;
    ConvergenceError beyond 10x cfg.tol.  a and b must be
    PlaneWavePhaseSymbols (TypeError otherwise).
    """
    cfg = cfg or OscIntegralConfig()
    ta, tb = _phase_terms(a), _phase_terms(b)
    result = _compose_terms(ta, tb)
    if cfg.check_points > 0 and ta.terms and tb.terms:
        n, k = ta.n, ta.k
        xs, xis = _spot_phase_points(ta, max(2, min(cfg.check_points, 4)))
        worst = 0.0
        scale = max(float(np.abs(result.evaluate(np.zeros(n), np.zeros(n))).max()), 1.0)
        for x, xi in zip(xs, xis):
            xv = np.full(n, x)
            xiv = np.full(n, xi)
            # F(u) = a(x, xi - u): cycles -w/2pi; G(v) = b(x + 2 pi v, xi).
            f_terms = [
                (
                    tuple(-np.asarray(w) / (2.0 * np.pi)),
                    c
                    * np.exp(1j * float(ta.omega(m) @ xv))
                    * np.exp(1j * float(np.asarray(w) @ xiv)),
                )
                for m, w, c in ta.terms
            ]
            g_terms = [
                (
                    tuple(tb.omega(m)),
                    c
                    * np.exp(1j * float(tb.omega(m) @ xv))
                    * np.exp(1j * float(np.asarray(w) @ xiv)),
                )
                for m, w, c in tb.terms
            ]
            oracle = oscillatory_pair_integral(f_terms, g_terms, n, k, cfg)
            exact = result.evaluate(xv, xiv)
            worst = max(worst, float(np.abs(oracle - exact).max()) / scale)
        if worst > 10.0 * cfg.tol:
            raise ConvergenceError(
                f"composition routes disagree: {worst:.3e} (tol {cfg.tol:.1e})"
            )
    return result


def fourier_inversion_check(f, x, cfg: OscIntegralConfig | None = None) -> float:
    """Residual of int int exp(2 pi i u.v) f(x+v) dv du against f(x).

    The double integral is evaluated by the regularized quadrature
    (constant left factor); exact inversion means a zero residual.
    """
    cfg = cfg or OscIntegralConfig()
    if isinstance(f, PlaneWaveSymbol):
        n, k = f.n, f.k
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        f_terms = [((0.0,) * n, np.eye(k))]
        g_terms = [
            (tuple(f.frequency(m)), c * np.exp(2j * np.pi * float(f.frequency(m) @ xv)))
            for m, c in f.terms
        ]
        value = oscillatory_pair_integral(f_terms, g_terms, n, k, cfg)
        target = f.evaluate(xv if n > 1 else xv[0])
    elif isinstance(f, GridSymbol):
        n, k = f.n, f.k
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        fhat = np.zeros((f.N,) * n + (k, k), dtype=np.complex128)
        eye_slot = (f.N // 2,) * n
        fhat[eye_slot] = np.eye(k)
        ghat = series_coefficients(f)
        value = _quadrature_point_lattice(
            fhat, ghat, n, f.L, DeformationMatrix.zero(n), xv, cfg
        )
        target = eval_series(significant_terms(f), f.L, xv.reshape(1, n), k)[0]
    else:
        raise TypeError(f"cannot check {type(f).__name__}")
    return float(np.abs(value - target).max())
