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
from functools import lru_cache
from itertools import product as _iproduct
from math import comb, factorial

import numpy as np

from .errors import BoxMismatchError, ConvergenceError
from .symbols import (
    GridSymbol,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    DeformationMatrix,
    _rowdot,
    _term_array,
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
_CHUNK_POINTS = 1 << 14  # values (points times k^2) per chunk of _lattice_action groups


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


def _weight_derivative(n: int, m_reg: int, sigma: tuple) -> tuple:
    terms = {((0,) * n, m_reg): 1.0}
    for axis, order in enumerate(sigma):
        for _ in range(order):
            terms = _diff_weight_terms(terms, axis)
    return tuple((mono, q, c) for (mono, q), c in sorted(terms.items()))


def _eval_weight_derivative(n: int, m_reg: int, sigma: tuple) -> np.ndarray:
    """d^sigma (1+|v|^2)^{-m_reg} on the inner mesh."""
    vax = _inner_axis()
    mesh = np.meshgrid(*([vax] * n), indexing="ij") if n > 1 else [vax]
    r2 = sum(v * v for v in mesh)
    out = np.zeros_like(r2, dtype=float)
    for mono, q, c in _weight_derivative(n, m_reg, sigma):
        term = c * (1.0 + r2) ** float(-q)
        for ax, power in enumerate(mono):
            if power:
                term = term * mesh[ax] ** power
        out += term
    return out


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


@lru_cache(maxsize=None)
def _weight_groups(n: int, n_reg: int, m_reg: int) -> tuple:
    """_reg_pairs(n, n_reg) grouped by sigma_g (cached, read-only).

    Returns ((sigma_g, W), ...) in sorted sigma_g order with W the sum of
    coef * d^{sigma_w} (1+|v|^2)^{-m_reg} over the pairs of that sigma_g,
    on the inner mesh.
    """
    groups: dict[tuple, np.ndarray] = {}
    for sigma_w, sigma_g, coef in _reg_pairs(n, n_reg):
        term = coef * _eval_weight_derivative(n, m_reg, sigma_w)
        groups[sigma_g] = groups[sigma_g] + term if sigma_g in groups else term
    for w in groups.values():
        w.flags.writeable = False
    return tuple(sorted(groups.items()))


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


def _regularized_quadrature(n: int, n_reg: int, m_reg: int, g_derivative, fvals):
    """int W_N(u) F_M(u) Gcheck(u) du from the caller's two evaluators.

    g_derivative(sigma) gives d^sigma G(x + v) on the inner mesh and fvals
    holds F_M = (1 - Lap_u/4pi^2)^M [f(x + Ju)] on the outer mesh, both
    with trailing k x k axes.
    """
    k = fvals.shape[-1]
    # Psi(v) = (1 - Lap/4pi^2)^{n_reg} [ (1+|v|^2)^{-m_reg} g(x+v) ]: one
    # derivative of G at a time, in sorted order, so they come grouped by
    # their first order
    psi = np.zeros((OSC_Q,) * n + (k, k), dtype=np.complex128)
    for sigma_g, weight in _weight_groups(n, n_reg, m_reg):
        psi += weight[..., None, None] * g_derivative(sigma_g)

    gcheck = _transform_inner(psi, n)

    uax = _outer_axis()
    umesh = np.meshgrid(*([uax] * n), indexing="ij") if n > 1 else [uax]
    wn = (1.0 + sum(u * u for u in umesh)) ** float(-n_reg)
    du = uax[1] - uax[0]
    if n == 1:
        return np.einsum("q,qab,qbc->ac", wn, fvals, gcheck) * du
    return np.einsum("qr,qrab,qrbc->ac", wn, fvals, gcheck) * du ** 2


def oscillatory_pair_integral(fq, fc, gq, gc, cfg=None) -> np.ndarray:
    """Regularized evaluation of int int F(u) G(v) exp(2 pi i u.v) dv du.

    F(u) = sum_t fc[t] exp(2 pi i fq[t].u), G(v) = sum_t gc[t]
    exp(2 pi i gq[t].v) with real cycle frequencies fq, gq of shape
    (T, n) and k x k coefficients fc, gc of shape (T, k, k); the result
    keeps F on the left.  Dense term evaluation; meant for moderate term
    counts.
    """
    cfg = cfg or OscIntegralConfig()
    fq, gq = np.asarray(fq, dtype=float), np.asarray(gq, dtype=float)
    fc, gc = np.asarray(fc, dtype=np.complex128), np.asarray(gc, dtype=np.complex128)
    n = fq.shape[1]
    n_reg, m_reg = cfg.resolve(n)
    vax = _inner_axis()
    uax = _outer_axis()

    def g_derivative(sigma_g):
        mult = np.ones(len(gq), dtype=np.complex128)
        for ax, order in enumerate(sigma_g):
            if order:
                mult = mult * (2j * np.pi * gq[:, ax]) ** order
        return _dense_trig(gq, gc * mult[:, None, None], [vax] * n)

    fmult = (1.0 + np.sum(fq ** 2, axis=1)) ** m_reg
    fvals = _dense_trig(fq, fc * fmult[:, None, None], [uax] * n)
    return _regularized_quadrature(n, n_reg, m_reg, g_derivative, fvals)


# ---------------------------------------------------------------------------
# Lattice evaluation via the chirp-z transform


def _czt_axis(coeffs: np.ndarray, axis: int, L: float, scale: float,
              start: float, step: float, count: int) -> np.ndarray:
    """Evaluate sum_m C[m] exp(2 pi i scale (m/2L) y_j), y_j = start + j step.

    The summed axis is indexed by i = m + N/2 and is replaced by the
    output point axis of length count.  Bluestein's chirp-z algorithm
    (Rabiner, Schafer and Rader, 1969): with psi = 2 pi scale step / 2L and
    mj = (m^2 + j^2 - (j - m)^2) / 2 the sum is a linear convolution with
    the chirp exp(-i psi k^2 / 2), done by zero-padded FFTs.
    """
    N = coeffs.shape[axis]
    m = np.arange(N) - N // 2
    j = np.arange(count)
    k = np.arange(1 - N, count) + N // 2
    psi = 2.0 * np.pi * scale * step / (2.0 * L)
    shape = [1] * coeffs.ndim
    shape[axis] = -1
    pre = np.exp(2j * np.pi * scale * m * start / (2.0 * L) + 0.5j * psi * m * m)
    size = 1 << (N + count - 2).bit_length()
    y = np.fft.fft(coeffs * pre.reshape(shape), size, axis=axis)
    h = np.fft.fft(np.exp(-0.5j * psi * k * k), size).reshape(shape)
    conv = np.fft.ifft(y * h, axis=axis).take(N - 1 + j, axis=axis)
    return conv * np.exp(0.5j * psi * j * j).reshape(shape)


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

    def czt_pass(c, ax, order):
        """d^order along axis ax of the coefficients, then the chirp-z pass on ax."""
        if order:
            shape = [1] * c.ndim
            shape[ax] = c.shape[ax]
            c = c * ((2j * np.pi * p_axis) ** order).reshape(shape)
        return _czt_axis(c, ax, L, 1.0, float(x[ax]) - OSC_R, h, OSC_Q)

    # the axis-0 pass depends on sigma_g[0] alone, and _regularized_quadrature
    # asks for sigma_g in sorted order, so one (order, pass) pair is kept
    first_pass = (None, None)

    def g_derivative(sigma_g):
        nonlocal first_pass
        if first_pass[0] != sigma_g[0]:
            first_pass = (sigma_g[0], czt_pass(ghat, 0, sigma_g[0]))
        c = first_pass[1]
        for ax in range(1, n):
            c = czt_pass(c, ax, sigma_g[ax])
        return c

    if J.is_zero:
        fvals = _lattice_point_values(fhat, n, L, x)
        fvals = np.broadcast_to(fvals, (len(uax),) * n + (k, k))
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
    return _regularized_quadrature(n, n_reg, m_reg, g_derivative, fvals)


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
    tf, tg = f.terms, g.terms
    i, j = np.divmod(np.arange(len(tf) * len(tg)), len(tg))  # every pair, j inner
    pJ = np.matmul(f.frequency(tf["m"])[:, None, :], J.entries)[:, 0, :]
    phase = np.exp(-2j * np.pi * _rowdot(pJ[i], g.frequency(tg["m"])[j]))
    c = phase[:, None, None] * np.matmul(tf["c"][i], tg["c"][j])
    return PlaneWaveSymbol(f.n, f.L, f.k, _term_array(tf["m"][i] + tg["m"][j], c))


def _twisted_lattice_product(f: GridSymbol, g: GridSymbol, J: DeformationMatrix):
    """Route (b): the alias-folded twisted convolution, L_f applied to g.

    The lattice action runs over the factor with fewer significant terms:
    over g it uses (f x_J g)^T = g^T x_{-J} f^T, with pointwise k x k transposes.
    Each factor's series is computed once; transposing the coefficients of
    g keeps its significant set, which keys on the largest entry.
    """
    if J.is_zero:
        return np.einsum("...ab,...bc->...ac", f.values, g.values)
    sf, sg = significant_terms(f), significant_terms(g)
    if len(sf.terms) <= len(sg.terms):
        return _lattice_action(tilde_map(sf, J), f.N)(g.values)
    t = sg.terms.copy()
    t["c"] = np.swapaxes(t["c"], -1, -2)
    g_t = PlaneWaveSymbol(g.n, g.L, g.k, t)
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
    if isinstance(f, GridSymbol):
        f = significant_terms(f)
    elif not isinstance(f, PlaneWaveSymbol):
        raise TypeError(f"cannot lift {type(f).__name__}")
    if J.n != f.n:
        raise BoxMismatchError(f"J has dimension {J.n}, symbol has {f.n}")
    t = f.terms
    w = f.frequency(t["m"]) @ J.entries.T
    return PlaneWavePhaseSymbol(f.n, f.L, f.k, _term_array(t["m"], t["c"], w))


def _lattice_action(sym: PlaneWavePhaseSymbol, N: int, adjoint: bool = False):
    """The twisted translation sum of a lattice phase symbol on the N-point grid.

    Returns values -> field g + IDFT(sum_t roll((c_t ghat) r_t, m_t)) / N^n,
    ghat = DFT(g), r_t = exp(2 pi i p.w_t), p = (index - N/2) / 2L; the zero-shift
    terms form the pointwise field.  The rest group by (w_0, m_1) into one sum
    S = sum_g FFT_0(K_g) FFT_0(B_g) of k x k products: B_g = roll(r_0 ghat, m_1) on
    axis 1, and K_g(d, s) adds c_t r_1t(s - m_1) over the group's m_0t = d mod N.
    The axis-0 IFFT of S and the axis-0 IDFT fold to S[(N/2 - j) mod N] (-1)^(j + N/2).
    Cost O(G N^n log N) for G groups, in chunks that keep each temporary within
    max(_CHUNK_POINTS, N^n k^2) values; FFT_0(K_g) is rebuilt per application.
    adjoint=True is the exact matrix adjoint: the transpose of each step.
    """
    n, k, half = sym.n, sym.k, N // 2
    lattice = (np.arange(N) - half) / (2.0 * sym.L)
    m, w, c = sym.terms["m"], sym.terms["w"], sym.terms["c"]
    zero = ~w.any(axis=1)
    zero_w = np.zeros((N,) * n + (k, k), dtype=np.complex128)
    np.add.at(zero_w, tuple(((m[zero] + half) % N).T), c[zero])
    m, w, c = m[~zero], w[~zero], c[~zero]
    # Groups are keyed by w_0 + i m_1.  The sum's arrays have the axes (k, k, group,
    # s, axis-0 point), s the point on axis 1 (array axis sax); for n = 1, s is one
    # point with m_1 = w_1 = 0.  The adjoint moves the roll by m_1 off B_g^H: it
    # gathers roll(., -m_1) of its input, and its kernels take r_1t at s, not s - m_1.
    m1, w1, s = m[:, 1:].sum(axis=1), w[:, 1:].sum(axis=1), np.arange(N ** (n - 1))
    sax, step = tuple(range(2, n + 1)), max(1, _CHUNK_POINTS // (N ** n * k * k))
    _, first, group = np.unique(w[:, 0] + 1j * m1, return_index=True, return_inverse=True)
    field = centered_idft(zero_w, tuple(range(n))) if zero.any() or not len(first) else None
    field = np.conj(np.swapaxes(field, -1, -2)) if adjoint and field is not None else field
    r1 = lattice[(s - (not adjoint) * m1[:, None]) % N]
    cr1 = c[..., None] * np.exp(2j * np.pi * w1[:, None] * r1)[:, None, None]
    r0 = np.exp(2j * np.pi * w[first, :1] * lattice)  # (groups, N)
    roll = (s - (1 - 2 * adjoint) * m1[first, None]) % N
    fold = (half - np.arange(N)) % N, (-1.0) ** (np.arange(N) + half)

    def kernels():  # (groups of a chunk, FFT_0 of their kernels)
        for g in range(0, len(first), step):
            t = (group >= g) & (group < g + step)
            K = np.zeros((k, k, min(step, len(first) - g), len(s), N), dtype=np.complex128)
            np.add.at(K, (..., group[t] - g, slice(None), m[t, 0] % N), cr1[t])
            yield slice(g, g + step), np.fft.fft(K)

    def apply(values):
        out = 0.0 if field is None else np.einsum("...ab,...bc->...ac", field, values)
        if not len(first):
            return out
        v = np.ascontiguousarray(np.reshape(values, (N, len(s), k, k)).transpose(2, 3, 1, 0))
        if not adjoint:
            ghat = centered_dft(v, (3,) + sax)
            S = sum(np.einsum("abgsf,bcgsf->acsf", FK, np.fft.fft(
                ghat[..., roll[g], :] * r0[g, None])) for g, FK in kernels())
            res = centered_idft(S[..., fold[0]] * fold[1], sax)
        else:
            S = centered_dft(v, sax)[..., fold[0]] * fold[1]
            res = centered_idft(sum(np.einsum("gf,acgsf->acsf", np.conj(r0[g]), np.fft.ifft(
                np.einsum("bagsf,bcgsf->acgsf", np.conj(FK), S[..., roll[g], :]), norm="forward"))
                for g, FK in kernels()), (3,) + sax)
        return out + res.transpose(3, 2, 0, 1).reshape(np.shape(values)) / float(N) ** n

    return apply


def _phase_terms(a) -> PlaneWavePhaseSymbol:
    if isinstance(a, PlaneWavePhaseSymbol):
        return a
    raise TypeError(f"not a lattice phase-space symbol: {type(a).__name__}")


def _dagger_terms(a: PlaneWavePhaseSymbol) -> PlaneWavePhaseSymbol:
    t = a.terms.copy()
    phase = np.exp(1j * _rowdot(a.omega(t["m"]), t["w"]))
    t["m"], t["w"] = -t["m"], -t["w"]
    t["c"] = phase[:, None, None] * np.conj(np.swapaxes(t["c"], -1, -2))
    return PlaneWavePhaseSymbol(a.n, a.L, a.k, t)


def _compose_terms(
    a: PlaneWavePhaseSymbol, b: PlaneWavePhaseSymbol
) -> PlaneWavePhaseSymbol:
    if (a.n, a.k) != (b.n, b.k) or abs(a.L - b.L) > 1e-12 * a.L:
        raise BoxMismatchError("phase symbols live on different boxes")
    ta, tb = a.terms, b.terms
    i, j = np.divmod(np.arange(len(ta) * len(tb)), len(tb))  # every pair, j inner
    phase = np.exp(1j * _rowdot(ta["w"][i], b.omega(tb["m"])[j]))
    c = phase[:, None, None] * np.matmul(ta["c"][i], tb["c"][j])
    return PlaneWavePhaseSymbol(a.n, a.L, a.k, _term_array(
        ta["m"][i] + tb["m"][j], c, ta["w"][i] + tb["w"][j]))


def _kernel_value_oracle(omega, w, cfg) -> complex:
    """Quadrature value of (2pi)^{-n} int int e^{-iz.eta} e^{i omega.z} e^{i w.eta}.

    Separable per axis; the analytic value is exp(i omega.w).  Evaluated
    with the generic pair integral in cycle variables.
    """
    val = 1.0 + 0.0j
    one = np.ones((1, 1, 1))
    for om_ax, w_ax in zip(omega, w):
        # eta-side factor exp(i w eta) -> F(u) = exp(2 pi i (w/2pi) u);
        # z-side exp(i omega z), z = -2 pi v -> G(v) = exp(2 pi i (-omega) v).
        pair = oscillatory_pair_integral([[w_ax / (2.0 * np.pi)]], one, [[-om_ax]], one, cfg)
        val *= complex(pair[0, 0])
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
    if cfg.check_points > 0 and len(terms.terms):
        worst = 0.0
        for m, w, _ in terms.terms[: cfg.check_points]:
            omega = terms.omega(m)
            exact = np.exp(1j * float(omega @ np.asarray(w)))
            oracle = _kernel_value_oracle(omega, w, cfg)
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
    if cfg.check_points > 0 and len(ta.terms) and len(tb.terms):
        n = ta.n
        xs, xis = _spot_phase_points(ta, max(2, min(cfg.check_points, 4)))
        worst = 0.0
        scale = max(float(np.abs(result.evaluate(np.zeros(n), np.zeros(n))).max()), 1.0)
        sa, sb = ta.terms, tb.terms
        om_a, om_b = ta.omega(sa["m"]), tb.omega(sb["m"])

        def at(t, om, xv, xiv):
            """The coefficients of the terms t times their phase at (x, xi)."""
            return (t["c"] * np.exp(1j * _rowdot(om, xv))[:, None, None]
                    * np.exp(1j * _rowdot(t["w"], xiv))[:, None, None])

        for x, xi in zip(xs, xis):
            xv = np.full(n, x)
            xiv = np.full(n, xi)
            # F(u) = a(x, xi - u): cycles -w/2pi; G(v) = b(x + 2 pi v, xi).
            oracle = oscillatory_pair_integral(-sa["w"] / (2.0 * np.pi), at(sa, om_a, xv, xiv),
                                               om_b, at(sb, om_b, xv, xiv), cfg)
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
        p = f.frequency(f.terms["m"])
        gc = f.terms["c"] * np.exp(2j * np.pi * _rowdot(p, xv))[:, None, None]
        value = oscillatory_pair_integral(np.zeros((1, n)), np.eye(k)[None], p, gc, cfg)
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
        target = eval_series(significant_terms(f).terms, f.L, xv.reshape(1, n))[0]
    else:
        raise TypeError(f"cannot check {type(f).__name__}")
    return float(np.abs(value - target).max())
