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
oracle at sampled points; the Fourier inversion check runs it too, on
the same meshes (_INNER, _OUTER).  The integral is unchanged under
v -> s v, u -> u/s: the oracle takes s = 2L/(M h) with M points of the
inner mesh per period (_inner_period), so every derivative field of
g(x + s v) is one fold, and f(x + Ju/s) is summed by chirp-z passes.  The
phase-space composition acts on lattice symbols by its exact termwise
law (_compose_terms).
"""

from __future__ import annotations

from functools import lru_cache, partialmethod, reduce
from itertools import groupby, product as _iproduct
from math import comb, factorial, prod

import numpy as np

from .errors import BoxMismatchError, ConvergenceError
from .symbols import (
    GridSymbol,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    DeformationMatrix,
    _rowdot,
    _same_box,
    _is_pow2,
    _lattice_fold,
    _term_array,
    centered_idft,
    eval_series,
    series_coefficients,
    significant_terms,
)

__all__ = [
    "deformed_product_exact",
    "deformed_product_numeric",
    "tilde_map",
    "fourier_inversion_check",
]


# Truncation radius and quadrature points per axis of the inner grid, and
# the zero-padding factor of the transform to the outer grid.
OSC_R = 12.0
OSC_Q = 256
OSC_PAD = 2
# The inner mesh -R + j h, Q points per axis, and the outer mesh it transforms to, PAD Q
# points per axis at step 1 / (PAD Q h) (read-only)
_H = 2.0 * OSC_R / OSC_Q
_INNER = (np.arange(OSC_Q) - OSC_Q // 2) * _H
_OUTER = (np.arange(OSC_PAD * OSC_Q) - OSC_PAD * OSC_Q // 2) * (1.0 / (OSC_PAD * OSC_Q * _H))
_DU = _OUTER[1] - _OUTER[0]
_FOLD = np.minimum(np.arange(len(_OUTER)), len(_OUTER) - np.arange(len(_OUTER)))
_INNER.flags.writeable = _OUTER.flags.writeable = _FOLD.flags.writeable = False
_OUTER_ROWS = 64  # rows per block of the oracle's passes to the outer mesh (Gcheck, the f side)
_CHUNK_POINTS = 1 << 14  # values (points times k^2) per chunk of _LatticePlan groups
_KEPT_BYTES = 1 << 25  # kernel-spectra bytes one direction of a _LatticePlan may keep
# kernel-spectra bytes per direction for a batch of several symbols (_plan_batches).  On the
# 15 hierarchy norms of Gaussian grids at theta = 0.25, batching 0.5 MiB members (32 x 32)
# timed level with solo runs from 2^19 to 2^25 bytes, and batching 2.4 MiB members (64 x 64)
# lost 11-15% (2^23, 2^25), so members that large run alone; no verify suite is split by it
_BATCH_BYTES = 1 << 21
# Most term pairs times k^2 one exact product or composition may form (_term_pairs): it
# holds about ten arrays of that many complex values at once (a 626 MB peak for two
# 2048-term waves, k = 1)
MAX_PRODUCT_VALUES = 1 << 22
# The grid product's route check (deformed_product_numeric, read per call): the most
# relative disagreement of the two routes, and the quadrature points that measure it
ROUTE_TOL = 1e-5
CHECK_POINTS = 5


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
def _weight_derivative(n: int, order: int, sigma: tuple) -> tuple:
    terms = {((0,) * n, order): 1.0}
    for axis, count in enumerate(sigma):
        for _ in range(count):
            terms = _diff_weight_terms(terms, axis)
    return tuple((mono, q, c) for (mono, q), c in sorted(terms.items()))


@lru_cache(maxsize=None)
def _reg_pairs(n: int, order: int) -> tuple:
    """Leibniz expansion of (1 - Lap/4pi^2)^order applied to w(v)*G(v).

    Returns ((sigma_w, sigma_g, coef), ...) with
    (1-Lap/4pi^2)^order [wG] = sum coef * d^{sigma_w} w * d^{sigma_g} G (cached).
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


def _weight_groups(n: int, order: int) -> tuple:
    """_reg_pairs(n, order) grouped by sigma_g, on the half mesh.

    Returns ((sigma_g, W), ...) in sorted sigma_g order with W the sum of
    coef * d^{sigma_w} (1+|v|^2)^{-order} over the pairs of that sigma_g,
    at the inner mesh's indices 0..Q/2 per axis, where v <= 0.  Each
    distinct d^{sigma_w} is evaluated once, from a shared table of
    (1+|v|^2)^{-q}.  The weight is even and sigma_w = sigma_g mod 2 per
    axis, so W(..., -v_i, ...) = (-1)^{sigma_g,i} W: _unfold_weight gives the
    whole mesh's W bit for bit.  Made per point, so that only its Psi sum holds them.
    """
    mesh = np.meshgrid(*([_INNER[:OSC_Q // 2 + 1]] * n), indexing="ij", sparse=True)
    r2 = sum(v * v for v in mesh)
    pairs = _reg_pairs(n, order)
    terms = {sw: _weight_derivative(n, order, sw) for sw, _, _ in pairs}
    decay = {q: (1.0 + r2) ** float(-q) for q in {q for t in terms.values() for _, q, _ in t}}

    def derivative(sigma_w):  # d^sigma_w (1+|v|^2)^{-order}
        out = np.zeros_like(r2)
        for mono, q, c in terms[sigma_w]:
            term = c * decay[q]
            for ax, power in enumerate(mono):
                if power:
                    term *= mesh[ax] ** power
            out += term
        return out

    groups: dict[tuple, np.ndarray] = {}
    for sigma_w, run in groupby(pairs, key=lambda pair: pair[0]):  # one d^sigma_w at a time
        d_w = derivative(sigma_w)
        for _, sigma_g, coef in run:
            groups[sigma_g] = groups[sigma_g] + coef * d_w if sigma_g in groups else coef * d_w
    return tuple(sorted(groups.items()))


def _unfold_weight(half: np.ndarray, sigma_g: tuple, out: np.ndarray) -> np.ndarray:
    """A _weight_groups W on the whole inner mesh, written into out (Q^n).  Axis by axis,
    index Q - i > Q/2 takes (-1)^sigma times index i; a zero keeps its sign, as the
    evaluation gives the same zero at v and -v."""
    n, h = half.ndim, OSC_Q // 2
    out[(slice(h + 1),) * n] = half
    for ax, s in enumerate(sigma_g):  # axes before ax are whole, those after it half
        head, tail = (slice(None),) * ax, (slice(h + 1),) * (n - ax - 1)
        mirror = out[head + (slice(h + 1, None),) + tail]
        mirror[...] = out[head + (slice(h - 1, 0, -1),) + tail]
        if s % 2:
            np.negative(mirror, out=mirror, where=mirror != 0)
    return out


# ---------------------------------------------------------------------------
# The regularized quadrature


@lru_cache(maxsize=None)
def _outer_weight(n: int, order: int) -> np.ndarray:
    """W_N(u) = (1+|u|^2)^{-order} on the outer mesh (cached, read-only), on its indices
    0..PAD Q/2 per axis, where u <= 0: W_N is even in each u_i, so index i is index
    _FOLD[i] = min(i, PAD Q - i) on every axis, bit for bit."""
    umesh = np.meshgrid(*[_OUTER[:len(_OUTER) // 2 + 1]] * n, indexing="ij", sparse=True)
    wn = (1.0 + sum(u * u for u in umesh)) ** float(-order)
    wn.flags.writeable = False
    return wn


def _gcheck_rows(n: int, order: int, g_derivative, k: int):
    """(rows, block) over blocks of _OUTER_ROWS outer rows of Gcheck, the FT with kernel
    exp(+2 pi i u.v) of Psi from the inner grid to the outer.  Psi is summed into cols,
    zero-padded along axis 0 alone, and takes the axis-0 pass once (its other Qp - Q
    columns stay zero and are never transformed); each block, padded along axis 1, takes
    the axis-1 pass.  The weights are gone before the first block."""
    Q, Qp = OSC_Q, OSC_PAD * OSC_Q
    off = (Qp - Q) // 2
    cols = np.zeros((Qp,) + (Q,) * (n - 1) + (k, k), dtype=np.complex128)
    # Psi(v) = (1 - Lap/4pi^2)^order [ (1+|v|^2)^{-order} g(x+v) ]: one derivative of G
    # at a time, in sorted order, so they come grouped by their first order
    weight = np.empty((Q,) * n)
    for sigma_g, half in _weight_groups(n, order):
        term = g_derivative(sigma_g)
        term *= _unfold_weight(half, sigma_g, weight)[..., None, None]
        cols[off:off + Q] += term
        del term  # before the next derivative is made
    del weight, half
    centered_idft(cols, (0,), overwrite=True)
    for start in range(0, Qp, _OUTER_ROWS):
        rows = slice(start, start + _OUTER_ROWS)
        block = cols[rows]
        if n == 2:
            block = np.zeros((len(block), Qp) + cols.shape[2:], dtype=np.complex128)
            block[:, off:off + Q] = cols[rows]
            centered_idft(block, (1,), overwrite=True)
        block *= _H ** n
        yield rows, block


def _regularized_quadrature(n: int, order: int, g_derivative, f_rows, k: int):
    """int W_N(u) F_M(u) Gcheck(u) du from the caller's two evaluators, paired over the
    outer mesh in blocks of rows (_gcheck_rows).

    g_derivative(sigma) gives d^sigma G(x + v) on the inner mesh, as a fresh array that is
    weighted in place, and f_rows(rows) gives F_M = (1 - Lap_u/4pi^2)^M [f(x + Ju)] on those
    rows (a slice of axis 0) of the outer mesh, both with trailing k x k axes; order is the
    regularization order N = M.  f_rows is first called after the Psi sum, whose weights
    are gone by then.  Each block gathers its rows and columns of W_N (_outer_weight).
    """
    pairing = "q,qab,qbc->ac" if n == 1 else "qr,qrab,qrbc->ac"
    total = np.zeros((k, k), dtype=np.complex128)
    for rows, block in _gcheck_rows(n, order, g_derivative, k):
        wn = _outer_weight(n, order)[_FOLD[rows]]
        total += np.einsum(pairing, wn if n == 1 else wn[:, _FOLD], f_rows(rows), block)
    return total * _DU ** n


# ---------------------------------------------------------------------------
# Lattice evaluation via the chirp-z transform


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a transform length numpy's FFT runs fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=64)
def _chirp_spectrum(N: int, count: int, psi: float, size: int) -> np.ndarray:
    """FFT of _czt_axis's chirp exp(-i psi k^2 / 2), zero-padded to size (cached, read-only)."""
    k = np.arange(1 - N, count) + N // 2
    spectrum = np.fft.fft(np.exp(-0.5j * psi * k * k), size)
    spectrum.flags.writeable = False
    return spectrum


def _czt_axis(coeffs: np.ndarray, axis: int, L: float, scale: float,
              start: float, step: float, count: int) -> np.ndarray:
    """Evaluate sum_m C[m] exp(2 pi i scale (m/2L) y_j), y_j = start + j step.

    The summed axis is indexed by i = m + N/2 and is replaced by the
    output point axis of length count.  Bluestein's chirp-z algorithm
    (Rabiner, Schafer and Rader, 1969): with psi = 2 pi scale step / 2L and
    mj = (m^2 + j^2 - (j - m)^2) / 2 the sum is a linear convolution with
    the chirp exp(-i psi k^2 / 2), done by FFTs zero-padded to the
    smallest 5-smooth length >= N + count - 1 (_fast_len).  The FFTs run
    along the last, contiguous axis of a padded copy; the product with the
    chirp's spectrum and the inverse FFT run in place on it, and the result
    is a view into it.
    """
    N = coeffs.shape[axis]
    m = np.arange(N) - N // 2
    j = np.arange(count)
    psi = 2.0 * np.pi * scale * step / (2.0 * L)
    pre = np.exp(2j * np.pi * scale * m * start / (2.0 * L) + 0.5j * psi * m * m)
    size = _fast_len(N + count - 1)
    y = np.fft.fft(np.multiply(np.moveaxis(coeffs, axis, -1), pre, order="C"), size)
    y *= _chirp_spectrum(N, count, psi, size)
    np.fft.ifft(y, out=y)
    conv = y[..., N - 1:N - 1 + count]
    conv *= np.exp(0.5j * psi * j * j)
    return np.moveaxis(conv, -1, axis)


def _inner_period(L: float) -> int:
    """M, the inner mesh's points per period of the box: the 5-smooth number nearest above
    2L/h = L Q/R (_fast_len), so the oracle's scale s = 2L/(M h) puts a period in M steps.
    M is capped at _fast_len(Q) = Q: past L = R, s > 1 and a point's bins stop growing."""
    return min(_fast_len(max(1, round(L * OSC_Q / OSC_R))), _fast_len(OSC_Q))


def _f_first_pass(fhat, p_axis, L, theta, order, x) -> np.ndarray:
    """The f side's first chirp-z pass to the outer mesh, (PAD Q, N, k, k), made, passed and
    copied out of _czt_axis's padded buffer one _OUTER_ROWS chunk of columns at a time."""
    # f(x + J'u) = sum c_m exp(2 pi i p.x) exp(2 pi i (J'^T p).u) with
    # J'^T p = (-theta' p_2, theta' p_1): axis roles swap under J'.
    pre1 = np.exp(2j * np.pi * p_axis * x[0])
    pre2 = np.exp(2j * np.pi * p_axis * x[1])
    first = np.empty((len(_OUTER),) + fhat.shape[1:], dtype=np.complex128)
    for start in range(0, fhat.shape[0], _OUTER_ROWS):
        cols = slice(start, start + _OUTER_ROWS)
        c = fhat[cols] * (pre1[cols, None] * pre2[None, :] * (
            1.0 + theta ** 2 * (p_axis[cols, None] ** 2 + p_axis[None, :] ** 2)
        ) ** order)[..., None, None]
        first[:, cols] = _czt_axis(np.swapaxes(c, 0, 1), 0, L, -theta, float(_OUTER[0]), _DU,
                                   len(_OUTER))
    return first


def _quadrature_point_lattice(fhat, ghat, n, L, J, x) -> np.ndarray:
    """Quadrature route for grid data by lattice evaluation of both factors.

    The integral is unchanged under v -> s v, u -> u/s, and s = 2L/(M _H) (_inner_period)
    puts a whole period in M steps of the inner mesh v_j = -OSC_R + j _H (_INNER).  So each
    derivative field d^sigma [g(x + s v)] is one fold of the scaled series, its factor
    (2 pi i s p)^sigma and the phase of the first point x - s OSC_R, and one inverse FFT
    (_lattice_fold), tiled past a period.  The f side, f(x + Ju/s), whose step scales with
    theta/s, is evaluated by chirp-z passes (_czt_axis), the first one on the first f_rows
    call, after the Psi sum: a point holds the g side's weights or that pass, never both.
    """
    order = n // 2 + 1
    k = fhat.shape[-1]
    p_axis = (np.arange(fhat.shape[0]) - fhat.shape[0] // 2) / (2.0 * L)
    M = _inner_period(L)
    s = 2.0 * L / (M * _H)  # 1.0 exactly at L = 6
    # per axis, the phase of the mesh's first point x - s OSC_R, and d/dv of g(x + s v)
    ramps = [np.exp(2j * np.pi * p_axis * (float(x[ax]) - s * OSC_R)) for ax in range(n)]
    dv = 2j * np.pi * s * p_axis

    def g_derivative(sigma_g):
        factor = reduce(np.multiply.outer, [r * dv ** e for r, e in zip(ramps, sigma_g)])
        c = ghat * factor[..., None, None]
        del factor  # before the fold
        return _lattice_fold(c, n, M, OSC_Q)

    if J.is_zero:
        fx = fhat  # the series at the point x, one axis at a time
        for ax in range(n):
            fx = _czt_axis(fx, 0, L, 1.0, float(x[ax]), 1.0, 1)[0]

        def f_rows(rows):
            return np.broadcast_to(fx, (len(_OUTER[rows]),) + (len(_OUTER),) * (n - 1) + (k, k))
    else:
        # J = theta [[0, 1], [-1, 0]] (n = 2), and f(x + Ju/s) is f(x + J'u), theta' = theta/s
        theta = float(J.entries[0, 1]) / s
        with np.errstate(over="ignore"):  # the f side's weight, largest at the corner p_0
            if not np.isfinite((1.0 + np.float64(theta) ** 2 * (2 * p_axis[0] ** 2)) ** order):
                raise ValueError(f"theta = {J.entries[0, 1]:.6g} is too large for the route check: "
                                 f"the oracle weight (1 + theta'^2 |p|^2)^{order} overflows "
                                 f"at L = {L}")
        first = lru_cache(lambda: _f_first_pass(fhat, p_axis, L, theta, order, x))

        def f_rows(rows):  # the axis-1 pass, one block of rows at a time; the first, once
            return _czt_axis(first()[rows], 1, L, theta, float(_OUTER[0]), _DU, len(_OUTER))
    return _regularized_quadrature(n, order, g_derivative, f_rows, k)


# ---------------------------------------------------------------------------
# Deformed products


def _check_boxes(f, g, J: DeformationMatrix):
    if not _same_box(f, g):
        raise BoxMismatchError(f"symbols live on different boxes: (n={f.n}, L={f.L}, "
                               f"k={f.k}) vs (n={g.n}, L={g.L}, k={g.k})")
    if J.n != f.n:
        raise BoxMismatchError(f"J has dimension {J.n}, symbols have {f.n}")


def _term_pairs(what: str, ta, tb, k: int) -> tuple:
    """The indices (i, j) of every pair of terms of ta and tb, j inner; ValueError, before
    any pair is formed, when the pairs times k^2 exceed MAX_PRODUCT_VALUES."""
    if len(ta) * len(tb) * k ** 2 > MAX_PRODUCT_VALUES:
        raise ValueError(f"{what} of {len(ta)} x {len(tb)} terms of {k} x {k} "
                         f"coefficients exceeds {MAX_PRODUCT_VALUES} values")
    return np.divmod(np.arange(len(ta) * len(tb)), len(tb))


def deformed_product_exact(
    f: PlaneWaveSymbol, g: PlaneWaveSymbol, J: DeformationMatrix
) -> PlaneWaveSymbol:
    """Deformed product of plane-wave symbols by the exact phase law.

    ValueError, before any pair is formed, when the term pairs times k^2
    exceed MAX_PRODUCT_VALUES.
    """
    if not isinstance(f, PlaneWaveSymbol) or not isinstance(g, PlaneWaveSymbol):
        raise TypeError("exact route needs plane-wave symbols")
    _check_boxes(f, g, J)
    tf, tg = f.terms, g.terms
    i, j = _term_pairs("exact product", tf, tg, f.k)
    pJ = np.matmul(f.frequency(tf["m"])[:, None, :], J.entries)[:, 0, :]
    phase = np.exp(-2j * np.pi * _rowdot(pJ[i], g.frequency(tg["m"])[j]))
    c = phase[:, None, None] * np.matmul(tf["c"][i], tg["c"][j])
    return PlaneWaveSymbol(f.n, f.L, f.k, _term_array(tf["m"][i] + tg["m"][j], c))


def _twisted_lattice_product(f: GridSymbol, g: GridSymbol, J: DeformationMatrix,
                             fhat=None, ghat=None):
    """Route (b): the alias-folded twisted convolution, L_f applied to g.

    The lattice action runs over the factor with fewer significant terms:
    over g it uses (f x_J g)^T = g^T x_{-J} f^T, with pointwise k x k transposes.
    fhat, ghat are the factors' series_coefficients when the caller has them;
    transposing the coefficients of g keeps its significant set, which keys on
    the largest entry.
    """
    if J.is_zero:
        fg = _kfirst_product(_k_first(f.values), _k_first(g.values))
        return fg.transpose(2, 0, 1).reshape(f.values.shape)
    sf, sg = significant_terms(f, fhat), significant_terms(g, ghat)
    if len(sf.terms) <= len(sg.terms):
        return _LatticePlan(tilde_map(sf, J), f.N).forward(g.values)
    t = sg.terms.copy()
    t["c"] = np.swapaxes(t["c"], -1, -2)
    g_t = PlaneWaveSymbol(g.n, g.L, g.k, t)
    plan = _LatticePlan(tilde_map(g_t, DeformationMatrix(-J.entries)), f.N)
    return np.swapaxes(plan.forward(np.swapaxes(f.values, -1, -2)), -1, -2)


def _check_points(N: int, count: int, n: int) -> list[tuple]:
    """Grid indices of min(count, N) distinct central points: evenly spread i on axis 0 and,
    for n = 2, j = N/2 + (i - N/2) // 2 - N/16, off x_1 = +-x_2 (the default five from N = 16
    on).  The axis swap maps J to -J and fixes x_1 = x_2, where a swap-symmetric pair's
    product cannot tell J from -J."""
    count = min(count, N)
    stride = N // max(count, 1)
    return [(i, N // 2 + (i - N // 2) // 2 - N // 16)[:n]
            for i in range(stride // 2, stride // 2 + count * stride, stride)]


def deformed_product_numeric(
    f: GridSymbol,
    g: GridSymbol,
    J: DeformationMatrix,
    lattice_only: bool = False,
    report: dict | None = None,
) -> GridSymbol:
    """Deformed product of grid symbols.

    The twisted lattice convolution produces the grid (exact on the
    periodic model); unless lattice_only, the regularized quadrature route
    re-evaluates the product at CHECK_POINTS sample points and
    ConvergenceError is raised when the routes disagree beyond ROUTE_TOL.
    The measured disagreement is written to report["route_disagreement"]
    when a dict is passed.  The check points run first and keep only their
    k x k values, so the two routes' working sets never meet: a product's
    peak is its two series plus one check point.
    """
    if not isinstance(f, GridSymbol) or not isinstance(g, GridSymbol):
        raise TypeError("numeric route needs grid symbols")
    _check_boxes(f, g, J)
    if f.N != g.N:
        raise BoxMismatchError("grids have different resolutions")
    count = 0 if lattice_only else CHECK_POINTS
    # each factor's series, once: the lattice route and the oracle share it
    if count > 0 or not J.is_zero:
        fhat, ghat = series_coefficients(f), series_coefficients(g)
    else:
        fhat = ghat = None
    points = [(at, [float(f.axis[i]) for i in at]) for at in _check_points(f.N, count, f.n)]
    oracles = [_quadrature_point_lattice(fhat, ghat, f.n, f.L, J, x) for _, x in points]
    result = f.with_values(_twisted_lattice_product(f, g, J, fhat, ghat))
    values = result.values  # the one copy the check points read

    worst = 0.0
    if points:
        scale = max(
            float(np.abs(values).max()),
            float(np.abs(f.values).max()) * float(np.abs(g.values).max()),
            1e-300,
        )
        for (at, x), oracle in zip(points, oracles):
            disagree = float(np.abs(oracle - values[at]).max()) / scale
            if not np.isfinite(disagree):
                raise ConvergenceError(f"product routes disagree at check point {x}: {disagree}")
            worst = max(worst, disagree)
        if worst > ROUTE_TOL:
            raise ConvergenceError(
                f"product routes disagree: {worst:.3e} > ROUTE_TOL {ROUTE_TOL:.1e}"
            )
    if report is not None:
        report["route_disagreement"] = worst
        report["points_checked"] = len(points)
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


def _k_first(values: np.ndarray) -> np.ndarray:
    """(..., k, k) values as one contiguous (k, k, points) array."""
    k = values.shape[-1]
    return np.ascontiguousarray(np.reshape(values, (-1, k, k)).transpose(1, 2, 0))


def _kfirst_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise k x k products of (k, k, points) arrays: the bits of the k-last
    einsum "...ab,...bc->...ac", and fast also for k = 2, where that one is slow."""
    return np.einsum("abp,bcp->acp", a, b)


def _leading(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """buffer itself when it has the given shape, else its leading values as a C-contiguous
    array of that shape (a chunk smaller than the buffer's)."""
    return buffer if buffer.shape == shape else buffer.reshape(-1)[:prod(shape)].reshape(shape)


def _shift_groups(sym: PlaneWavePhaseSymbol) -> tuple:
    """(zero, m_1, first, group): the zero-shift terms' mask and, over the shifted terms,
    m_1 = sum of m[1:] and their groups keyed by w_0 + i m_1 (np.unique's index and inverse)."""
    m, w = sym.terms["m"], sym.terms["w"]
    zero = ~w.any(axis=1)
    m1 = m[~zero, 1:].sum(axis=1)
    _, first, group = np.unique(w[~zero, 0] + 1j * m1, return_index=True, return_inverse=True)
    return zero, m1, first, group


def _plan_batches(syms: list, N: int) -> list:
    """(symbols, their _shift_groups) in consecutive runs whose _LatticePlan keeps its kernel
    spectra, padded to the run's largest group count, within min(_KEPT_BYTES, _BATCH_BYTES);
    a symbol past it alone is a run.  Each symbol is grouped once, here."""
    runs, top, budget = [], 0, min(_KEPT_BYTES, _BATCH_BYTES)
    for sym in syms:
        grouping = _shift_groups(sym)
        groups, unit = len(grouping[2]), 16 * sym.k ** 2 * N ** sym.n  # per group
        if runs and (len(runs[-1][0]) + 1) * max(top, groups) * unit <= budget:
            runs[-1][0].append(sym)
            runs[-1][1].append(grouping)
            top = max(top, groups)
        else:
            runs.append(([sym], [grouping]))
            top = groups
    return runs


class _LatticePlan:
    """The twisted translation sums of a batch of lattice phase symbols on the N-point grid.

    forward: values -> field g + IDFT(sum_t roll((c_t ghat) r_t, m_t)) / N^n, ghat = DFT(g),
    r_t = exp(2 pi i p.w_t), p = (index - N/2) / 2L; the zero-shift terms form the pointwise
    field.  The rest group by (w_0, m_1) into one sum S = sum_g FFT_0(K_g) FFT_0(B_g) of k x k
    products: B_g = roll(r_0 ghat, m_1) on axis 1, and K_g(d, s) adds c_t r_1t(s - m_1) over
    the group's m_0t = d mod N.  The ramps r_1 are one row of N^(n-1) values per distinct
    axis-1 shift w_1, which each term indexes (the 1136 shifted terms of a 256 x 256
    Gaussian's tilde_map at theta = 0.25 share 39).  The axis-0 IFFT of S and the axis-0 IDFT fold to
    S[(N/2 - j) mod N] (-1)^(j + N/2).  adjoint is the exact matrix adjoint, the transpose of
    each step.  The set-up serves both directions; the transforms' signs and powers of two
    merge exactly into one sign table, r_0 and a scale.  Cost O(G N^n log N) for G groups.
    The sum runs in chunks of at most max(_CHUNK_POINTS, N k^2) values per member: several
    groups when one group's N^n k^2 values fit, else a run of axis-1 rows of one group, so a
    256 x 256 scalar grid holds a quarter of a group at a time.  Each (row, point) adds the
    same groups in the same order either way.  A direction streams FFT_0(K_g) on its first
    application and keeps them from the second, kept_bytes in all, unless that exceeds
    _KEPT_BYTES.  An application's working set is its input, a copy, the sum and one
    chunk's buffers, made once per call; the zero-shift field's product is formed last.

    N must be a power of two, for that fold (ValueError before any set-up).
    The symbols share (n, L, k); a single symbol is a batch of one.  Each member applies to
    its own slice of the values, of shape (members,) + (N,) * n + (k, k) (a batch of one
    also takes (N,) * n + (k, k)).  A member's groups are padded with zero kernels up to the
    largest group count G, and every member's sums run in the same order and chunks as its
    own plan's, so each member's bits are those of its own plan.  groups, when given, are
    the symbols' _shift_groups.  keep(rows) drops members.
    """

    def __init__(self, syms, N: int, groups=None):
        if not _is_pow2(N):
            raise ValueError(f"points per axis must be a power of two, got {N}")
        syms = [syms] if isinstance(syms, PlaneWavePhaseSymbol) else list(syms)
        groups = [_shift_groups(sym) for sym in syms] if groups is None else groups
        n, k, L = syms[0].n, syms[0].k, syms[0].L
        if not all(_same_box(s, syms[0]) for s in syms[1:]):
            raise BoxMismatchError("phase symbols of one plan live on different boxes")
        half, S, M = N // 2, N ** (n - 1), len(syms)
        lattice = (np.arange(N) - half) / (2.0 * L)
        self.N, self.k, self.M, self.axes, self.s = N, k, M, (-1, -2)[:n], np.arange(S)
        # the alternating sign table of both sides; flip = (-1)^(S/2 + N/2), S = N^(n-1),
        # turns it into the centered DFT's post-sign and goes into r_0 and the scale
        alt, flip = (-1.0) ** np.arange(N), (-1.0) ** (S // 2 + half)
        self.sign, self.scale = np.outer(alt[:S], alt), alt[:S, None] * flip / float(N) ** n
        self.fold = (half - np.arange(N)) % N
        terms = np.concatenate([sym.terms for sym in syms])
        member = np.repeat(np.arange(M), [len(sym.terms) for sym in syms])
        zero = np.concatenate([grouping[0] for grouping in groups])
        # The fields are k-first, their points in the (member, s, axis-0 point) order; a
        # member without one has a zero field when another member has one; the adjoint's
        # is made on first use.
        self.fields = [None, None]
        if zero.any() or not all(len(grouping[2]) for grouping in groups):
            field = np.zeros((M,) + (N,) * n + (k, k), dtype=np.complex128)
            np.add.at(field, (member[zero],) + tuple(((terms["m"][zero] + half) % N).T),
                      terms["c"][zero])
            centered_idft(field, tuple(range(1, n + 1)), overwrite=True)
            self.fields[0] = _k_first(np.swapaxes(field.reshape(M, N, S, k, k), 1, 2))
        # Per term: member, group, m_0 mod N, m_1, c and the row of its axis-1 ramp r_1t at
        # s: one row per distinct shift w_1, keyed by the float's bits.  Groups
        # are keyed by w_0 + i m_1.  The sum's arrays have the axes (k, k, member, group, s,
        # axis-0 point), s the point on axis 1; for n = 1, s is one point with m_1 = w_1 = 0.
        # The adjoint moves the roll by m_1 off B_g^H: it gathers roll(., -m_1) of its
        # input, and its kernels take r_1t at s, not s - m_1.  The rolls index the values'
        # merged (member, s) axis, one table per direction.
        t, self.member = terms[~zero], member[~zero]
        self.group = np.concatenate([grouping[3] for grouping in groups])
        self.m0, self.m1, self.c = t["m"][:, 0] % N, t["m"][:, 1:].sum(axis=1), t["c"]
        shifts = {}
        self.row = np.array([shifts.setdefault(bits, len(shifts)) for bits in
                             t["w"][:, 1:].sum(axis=1).view(np.int64).tolist()], dtype=np.intp)
        w1 = np.array(list(shifts), dtype=np.int64).view(np.float64)
        self.r1 = np.exp(2j * np.pi * w1[:, None] * lattice[self.s])
        self.G = max(len(grouping[2]) for grouping in groups)
        r0 = np.zeros((M, self.G, N), dtype=np.complex128)
        self.rolls = np.zeros((2, M, self.G, S), dtype=np.intp)
        sign, at = np.array([1, -1])[:, None, None], 0
        for i, (_, m1, first, group) in enumerate(groups):
            r0[i, :len(first)] = np.exp(2j * np.pi * t["w"][at + first, :1] * lattice)
            self.rolls[:, i, :len(first)] = (self.s - sign * m1[first, None]) % N
            at += len(group)
        self.rolls += S * np.arange(M)[:, None, None]  # into member i's rows, padding too
        self.r0 = r0 * flip, np.conj(r0) / float(N) ** n  # (members, groups, N)
        self.kept = [None, None]
        # the chunks, (group slice, axis-1 row slice) with the rows inner: at most cap values
        # per member, as step groups of all S rows, or when one group does not fit, as runs
        # of rows of one group; the first chunk is the largest
        cap = max(_CHUNK_POINTS, N * k * k)
        step, run = max(1, cap // (N ** n * k * k)), min(S, cap // (N * k * k))
        self.chunks = [(slice(g, min(g + step, self.G)), slice(r, min(r + run, S)))
                       for g in range(0, self.G, step) for r in range(0, S, run)]

    @property
    def kept_bytes(self) -> int:
        """Bytes of one direction's kernel spectra: k^2 G N^n complex values per member."""
        return 16 * self.k * self.k * self.M * self.G * self.N ** len(self.axes)

    def keep(self, rows) -> None:
        """Drop the members where the boolean rows is False; the kept spectra stay."""
        k, t, M = self.k, rows[self.member], int(rows.sum())
        self.member = (np.cumsum(rows) - 1)[self.member[t]]
        self.group, self.m0, self.m1, self.c, self.row = (
            a[t] for a in (self.group, self.m0, self.m1, self.c, self.row))
        self.fields = [f if f is None else np.ascontiguousarray(
            f.reshape(k, k, self.M, -1)[:, :, rows]).reshape(k, k, -1) for f in self.fields]
        self.kept = [[(g, span, np.ascontiguousarray(FK[:, :, rows])) for g, span, FK in kept]
                     if isinstance(kept, list) else kept for kept in self.kept]
        moved = len(self.s) * (np.flatnonzero(rows) - np.arange(M))  # each kept row's shift
        self.rolls = self.rolls[:, rows] - moved[:, None, None]
        self.r0, self.M = tuple(r[rows] for r in self.r0), M

    def _spectrum(self, adjoint, g, rows):
        """(group slice, row slice, FFT_0 of the chunk's kernels K_g at the axis-1 points
        rows), conjugated for the adjoint."""
        t = (self.group >= g.start) & (self.group < g.stop)
        s = self.s[rows]
        r1 = self.r1[self.row[t, None], s if adjoint else (s - self.m1[t, None]) % self.N]
        K = np.zeros((self.k, self.k, self.M, g.stop - g.start, len(s), self.N), complex)
        np.add.at(K, (..., self.member[t], self.group[t] - g.start, slice(None), self.m0[t]),
                  self.c[t][..., None] * r1[:, None, None])
        FK = np.fft.fft(K, out=K)
        return g, rows, np.conj(FK, out=FK) if adjoint else FK

    def _spectra(self, adjoint):
        if self.kept[adjoint] is None or self.kept_bytes > _KEPT_BYTES:
            self.kept[adjoint] = False  # streamed once
            return (self._spectrum(adjoint, g, rows) for g, rows in self.chunks)
        if self.kept[adjoint] is False:  # built whole, so a concurrent caller never sees part
            self.kept[adjoint] = [self._spectrum(adjoint, g, rows) for g, rows in self.chunks]
        return self.kept[adjoint]

    def _apply(self, values, adjoint):
        N, k, M, S, sign = self.N, self.k, self.M, len(self.s), self.sign
        view = np.reshape(values, (M, N, S, k, k)).transpose(3, 4, 0, 2, 1)
        if adjoint and self.fields[0] is not None and self.fields[1] is None:
            self.fields[1] = np.ascontiguousarray(np.conj(self.fields[0].transpose(1, 0, 2)))
        field = self.fields[adjoint]
        if not self.G:  # the field alone: no copy of x outlives the product
            out = _kfirst_product(field, view.reshape(k, k, -1))
            return self._points_first(out.reshape(k, k, M, S, N), values)
        x = view.copy()
        x *= sign[:, :1] if adjoint else sign  # sign[:, :1]: axis 1's alone
        for ax in self.axes[adjoint:]:  # the adjoint's axis 0 is folded in
            np.fft.fft(x, axis=ax, out=x)
        x = x[..., self.fold] if adjoint else x
        x *= sign
        x = x.reshape(k, k, M * S, N)
        acc = self._sum(x, adjoint)
        del x  # spent: the zero-shift field's product, formed last, takes its place
        acc = acc if adjoint else acc[..., self.fold]
        acc *= sign
        for ax in self.axes[not adjoint:]:  # the forward's axis 0 is folded in
            np.fft.ifft(acc, axis=ax, norm="forward", out=acc)
        acc *= sign if adjoint else self.scale
        if field is None:
            return self._points_first(acc, values, 0.0)
        out = _kfirst_product(field, view.reshape(k, k, -1))
        return self._points_first(acc, values, out.reshape(acc.shape))

    def _sum(self, x, adjoint):
        """The sum over the chunks, (k, k, member, s, axis-0 point), of the transformed
        (k, k, member s, axis-0 point) x: per chunk, B is gathered, transformed and paired
        into the sum's rows, in buffers shaped as the first and largest chunk's."""
        g, rows = self.chunks[0]
        k, M, rs = self.k, self.M, rows.stop - rows.start
        gathered = np.empty((k, k, M, g.stop - g.start, rs, self.N), dtype=np.complex128)
        summed = np.empty((k, k, M, rs, self.N), dtype=np.complex128)
        paired = np.empty_like(gathered) if adjoint else None
        roll, r0 = self.rolls[int(adjoint)], self.r0[adjoint]  # int: not a mask
        acc = np.zeros((k, k, M, len(self.s), self.N), dtype=np.complex128)
        for g, rows, FK in self._spectra(adjoint):
            B = _leading(gathered, FK.shape)
            chunk_sum = _leading(summed, FK.shape[:3] + FK.shape[4:])
            np.take(x, roll[:, g, rows], axis=2, out=B, mode="clip")  # in range; unbuffered
            if adjoint:
                P = np.einsum("bamgsf,bcmgsf->acmgsf", FK, B, out=_leading(paired, FK.shape))
                np.fft.ifft(P, norm="forward", out=P)
                np.einsum("mgf,acmgsf->acmsf", r0[:, g], P, out=chunk_sum)
            else:
                B *= r0[:, g, None]
                np.einsum("abmgsf,bcmgsf->acmsf", FK, np.fft.fft(B, out=B), out=chunk_sum)
            acc[..., rows, :] += chunk_sum
        return acc

    @staticmethod
    def _points_first(acc, values, field=None):
        """(k, k, member, s, axis-0 point) sums, plus field when given, as a C-contiguous
        array shaped like values: the sum and the transpose are one pass."""
        axes = (2, 4, 3, 0, 1)
        if field is None:
            return np.ascontiguousarray(acc.transpose(axes)).reshape(np.shape(values))
        result = np.empty(acc.transpose(axes).shape, dtype=np.complex128)
        np.add(acc.transpose(axes), np.transpose(field, axes) if np.ndim(field) else field,
               out=result)
        return result.reshape(np.shape(values))

    forward = partialmethod(_apply, adjoint=False)
    adjoint = partialmethod(_apply, adjoint=True)


def _compose_terms(
    a: PlaneWavePhaseSymbol, b: PlaneWavePhaseSymbol
) -> PlaneWavePhaseSymbol:
    """The composition, Op(compose(a, b)) = Op(a) Op(b), by its exact termwise law.

    Frequencies add and the coefficient picks up exp(i w_a . omega_b); bounded by _term_pairs.
    """
    if not _same_box(a, b):
        raise BoxMismatchError("phase symbols live on different boxes")
    ta, tb = a.terms, b.terms
    i, j = _term_pairs("composition", ta, tb, a.k)
    phase = np.exp(1j * _rowdot(ta["w"][i], b.omega(tb["m"])[j]))
    c = phase[:, None, None] * np.matmul(ta["c"][i], tb["c"][j])
    return PlaneWavePhaseSymbol(a.n, a.L, a.k, _term_array(
        ta["m"][i] + tb["m"][j], c, ta["w"][i] + tb["w"][j]))


def fourier_inversion_check(f, x) -> float:
    """Residual of int int exp(2 pi i u.v) f(x+v) dv du, by the regularized quadrature
    at J = 0 (constant left factor), against the series' value at x: zero for exact inversion.

    A plane wave goes onto the smallest power-of-two grid that holds each m in [-N/2, N/2).
    """
    if isinstance(f, PlaneWaveSymbol):
        f = f.to_grid(1 << (2 * f.max_abs_m + 1).bit_length())
    elif not isinstance(f, GridSymbol):
        raise TypeError(f"cannot check {type(f).__name__}")
    n, k = f.n, f.k
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    fhat = np.zeros((f.N,) * n + (k, k), dtype=np.complex128)
    fhat[(f.N // 2,) * n] = np.eye(k)
    ghat = series_coefficients(f)
    value = _quadrature_point_lattice(fhat, ghat, n, f.L, DeformationMatrix.zero(n), xv)
    target = eval_series(significant_terms(f, ghat).terms, f.L, xv.reshape(1, n))[0]
    return float(np.abs(value - target).max())
