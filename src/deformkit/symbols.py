"""Matrix-valued symbols on boxes, grids, and phase space.

Conventions used throughout the package:

* Position grids discretize the box [-L, L)^n with N points per axis,
  x_i = (i - N/2) dx, dx = 2L/N.  The dual grid carries angular
  frequencies xi_j = (j - N/2) dxi with dxi = pi/L, so dx * dxi = 2*pi/N
  and the centered discrete Fourier transform is exactly unitary between
  the weighted discrete L^2 spaces.
* Functions on the box are handled as trigonometric series with cycle
  frequencies p = m/(2L), m integer, kernel exp(2*pi*i p.x).  Phase-space
  symbols a(x, xi) use angular kernels exp(i(omega.x + w.xi)).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from itertools import product as _iproduct
from pathlib import Path

import numpy as np

from .coeff_algebra import MAX_DIM, MatrixElement
from .errors import GridMismatchError, OrderTooHighError

__all__ = [
    "MAX_DERIV_ORDER",
    "DeformationMatrix",
    "PlaneWaveSymbol",
    "GridSymbol",
    "ModuleVector",
    "PlaneWavePhaseSymbol",
    "axis_points",
    "multi_indices",
    "centered_dft",
    "centered_idft",
    "series_coefficients",
    "significant_terms",
    "eval_series",
    "derivative",
    "inner_product",
    "norm_L2",
    "sup_norm",
    "read_symbol_file",
    "write_symbol_file",
    "read_plane_wave_json",
    "write_plane_wave_json",
    "read_rsym",
    "write_rsym",
]

MAX_DERIV_ORDER = 8

# Relative threshold for pruning trigonometric series coefficients.
PRUNE_REL = 1e-13

# Oversampling factor for sup norms of band-limited data, and the most
# points the dense sampling may take in all: 2^18, 512 per axis for n = 2.
SUP_OVERSAMPLE = 8
SUP_MAX_POINTS_LOG2 = 18


def axis_points(N: int, L: float) -> np.ndarray:
    """Grid points (i - N/2) * (2L/N) for i = 0..N-1."""
    return (np.arange(N) - N // 2) * (2.0 * L / N)


def multi_indices(n: int, max_order: int, exact: bool = False) -> list[tuple[int, ...]]:
    """Multi-indices over n axes with |alpha| <= max_order (== if exact)."""
    out = []
    for alpha in _iproduct(range(max_order + 1), repeat=n):
        total = sum(alpha)
        if total <= max_order and (not exact or total == max_order):
            out.append(alpha)
    return sorted(out)


def _is_pow2(N: int) -> bool:
    return N >= 2 and (N & (N - 1)) == 0


def _same_geometry(a: tuple, b: tuple) -> bool:
    """Same (n, N, k), and the half-widths L equal within 1e-12 of the larger."""
    (n, N, L, k), (m, M, K, j) = a, b
    return (n, N, k) == (m, M, j) and abs(L - K) <= 1e-12 * max(L, K)


def _same_box(a, b) -> bool:
    """Same n and k, and the same half-width L by the _same_geometry rule."""
    return _same_geometry((a.n, None, a.L, a.k), (b.n, None, b.L, b.k))


def centered_dft(values: np.ndarray, axes) -> np.ndarray:
    """Per-axis sums G_j = sum_i f_i exp(-2 pi i (i-N/2)(j-N/2)/N)."""
    return _centered(np.array(values, dtype=np.complex128), axes, -1)


def centered_idft(values: np.ndarray, axes, overwrite: bool = False) -> np.ndarray:
    """Per-axis sums H_i = sum_j G_j exp(+2 pi i (i-N/2)(j-N/2)/N); overwrite=True
    transforms a complex128 input in place and returns it."""
    out = (np.asarray if overwrite else np.array)(values, dtype=np.complex128)
    return _centered(out, axes, 1)


def _centered(out: np.ndarray, axes, sign: int) -> np.ndarray:
    """centered_dft (sign -1) or centered_idft (sign +1) of a complex128 array, in place."""
    for ax in axes:
        N = out.shape[ax]
        shape = [1] * out.ndim
        shape[ax] = N
        alt = ((-1.0) ** np.arange(N)).reshape(shape)
        post = (-1.0) ** (N // 2) if N % 2 == 0 else np.exp(sign * 0.5j * np.pi * N)
        out *= alt
        (np.fft.fft if sign < 0 else np.fft.ifft)(out, axis=ax, out=out)
        out *= alt * (post if sign < 0 else post * N)
    return out


# ---------------------------------------------------------------------------
# Deformation matrices


@dataclass(frozen=True)
class DeformationMatrix:
    """Real antisymmetric n x n matrix driving the deformed product."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix has non-finite entries")
        scale = max(1.0, float(np.abs(arr).max()))
        sym = np.abs(arr + arr.T).max()
        if sym > 1e-14 * scale:
            raise ValueError(f"matrix is not antisymmetric (symmetric part {sym:.2e})")
        arr = 0.5 * (arr - arr.T)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.entries == 0))

    @classmethod
    def zero(cls, n: int) -> "DeformationMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def symplectic(cls, theta: float, n: int = 2) -> "DeformationMatrix":
        """theta times the standard symplectic form [[0, I], [-I, 0]]."""
        if n % 2 != 0:
            raise ValueError("symplectic form needs even dimension")
        if not np.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        half = n // 2
        j = np.zeros((n, n))
        j[:half, half:] = np.eye(half)
        j[half:, :half] = -np.eye(half)
        return cls(theta * j)


# ---------------------------------------------------------------------------
# Plane-wave symbols


def _check_box(n: int, L: float):
    if n not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {n}")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"half-width must be positive and finite, got {L}")


def _integral(v, what: str) -> int:
    """int(v), refusing a value that int() would truncate (such as 1.5)."""
    i = int(v)
    if i != v:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return i


def _column(values, shape: tuple, what: str, dtype=None) -> np.ndarray:
    """values as an array of shape (T,) + shape; ValueError on another shape."""
    col = np.asarray(values, dtype=dtype)
    col = col.reshape((0,) + shape) if len(col) == 0 else col
    if col.shape[1:] != shape:
        raise ValueError(f"{what} have shape {col.shape[1:]}, need {shape}")
    return col


def _term_array(m, c, w=None) -> np.ndarray:
    """A structured term array with fields m (T, n), w (T, n) if given, c (T, k, k)."""
    n, k = np.shape(m)[1], np.shape(c)[-1]
    fields = [("m", np.int64, (n,))] + ([] if w is None else [("w", np.float64, (n,))])
    out = np.empty(len(m), dtype=fields + [("c", np.complex128, (k, k))])
    out["m"], out["c"] = m, c
    if w is not None:
        out["w"] = w
    return out


def _canonical_terms(sym, names: tuple) -> np.ndarray:
    """The terms of a plane-wave or phase symbol in canonical form.

    sym.terms is a structured term array or a sequence of tuples, with the
    fields names: ("m", "c") or ("m", "w", "c").  Checks the box, the fiber
    size and each column: integral |m| <= 2**53, finite w and c; from
    tuples with k = 1, scalar coefficients count as 1 x 1.  The key of a
    term is m, then np.round(w, 12) (w itself where that overflows); terms
    with equal keys merge into the first one's head, summed left to right
    (ValueError past the float range), and zero coefficients are pruned.
    Returns a read-only structured array sorted by key.
    """
    n, k = sym.n, sym.k
    _check_box(n, sym.L)
    if not 1 <= k <= MAX_DIM:
        raise ValueError(f"fiber size must be in 1..{MAX_DIM}, got {k}")
    terms = sym.terms
    if isinstance(terms, np.ndarray) and terms.dtype.names is not None:
        if terms.dtype.names != names:
            raise ValueError(f"term array has fields {terms.dtype.names}, need {names}")
        columns = [terms[name] for name in names]
    else:
        terms = tuple(terms)
        if set(map(len, terms)) - {len(names)}:
            raise ValueError(f"each term must be a tuple ({', '.join(names)})")
        columns = list(zip(*terms)) or [()] * len(names)
        shapes = set(map(np.shape, columns[-1]))
        if not shapes <= ({(), (1, 1)} if k == 1 else {(k, k)}):
            raise ValueError(f"coefficients must be {k} x {k} matrices, got shapes {shapes}")
        columns[-1] = np.reshape(list(map(np.ravel, columns[-1])) if k == 1 else columns[-1],
                                 (-1, k, k))
    m = _column(columns[0], (n,), "frequencies")
    if m.dtype.kind == "O":  # Python integers beyond int64, or non-numbers
        try:
            m = m.astype(float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"frequency component is not a number: {exc}") from exc
    if m.dtype.kind not in "biuf" or not (np.isfinite(m) & (m == np.trunc(m))).all():
        raise ValueError("frequency components must be integers")
    if ((m > 2 ** 53) | (m < -(2 ** 53))).any():
        raise ValueError("frequency component beyond 2**53 in magnitude")
    m = m.astype(np.int64)
    c = _column(columns[-1], (k, k), "coefficients", np.complex128)
    if not np.isfinite(c).all():
        raise ValueError("coefficient has non-finite entries")
    key = m.astype(float)  # exact, as |m| <= 2**53
    if len(names) == 3:
        w = _column(columns[1], (n,), "xi-frequencies", float)
        if not np.isfinite(w).all():
            raise ValueError("xi-frequency has non-finite entries")
        with np.errstate(over="ignore"):  # w * 1e12 overflows past |w| ~ 1.8e296
            rounded = np.round(w, 12)  # rint(w * 1e12) / 1e12, not Python's round
        key = np.concatenate([key, np.where(np.isfinite(rounded), rounded, w)], axis=1)
    order = np.lexsort(key.T[::-1])  # stable: the first of equal keys stays first
    first = np.ones(len(key), dtype=bool)
    first[1:] = (key[order][1:] != key[order][:-1]).any(axis=1)
    head, rest = order[first], order[~first]
    merged = c[head]
    with np.errstate(over="ignore"):
        np.add.at(merged, np.cumsum(first)[~first] - 1, c[rest])
    bad = ~np.isfinite(merged).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"coefficients at frequency {tuple(m[head][bad][0].tolist())} "
                         "sum past the float range")
    keep = (merged != 0).any(axis=(1, 2))
    head = head[keep]
    out = _term_array(m[head], merged[keep], w[head] if len(names) == 3 else None)
    out.flags.writeable = False
    return out


def _wave_sum(c: np.ndarray, scale: complex, points, freqs) -> np.ndarray:
    """sum_t c[t] exp(scale * sum_j points[j] @ freqs[j][t]), added term by term.

    points are broadcastable arrays of shape (..., n) and freqs the matching
    (T, n) frequency columns.  The terms are added in order, one phase array
    of the point shape at a time.
    """
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in points))
    out = np.zeros(shape + c.shape[1:], dtype=np.complex128)
    for t in range(len(c)):
        arg = points[0] @ freqs[0][t]
        for x, f in zip(points[1:], freqs[1:]):
            arg = arg + x @ f[t]
        out += np.exp(scale * arg)[..., None, None] * c[t]
    return out


class _LatticeFold:
    """Samples of lattice series on a uniform mesh commensurate with the box, by one fold.

    On the axis y_j = s + j 2L/M, exp(2 pi i (m/2L) y_j) is exp(2 pi i (m/2L) s) times
    exp(2 pi i m j / M), which depends on m only through m mod M.  For the terms m of
    shape (T, n), fold(c, count) is sum_t c[t] exp(2 pi i m_t.j / M) at j in {0, ...,
    count - 1}^n, of shape (count,)*n + tail, for c of shape (T,) + tail that carries any
    per-term phase or derivative factor.  The terms are summed into the bins m mod M in
    term order (np.bincount, no BLAS), and the bins go to _periodic_samples.  The bins are
    found once.
    """

    def __init__(self, m: np.ndarray, M: int):
        self.n, self.M, self.bins = m.shape[1], M, 0
        for ax in range(self.n):  # row-major flat index of m mod M
            self.bins = self.bins * M + m[:, ax] % M

    def __call__(self, c: np.ndarray, count: int) -> np.ndarray:
        n, M, tail = self.n, self.M, c.shape[1:]
        size = math.prod(tail)
        idx = self.bins if size == 1 else (self.bins[:, None] * size + np.arange(size)).ravel()
        c = np.ascontiguousarray(c, dtype=np.complex128).reshape(-1)
        out = np.empty(M ** n * size, dtype=np.complex128)
        out.real = np.bincount(idx, c.real, len(out))
        out.imag = np.bincount(idx, c.imag, len(out))
        return _periodic_samples(out.reshape((M,) * n + tail), n, count)


def _lattice_fold(c: np.ndarray, n: int, M: int, count: int) -> np.ndarray:
    """_LatticeFold of the whole lattice {-N/2, ..., N/2 - 1}^n in row-major term order, for
    c of shape (N,)*n + tail, bit for bit, by slab adds: an axis splits into runs of
    consecutive m mod M, and the runs' products are added in row-major order, so each bin
    adds its terms in term order from zero, as np.bincount does."""
    N = c.shape[0]
    edges = sorted({0, N, *range(N // 2 % M, N, M)})  # the runs break where m mod M = 0
    runs = [(slice(a, b), slice((a - N // 2) % M, (a - N // 2) % M + b - a))
            for a, b in zip(edges, edges[1:])]
    bins = np.zeros((M,) * n + c.shape[n:], dtype=np.complex128)
    for run in _iproduct(runs, repeat=n):
        bins[tuple(b for _, b in run)] += c[tuple(t for t, _ in run)]
    return _periodic_samples(bins, n, count)


def _periodic_samples(bins: np.ndarray, n: int, count: int) -> np.ndarray:
    """The inverse FFT of bins (M,)*n + tail on its n leading axes, in place, repeated with
    period M out to count per axis, one slab per period, into a fresh array."""
    M = bins.shape[0]
    for ax in range(n):
        np.fft.ifft(bins, axis=ax, norm="forward", out=bins)
    if count == M:
        return bins
    out = np.empty((count,) * n + bins.shape[n:], dtype=np.complex128)
    for starts in _iproduct(range(0, count, M), repeat=n):
        span = [min(M, count - s) for s in starts]
        out[tuple(slice(s, s + w) for s, w in zip(starts, span))] = bins[
            tuple(slice(w) for w in span)]
    return out


def _rowdot(a, b) -> np.ndarray:
    """a[t] @ b[t] for each row of broadcastable (T, n) arrays, by the 1-D matmul."""
    a, b = (np.ascontiguousarray(v) for v in np.broadcast_arrays(a, b))
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class PlaneWaveSymbol:
    """Finite sum of matrix-weighted plane waves c_m exp(2 pi i (m/2L).x).

    terms is a read-only structured array with fields m (int64, shape n)
    and c (complex128, shape k x k), sorted by m; the constructor also
    takes (m, c) tuples.  Repeated frequencies merge, zero coefficients are
    pruned, and non-integral frequencies and fiber sizes k outside
    1..MAX_DIM are rejected.
    """

    n: int
    L: float
    k: int
    terms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self, ("m", "c")))

    def frequency(self, m) -> np.ndarray:
        """Cycle frequencies p = m/(2L) of an array of frequency vectors."""
        return np.asarray(m, dtype=float) / (2.0 * self.L)

    def evaluate(self, x) -> np.ndarray:
        """Sample at points of shape (..., n); returns (..., k, k)."""
        x = np.asarray(x, dtype=float)
        if self.n == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x.reshape(x.shape + (1,))
        return _wave_sum(self.terms["c"], 2j * np.pi, (x,),
                         (self.frequency(self.terms["m"]),))

    def to_grid(self, N: int) -> "GridSymbol":
        return GridSymbol(self.n, N, self.L, self._grid_values(N))

    def _grid_values(self, N: int) -> np.ndarray:
        """Samples on the grid axis_points(N, L)^n, N even, by one fold (_LatticeFold).

        The grid starts at -L, whose phase exp(-pi i m) per axis is the exact
        sign (-1)^(sum of m).
        """
        m = self.terms["m"]
        sign = 1.0 - 2.0 * (m.sum(axis=1) % 2)
        return _LatticeFold(m, N)(sign[:, None, None] * self.terms["c"], N)

    @property
    def max_abs_m(self) -> int:
        return int(np.abs(self.terms["m"]).max(initial=0))


# ---------------------------------------------------------------------------
# Grid-sampled data


@dataclass(frozen=True)
class _GridData:
    """Grid-sampled k x k data on the box [-L, L)^n, n in {1, 2}.

    N must be a power of two and k in 1..MAX_DIM; values of shape (N,)*n are
    scalar data and become (N,)*n + (1, 1); non-finite values are rejected.
    """

    n: int
    N: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        n, N = self.n, self.N
        _check_box(n, self.L)
        if not _is_pow2(N):
            raise ValueError(f"points per axis must be a power of two, got {N}")
        with np.errstate(over="ignore"):  # the cell weight, dx^n
            if not np.isfinite(np.float64(self.dx) ** n):
                raise ValueError(f"cell weight (2L/N)^n overflows for L = {self.L}, N = {N}, n = {n}")
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape == (N,) * n:
            arr = arr.reshape((N,) * n + (1, 1))
        if (
            arr.ndim != n + 2
            or arr.shape[: n] != (N,) * n
            or arr.shape[-1] != arr.shape[-2]
        ):
            raise ValueError(f"values shape {arr.shape} does not match grid")
        if not 1 <= arr.shape[-1] <= MAX_DIM:
            raise ValueError(f"fiber size must be in 1..{MAX_DIM}, got {arr.shape[-1]}")
        if not np.isfinite(arr).all():
            raise ValueError("grid values have non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[-1]

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def weight(self) -> float:
        """Quadrature weight dx^n of one grid cell."""
        return self.dx ** self.n

    @property
    def axis(self) -> np.ndarray:
        return axis_points(self.N, self.L)

    def geometry(self) -> tuple:
        return (self.n, self.N, self.L, self.k)

    def with_values(self, values):
        """The same grid with other values, as the same class."""
        return type(self)(self.n, self.N, self.L, values)


def _sample_norms(values: np.ndarray) -> np.ndarray:
    """Per-sample matrix 2-norms of (..., k, k) data."""
    if values.shape[-1] == 1:
        return np.abs(values[..., 0, 0])
    return np.linalg.norm(values, ord=2, axis=(-2, -1))


def _relative_gap(a, ref) -> float:
    """Sup distance max |a - ref| relative to max |ref|."""
    return float(np.abs(a - ref).max()) / max(float(np.abs(ref).max()), 1e-300)


class GridSymbol(_GridData):
    """Matrix-valued samples of a symbol on the box grid [-L, L)^n."""


class ModuleVector(_GridData):
    """Grid-sampled element of the discretized module over the box."""


# ---------------------------------------------------------------------------
# Trigonometric series on the grid


def series_coefficients(data: _GridData) -> np.ndarray:
    """Coefficients f_hat[m] with f(x) = sum_m f_hat[m] exp(2 pi i (m/2L).x).

    The array is indexed by m + N/2 per axis, m in {-N/2, ..., N/2 - 1};
    exact for data sampled from series supported on that lattice.
    """
    axes = tuple(range(data.n))
    return centered_dft(data.values, axes) / float(data.N) ** data.n


def significant_terms(data: _GridData, coeffs=None) -> PlaneWaveSymbol:
    """The series of grid data as a plane-wave symbol, pruned.

    Terms whose max entry is below PRUNE_REL times the global max are dropped.
    coeffs, when given, are the data's series_coefficients.
    """
    coeffs = series_coefficients(data) if coeffs is None else coeffs
    mags = np.abs(coeffs).max(axis=(-2, -1))
    cutoff = PRUNE_REL * float(mags.max()) if mags.size else 0.0
    idx = np.argwhere(mags > cutoff)
    return PlaneWaveSymbol(data.n, data.L, data.k,
                           _term_array(idx - data.N // 2, coeffs[tuple(idx.T)]))


def eval_series(terms: np.ndarray, L: float, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_m c_m exp(2 pi i (m/2L).x) over a plane-wave term array at x (..., n)."""
    x = np.asarray(x, dtype=float)
    return _wave_sum(terms["c"], 2j * np.pi, (x,), (terms["m"] / (2.0 * L),))


# ---------------------------------------------------------------------------
# Phase-space symbols


@dataclass(frozen=True)
class PlaneWavePhaseSymbol:
    """Phase-space symbol sum_t c_t exp(i (omega.x + w.xi)).

    x-frequencies are commensurate with the box: omega = pi m / L with
    integer m; xi-frequencies w are arbitrary finite real angular vectors
    (the symbol of a twisted translation needs w = -J^T p off any
    lattice).  terms is a read-only structured array with fields m, w
    (float64, shape n) and c, sorted by (m, w rounded to 12 decimals) and
    merged, pruned and checked as in PlaneWaveSymbol; the constructor also
    takes (m, w, c) tuples.
    """

    n: int
    L: float
    k: int
    terms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self, ("m", "w", "c")))

    def omega(self, m) -> np.ndarray:
        """Angular x-frequencies pi*m/L of an array of frequency vectors."""
        return np.asarray(m, dtype=float) * (np.pi / self.L)

    def scale_terms(self, factor) -> "PlaneWavePhaseSymbol":
        """The symbol with each coefficient c_t multiplied by factor[t]."""
        t = self.terms.copy()
        t["c"] = np.asarray(factor)[:, None, None] * t["c"]
        return PlaneWavePhaseSymbol(self.n, self.L, self.k, t)

    def evaluate(self, x, xi) -> np.ndarray:
        """Sample at broadcastable x, xi of shape (..., n); returns (..., k, k)."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self.n == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x.reshape(x.shape + (1,))
        if self.n == 1 and (xi.ndim == 0 or xi.shape[-1] != 1):
            xi = xi.reshape(xi.shape + (1,))
        t = self.terms
        return _wave_sum(t["c"], 1j, (x, xi), (self.omega(t["m"]), t["w"]))


# ---------------------------------------------------------------------------
# Derivatives


def _check_order(alpha, ndims: int) -> tuple:
    alpha = tuple(_integral(v, "derivative index entry") for v in alpha)
    if len(alpha) != ndims:
        raise ValueError(f"derivative index {alpha} has wrong length (need {ndims})")
    if any(v < 0 for v in alpha):
        raise ValueError(f"derivative index {alpha} has negative entries")
    if sum(alpha) > MAX_DERIV_ORDER:
        raise OrderTooHighError(f"derivative order {sum(alpha)} exceeds {MAX_DERIV_ORDER}")
    return alpha


def derivative(sym: PlaneWavePhaseSymbol, alpha) -> PlaneWavePhaseSymbol:
    """Partial derivative d^alpha of a phase-space symbol, exact termwise.

    alpha has length 2n (x axes then xi axes); each unit step multiplies a
    term by i omega_j or i w_j.
    """
    return sym.scale_terms(_derivative_factors(sym, alpha))


def _frequencies(sym: PlaneWavePhaseSymbol) -> np.ndarray:
    """The (T, 2n) table of the term frequencies: omega on the x axes, then w."""
    return np.concatenate([sym.omega(sym.terms["m"]), sym.terms["w"]], axis=1)


def _axis_product(sym: PlaneWavePhaseSymbol, table: np.ndarray) -> np.ndarray:
    """Per term, the product of a (T, 2n) factor table's x columns times that of its xi
    columns: the one association of every termwise law (d^alpha, delta^alpha, D, D^-1)."""
    return np.prod(table[:, :sym.n], axis=1) * np.prod(table[:, sym.n:], axis=1)


def _derivative_factors(sym: PlaneWavePhaseSymbol, alpha) -> np.ndarray:
    """Per term, the factor prod_j (i omega_j)^alpha_j (i w_j)^alpha_{n+j} of d^alpha."""
    alpha = np.array(_check_order(alpha, 2 * sym.n))
    return _axis_product(sym, (1j * _frequencies(sym)) ** alpha)


# ---------------------------------------------------------------------------
# Norms


def _dense_points(f: PlaneWaveSymbol) -> int:
    """Points per axis of the oversampled grid for sup evaluation of trig data: ValueError
    past the cap, where a period of the highest frequency gets fewer than 2 SUP_OVERSAMPLE."""
    base = SUP_OVERSAMPLE * 2 * max(1, f.max_abs_m)
    points = min(1 << (int(max(128, base) - 1).bit_length()), 1 << (SUP_MAX_POINTS_LOG2 // f.n))
    if points < base:
        raise ValueError(f"sup_norm of |m| = {f.max_abs_m} needs over {points} points per axis")
    return points


def sup_norm(f) -> float:
    """sup_x ||f(x)|| (dense trigonometric sampling for plane-wave data)."""
    if isinstance(f, PlaneWaveSymbol):
        return float(_sample_norms(f._grid_values(_dense_points(f))).max())
    if isinstance(f, GridSymbol):
        return float(_sample_norms(f.values).max())
    raise TypeError(f"cannot take sup norm of {type(f).__name__}")


def inner_product(f, g) -> MatrixElement:
    """Module inner product <f, g> = sum_i f_i^H g_i dx^n."""
    if not _same_geometry(f.geometry(), g.geometry()):
        raise GridMismatchError(
            f"module vectors have different geometry: {f.geometry()} vs {g.geometry()}"
        )
    prod = np.einsum("...ij,...il->...jl", np.conj(f.values), g.values)
    return MatrixElement(prod.sum(axis=tuple(range(f.n))) * f.weight)


def norm_L2(f) -> float:
    """Plain L^2 norm (integral of the squared pointwise C*-norm)."""
    norms = _sample_norms(f.values)
    return float(np.sqrt((norms ** 2).sum() * f.weight))


# ---------------------------------------------------------------------------
# File formats


def write_plane_wave_json(f: PlaneWaveSymbol, path):
    """Write the JSON plane-wave format {n, L, k, terms:[{m, coeff}]}."""
    c = f.terms["c"]
    terms = [{"m": m, "coeff": coeff} for m, coeff in zip(
        f.terms["m"].tolist(), np.stack((c.real, c.imag), axis=-1).tolist())]
    doc = {"n": f.n, "L": f.L, "k": f.k, "terms": terms}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")


def read_plane_wave_json(path) -> PlaneWaveSymbol:
    """Read the JSON plane-wave format; without "k" the first coefficient sets it."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at byte offset {exc.pos}") from exc
    try:
        n = _integral(doc["n"], "n")
        L = float(doc["L"])
        terms = []
        for t in doc["terms"]:
            coeff = np.asarray(
                [[complex(re, im) for re, im in row] for row in t["coeff"]]
            )
            terms.append((tuple(t["m"]), coeff))
        if "k" in doc:
            k = _integral(doc["k"], "k")
        else:
            k = terms[0][1].shape[0] if terms else 1
        return PlaneWaveSymbol(n, L, k, tuple(terms))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed plane-wave document: {exc}") from exc


RSYM_MAGIC = b"RSYM"
RSYM_HEADER = struct.Struct("<4sIBHId")


def write_rsym(f: GridSymbol, path):
    """Write the RSYM1 binary grid format (little-endian)."""
    header = RSYM_HEADER.pack(RSYM_MAGIC, 1, f.n, f.k, f.N, f.L)
    payload = np.ascontiguousarray(f.values).astype("<c16").tobytes()
    Path(path).write_bytes(header + payload)


def read_rsym(path) -> GridSymbol:
    """Read the RSYM1 binary grid format; ValueError names the byte offset."""
    raw = Path(path).read_bytes()
    if len(raw) < RSYM_HEADER.size:
        raise ValueError(
            f"{path}: truncated header at byte offset {len(raw)} "
            f"(need {RSYM_HEADER.size} bytes)"
        )
    magic, version, n, k, N, L = RSYM_HEADER.unpack_from(raw, 0)
    if magic != RSYM_MAGIC:
        raise ValueError(f"{path}: bad magic at byte offset 0 (got {magic!r})")
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version} at byte offset 4")
    if n not in (1, 2):
        raise ValueError(f"{path}: bad dimension {n} at byte offset 8")
    if not 1 <= k <= MAX_DIM:
        raise ValueError(f"{path}: bad fiber size {k} at byte offset 9")
    if not _is_pow2(N):
        raise ValueError(f"{path}: bad grid size {N} at byte offset 11")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"{path}: bad half-width {L} at byte offset 15")
    count = N ** n * k * k
    need = RSYM_HEADER.size + 16 * count
    if len(raw) != need:
        raise ValueError(
            f"{path}: payload size mismatch at byte offset {len(raw)} "
            f"(need {need} bytes total)"
        )
    data = np.frombuffer(raw, dtype="<c16", offset=RSYM_HEADER.size, count=count)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        offset = RSYM_HEADER.size + 16 * int(bad[0])
        raise ValueError(f"{path}: non-finite value at byte offset {offset}")
    values = data.astype(np.complex128).reshape((N,) * n + (k, k))
    return GridSymbol(n, N, L, values)


def write_symbol_file(f, path):
    """Write a symbol in its natural format (JSON plane-wave or RSYM1)."""
    if isinstance(f, PlaneWaveSymbol):
        write_plane_wave_json(f, path)
    elif isinstance(f, GridSymbol):
        write_rsym(f, path)
    else:
        raise TypeError(f"cannot serialize {type(f).__name__}")


def read_symbol_file(path):
    """Read a symbol file, sniffing RSYM1 magic vs JSON."""
    p = Path(path)
    with p.open("rb") as fh:
        head = fh.read(4)
    if head == RSYM_MAGIC:
        return read_rsym(p)
    return read_plane_wave_json(p)
