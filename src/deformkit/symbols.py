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
import struct
from dataclasses import dataclass
from itertools import product as _iproduct
from pathlib import Path

import numpy as np

from .coeff_algebra import MAX_DIM, MatrixElement
from .errors import (
    DecayViolationError,
    GridMismatchError,
    OrderTooHighError,
)

__all__ = [
    "MAX_DERIV_ORDER",
    "DeformationMatrix",
    "PlaneWaveSymbol",
    "GridSymbol",
    "ModuleVector",
    "PlaneWavePhaseSymbol",
    "GridPhaseSymbol",
    "axis_points",
    "dual_axis_points",
    "default_grid_size",
    "multi_indices",
    "centered_dft",
    "centered_idft",
    "series_coefficients",
    "series_synthesis",
    "significant_terms",
    "eval_series",
    "derivative",
    "symbol_star",
    "seminorm_B",
    "seminorm_S",
    "fourier",
    "inner_product",
    "norm_2",
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

# Boundary-to-interior ratio below which grid data counts as decaying.
ADMISSIBLE_RATIO = 1e-10

# Relative threshold for pruning trigonometric series coefficients.
PRUNE_REL = 1e-13

# Oversampling factor for sup norms of band-limited data.
SUP_OVERSAMPLE = 8


def default_grid_size(n: int) -> tuple[int, float]:
    """Default (N, L) per dimension: (256, 8.0) for n=1, (64, 6.0) for n=2."""
    if n == 1:
        return 256, 8.0
    if n == 2:
        return 64, 6.0
    raise ValueError(f"unsupported dimension {n}")


def axis_points(N: int, L: float) -> np.ndarray:
    """Grid points (i - N/2) * (2L/N) for i = 0..N-1."""
    return (np.arange(N) - N // 2) * (2.0 * L / N)


def dual_axis_points(N: int, L: float) -> np.ndarray:
    """Dual (angular frequency) grid (pi/L) * {-N/2, ..., N/2 - 1}."""
    return (np.arange(N) - N // 2) * (np.pi / L)


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


def _alternating(N: int) -> np.ndarray:
    return (-1.0) ** np.arange(N)


def centered_dft(values: np.ndarray, axes) -> np.ndarray:
    """Per-axis sums G_j = sum_i f_i exp(-2 pi i (i-N/2)(j-N/2)/N)."""
    out = np.asarray(values, dtype=np.complex128)
    for ax in axes:
        N = out.shape[ax]
        shape = [1] * out.ndim
        shape[ax] = N
        alt = _alternating(N).reshape(shape)
        sign = (-1.0) ** (N // 2) if N % 2 == 0 else np.exp(-0.5j * np.pi * N)
        out = np.fft.fft(out * alt, axis=ax) * alt * sign
    return out


def centered_idft(values: np.ndarray, axes) -> np.ndarray:
    """Per-axis sums H_i = sum_j G_j exp(+2 pi i (i-N/2)(j-N/2)/N)."""
    out = np.asarray(values, dtype=np.complex128)
    for ax in axes:
        N = out.shape[ax]
        shape = [1] * out.ndim
        shape[ax] = N
        alt = _alternating(N).reshape(shape)
        sign = (-1.0) ** (N // 2) if N % 2 == 0 else np.exp(0.5j * np.pi * N)
        out = np.fft.ifft(out * alt, axis=ax) * alt * (sign * N)
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


def _as_coeff(c, k: int | None = None) -> np.ndarray:
    arr = np.asarray(c, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"coefficient must be a square matrix, got shape {arr.shape}")
    if k is not None and arr.shape[0] != k:
        raise ValueError(f"coefficient size {arr.shape[0]} != {k}")
    if not np.isfinite(arr).all():
        raise ValueError("coefficient has non-finite entries")
    return arr


@dataclass(frozen=True)
class PlaneWaveSymbol:
    """Finite sum of matrix-weighted plane waves c_m exp(2 pi i (m/2L).x).

    Terms are stored sorted by the integer frequency vector m; zero
    coefficients are pruned on construction.  Non-integral frequencies
    and fiber sizes k outside 1..MAX_DIM are rejected.
    """

    n: int
    L: float
    k: int
    terms: tuple

    def __post_init__(self):
        _check_box(self.n, self.L)
        if not 1 <= self.k <= MAX_DIM:
            raise ValueError(f"fiber size must be in 1..{MAX_DIM}, got {self.k}")
        merged: dict[tuple[int, ...], np.ndarray] = {}
        for m, c in self.terms:
            m = tuple(_integral(v, "frequency component") for v in m)
            if len(m) != self.n:
                raise ValueError(f"frequency {m} has wrong length for n={self.n}")
            if any(abs(v) > 2 ** 53 for v in m):
                raise ValueError("frequency component beyond 2**53 in magnitude")
            c = _as_coeff(c, self.k)
            if m in merged:
                with np.errstate(over="ignore"):
                    c = merged[m] + c
                if not np.isfinite(c).all():
                    raise ValueError(f"coefficients at frequency {m} sum past the float range")
            merged[m] = c
        clean = []
        for m in sorted(merged):
            c = merged[m]
            if np.abs(c).max() == 0.0:
                continue
            c = c.copy()
            c.flags.writeable = False
            clean.append((m, c))
        object.__setattr__(self, "terms", tuple(clean))

    def frequency(self, m) -> np.ndarray:
        """Cycle frequency p = m/(2L) of a term."""
        return np.asarray(m, dtype=float) / (2.0 * self.L)

    def evaluate(self, x) -> np.ndarray:
        """Sample at points of shape (..., n); returns (..., k, k)."""
        x = np.asarray(x, dtype=float)
        if self.n == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x.reshape(x.shape + (1,))
        out = np.zeros(x.shape[:-1] + (self.k, self.k), dtype=np.complex128)
        for m, c in self.terms:
            p = self.frequency(m)
            phase = np.exp(2j * np.pi * (x @ p))
            out += phase[..., None, None] * c
        return out

    def to_grid(self, N: int | None = None) -> "GridSymbol":
        if N is None:
            N = default_grid_size(self.n)[0]
        pts = np.stack(
            np.meshgrid(*([axis_points(N, self.L)] * self.n), indexing="ij"), axis=-1
        )
        return GridSymbol(self.n, N, self.L, self.evaluate(pts))

    def star(self) -> "PlaneWaveSymbol":
        """Pointwise adjoint: terms map to conj-transpose coefficients at -m."""
        terms = [
            (tuple(-v for v in m), c.conj().T) for m, c in self.terms
        ]
        return PlaneWaveSymbol(self.n, self.L, self.k, tuple(terms))

    @property
    def max_abs_m(self) -> int:
        if not self.terms:
            return 0
        return max(max(abs(v) for v in m) for m, _ in self.terms)


# ---------------------------------------------------------------------------
# Grid-sampled data


class _GridData:
    """Shared geometry/validation for grid-sampled matrix-valued data."""

    n: int
    N: int
    L: float
    values: np.ndarray

    def _init_grid(self, n: int, N: int, L: float, values) -> np.ndarray:
        _check_box(n, L)
        if not _is_pow2(N):
            raise ValueError(f"points per axis must be a power of two, got {N}")
        arr = np.asarray(values, dtype=np.complex128)
        if arr.shape == (N,) * n:
            arr = arr.reshape((N,) * n + (1, 1))
        if (
            arr.ndim != n + 2
            or arr.shape[: n] != (N,) * n
            or arr.shape[-1] != arr.shape[-2]
        ):
            raise ValueError(f"values shape {arr.shape} does not match grid")
        if not np.isfinite(arr).all():
            raise ValueError("grid values have non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        return arr

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

    def points(self) -> np.ndarray:
        """All grid points, shape (N,)*n + (n,)."""
        return np.stack(np.meshgrid(*([self.axis] * self.n), indexing="ij"), axis=-1)

    def geometry(self) -> tuple:
        return (self.n, self.N, self.L, self.k)


def _sample_norms(values: np.ndarray) -> np.ndarray:
    """Per-sample matrix 2-norms of (..., k, k) data."""
    if values.shape[-1] == 1:
        return np.abs(values[..., 0, 0])
    return np.linalg.norm(values, ord=2, axis=(-2, -1))


@dataclass(frozen=True)
class GridSymbol(_GridData):
    """Matrix-valued samples on the box grid [-L, L)^n, n in {1, 2}.

    The constructor records the boundary-to-peak decay ratio; operations
    that need decay (weighted seminorms) enforce it via
    require_admissible.
    """

    n: int
    N: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        arr = self._init_grid(self.n, self.N, self.L, self.values)
        object.__setattr__(self, "values", arr)
        norms = _sample_norms(arr)
        peak = float(norms.max()) if norms.size else 0.0
        edge = 0.0
        for ax in range(self.n):
            idx_lo = [slice(None)] * self.n
            idx_lo[ax] = 0
            idx_hi = [slice(None)] * self.n
            idx_hi[ax] = self.N - 1
            edge = max(edge, float(norms[tuple(idx_lo)].max()))
            edge = max(edge, float(norms[tuple(idx_hi)].max()))
        object.__setattr__(self, "_boundary_ratio", edge / peak if peak > 0 else 0.0)

    @property
    def boundary_ratio(self) -> float:
        return self._boundary_ratio

    @property
    def is_admissible(self) -> bool:
        return self.boundary_ratio <= ADMISSIBLE_RATIO

    def require_admissible(self, op: str):
        if not self.is_admissible:
            raise DecayViolationError(
                f"{op} needs boundary decay <= {ADMISSIBLE_RATIO:.0e}; "
                f"got ratio {self.boundary_ratio:.2e}"
            )

    def with_values(self, values) -> "GridSymbol":
        return GridSymbol(self.n, self.N, self.L, values)

    def star(self) -> "GridSymbol":
        return self.with_values(np.conj(np.swapaxes(self.values, -1, -2)))


@dataclass(frozen=True)
class ModuleVector(_GridData):
    """Grid-sampled element of the discretized module over the box."""

    n: int
    N: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        arr = self._init_grid(self.n, self.N, self.L, self.values)
        object.__setattr__(self, "values", arr)

    def with_values(self, values) -> "ModuleVector":
        return ModuleVector(self.n, self.N, self.L, values)


# ---------------------------------------------------------------------------
# Trigonometric series on the grid


def series_coefficients(data: _GridData) -> np.ndarray:
    """Coefficients f_hat[m] with f(x) = sum_m f_hat[m] exp(2 pi i (m/2L).x).

    The array is indexed by m + N/2 per axis, m in {-N/2, ..., N/2 - 1};
    exact for data sampled from series supported on that lattice.
    """
    axes = tuple(range(data.n))
    return centered_dft(data.values, axes) / float(data.N) ** data.n


def series_synthesis(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of series_coefficients (values on the grid)."""
    return centered_idft(coeffs, tuple(range(n)))


def significant_terms(data: _GridData) -> list:
    """Pruned series terms [(m, coeff), ...] sorted by m.

    Terms whose max entry is below PRUNE_REL times the global max are dropped.
    """
    coeffs = series_coefficients(data)
    mags = np.abs(coeffs).max(axis=(-2, -1))
    cutoff = PRUNE_REL * float(mags.max()) if mags.size else 0.0
    terms = []
    half = data.N // 2
    for idx in np.argwhere(mags > cutoff):
        m = tuple(int(i) - half for i in idx)
        terms.append((m, coeffs[tuple(idx)]))
    return sorted(terms, key=lambda t: t[0])


def eval_series(terms, L: float, x: np.ndarray, k: int) -> np.ndarray:
    """Evaluate sum_m c_m exp(2 pi i (m/2L).x) at points x of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (k, k), dtype=np.complex128)
    for m, c in terms:
        p = np.asarray(m, dtype=float) / (2.0 * L)
        phase = np.exp(2j * np.pi * (x @ p))
        out += phase[..., None, None] * np.asarray(c)
    return out


# ---------------------------------------------------------------------------
# Phase-space symbols


@dataclass(frozen=True)
class PlaneWavePhaseSymbol:
    """Phase-space symbol sum_t c_t exp(i (omega.x + w.xi)).

    x-frequencies are commensurate with the box: omega = pi m / L with
    integer m; xi-frequencies w are arbitrary real angular vectors (the
    symbol of a twisted translation needs w = -J^T p off any lattice).
    """

    n: int
    L: float
    k: int
    terms: tuple  # ((m ints), (w floats), coeff) sorted

    def __post_init__(self):
        merged: dict[tuple, np.ndarray] = {}
        for m, w, c in self.terms:
            m = tuple(int(v) for v in m)
            w = tuple(float(v) for v in w)
            if len(m) != self.n or len(w) != self.n:
                raise ValueError("frequency length mismatch")
            c = _as_coeff(c, self.k)
            key = (m, tuple(round(v, 12) for v in w))
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + c)
            else:
                merged[key] = (w, c)
        clean = []
        for key in sorted(merged):
            w, c = merged[key]
            if np.abs(c).max() == 0.0:
                continue
            c = c.copy()
            c.flags.writeable = False
            clean.append((key[0], w, c))
        object.__setattr__(self, "terms", tuple(clean))

    @classmethod
    def constant(cls, c, n: int, L: float) -> "PlaneWavePhaseSymbol":
        c = _as_coeff(c)
        return cls(n, L, c.shape[0], (((0,) * n, (0.0,) * n, c),))

    def omega(self, m) -> np.ndarray:
        """Angular x-frequency pi*m/L of a term."""
        return np.asarray(m, dtype=float) * (np.pi / self.L)

    def evaluate(self, x, xi) -> np.ndarray:
        """Sample at broadcastable x, xi of shape (..., n); returns (..., k, k)."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self.n == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x.reshape(x.shape + (1,))
        if self.n == 1 and (xi.ndim == 0 or xi.shape[-1] != 1):
            xi = xi.reshape(xi.shape + (1,))
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
        out = np.zeros(shape + (self.k, self.k), dtype=np.complex128)
        for m, w, c in self.terms:
            phase = np.exp(1j * (x @ self.omega(m) + xi @ np.asarray(w)))
            out += phase[..., None, None] * np.asarray(c)
        return out


@dataclass(frozen=True)
class GridPhaseSymbol:
    """Dense phase-space samples a(x_i, xi_j) on a 2n-axis product grid.

    Axis order is the n position axes then the n frequency axes; each
    axis carries its own point count and half-width (the frequency box
    generally differs from the position box).  Axis points follow the
    same centered convention as GridSymbol.
    """

    n: int
    shape: tuple
    half_widths: tuple
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(int(v) for v in self.shape)
        widths = tuple(float(v) for v in self.half_widths)
        if len(shape) != 2 * self.n or len(widths) != 2 * self.n:
            raise ValueError("need one count and one half-width per phase axis")
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape == shape:
            arr = arr.reshape(shape + (1, 1))
        if arr.shape[: 2 * self.n] != shape or arr.shape[-1] != arr.shape[-2]:
            raise ValueError(f"values shape {arr.shape} does not match {shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "half_widths", widths)
        object.__setattr__(self, "values", arr)


# ---------------------------------------------------------------------------
# Derivatives


def _check_order(alpha, ndims: int) -> tuple:
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != ndims:
        raise ValueError(f"derivative index {alpha} has wrong length (need {ndims})")
    if any(v < 0 for v in alpha):
        raise ValueError(f"derivative index {alpha} has negative entries")
    if sum(alpha) > MAX_DERIV_ORDER:
        raise OrderTooHighError(
            f"derivative order {sum(alpha)} exceeds {MAX_DERIV_ORDER}"
        )
    return alpha


def derivative(f, alpha):
    """Partial derivative d^alpha f.

    Plane-wave data is differentiated exactly termwise; grid data via the
    trigonometric series (exact for band-limited samples, spectrally
    accurate for decaying smooth data).  Phase-space symbols take alpha
    of length 2n (x axes then xi axes).
    """
    if isinstance(f, PlaneWaveSymbol):
        alpha = _check_order(alpha, f.n)
        terms = []
        for m, c in f.terms:
            factor = np.prod(
                [(2j * np.pi * f.frequency(m)[j]) ** alpha[j] for j in range(f.n)]
            )
            terms.append((m, factor * c))
        return PlaneWaveSymbol(f.n, f.L, f.k, tuple(terms))
    if isinstance(f, PlaneWavePhaseSymbol):
        alpha = _check_order(alpha, 2 * f.n)
        terms = []
        for m, w, c in f.terms:
            om = f.omega(m)
            factor = np.prod(
                [(1j * om[j]) ** alpha[j] for j in range(f.n)]
            ) * np.prod(
                [(1j * w[j]) ** alpha[f.n + j] for j in range(f.n)]
            )
            terms.append((m, w, factor * c))
        return PlaneWavePhaseSymbol(f.n, f.L, f.k, tuple(terms))
    if isinstance(f, GridSymbol):
        alpha = _check_order(alpha, f.n)
        coeffs = series_coefficients(f)
        half = f.N // 2
        m_axis = np.arange(f.N) - half
        for ax, order in enumerate(alpha):
            if order == 0:
                continue
            factor = (2j * np.pi * m_axis / (2.0 * f.L)) ** order
            shape = [1] * coeffs.ndim
            shape[ax] = f.N
            coeffs = coeffs * factor.reshape(shape)
        return f.with_values(series_synthesis(coeffs, f.n))
    if isinstance(f, GridPhaseSymbol):
        alpha = _check_order(alpha, 2 * f.n)
        axes = tuple(range(2 * f.n))
        coeffs = centered_dft(f.values, axes) / float(np.prod(f.shape))
        for ax, order in enumerate(alpha):
            if order == 0:
                continue
            m_axis = np.arange(f.shape[ax]) - f.shape[ax] // 2
            factor = (1j * np.pi * m_axis / f.half_widths[ax]) ** order
            shape = [1] * coeffs.ndim
            shape[ax] = f.shape[ax]
            coeffs = coeffs * factor.reshape(shape)
        return GridPhaseSymbol(f.n, f.shape, f.half_widths, centered_idft(coeffs, axes))
    raise TypeError(f"cannot differentiate {type(f).__name__}")


def symbol_star(f):
    """Pointwise adjoint f*(x) = f(x)^H for plane-wave or grid symbols."""
    if isinstance(f, (PlaneWaveSymbol, GridSymbol)):
        return f.star()
    raise TypeError(f"cannot star {type(f).__name__}")


# ---------------------------------------------------------------------------
# Seminorms and norms


def _dense_axis(f: PlaneWaveSymbol) -> np.ndarray:
    """Oversampled commensurate axis for sup evaluation of trig data."""
    base = max(128, SUP_OVERSAMPLE * 2 * max(1, f.max_abs_m))
    N = 1 << (int(base - 1).bit_length())
    if f.n == 2:
        N = min(N, 512)
    return axis_points(N, f.L)


def sup_norm(f) -> float:
    """sup_x ||f(x)|| (dense trigonometric sampling for plane-wave data)."""
    if isinstance(f, PlaneWaveSymbol):
        ax = _dense_axis(f)
        pts = np.stack(np.meshgrid(*([ax] * f.n), indexing="ij"), axis=-1)
        return float(_sample_norms(f.evaluate(pts)).max())
    if isinstance(f, GridSymbol):
        return float(_sample_norms(f.values).max())
    raise TypeError(f"cannot take sup norm of {type(f).__name__}")


def seminorm_B(f, m: int) -> float:
    """max over |alpha| <= m of sup_x ||d^alpha f(x)||."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m > MAX_DERIV_ORDER:
        raise OrderTooHighError(f"seminorm order {m} exceeds {MAX_DERIV_ORDER}")
    best = 0.0
    for alpha in multi_indices(f.n, m):
        best = max(best, sup_norm(derivative(f, alpha)))
    return best


def seminorm_S(f: GridSymbol, m: int) -> float:
    """max over |alpha| <= m of sup_x (1+|x|^2)^{m/2} ||d^alpha f(x)||.

    Needs boundary decay; raises DecayViolationError otherwise.
    """
    if not isinstance(f, GridSymbol):
        raise TypeError("weighted seminorm needs grid data")
    f.require_admissible("seminorm_S")
    pts = f.points()
    weight = (1.0 + np.sum(pts ** 2, axis=-1)) ** (m / 2.0)
    best = 0.0
    for alpha in multi_indices(f.n, m):
        norms = _sample_norms(derivative(f, alpha).values)
        best = max(best, float((weight * norms).max()))
    return best


def fourier(f: GridSymbol, sign: int = 1) -> GridSymbol:
    """Unitary Fourier transform between the grid and its dual grid.

    sign=+1: F(f)(xi_j) = (2 pi)^{-n/2} dx^n sum_i exp(-i x_i.xi_j) f_i,
    returned on the dual grid (half-width pi N/(2L)).  sign=-1 is the
    inverse kernel; fourier(fourier(f, 1), -1) == f exactly.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    axes = tuple(range(f.n))
    scale = (2.0 * np.pi) ** (-f.n / 2.0) * f.weight
    if sign == 1:
        out = scale * centered_dft(f.values, axes)
    else:
        out = scale * centered_idft(f.values, axes)
    L_dual = np.pi * f.N / (2.0 * f.L)
    return GridSymbol(f.n, f.N, L_dual, out)


def inner_product(f, g) -> MatrixElement:
    """Module inner product <f, g> = sum_i f_i^H g_i dx^n."""
    if (f.n, f.N, f.k) != (g.n, g.N, g.k) or abs(f.L - g.L) > 1e-12 * max(f.L, g.L):
        raise GridMismatchError(
            f"module vectors have different geometry: {f.geometry()} vs {g.geometry()}"
        )
    prod = np.einsum("...ij,...il->...jl", np.conj(f.values), g.values)
    return MatrixElement(prod.sum(axis=tuple(range(f.n))) * f.weight)


def norm_2(f) -> float:
    """Module norm ||<f, f>||^{1/2} (C*-norm of the inner product)."""
    gram = inner_product(f, f).entries
    return float(np.sqrt(max(np.linalg.norm(gram, 2), 0.0)))


def norm_L2(f) -> float:
    """Plain L^2 norm (integral of the squared pointwise C*-norm)."""
    norms = _sample_norms(f.values)
    return float(np.sqrt((norms ** 2).sum() * f.weight))


# ---------------------------------------------------------------------------
# File formats


def write_plane_wave_json(f: PlaneWaveSymbol, path):
    """Write the JSON plane-wave format {n, L, k, terms:[{m, coeff}]}."""
    terms = []
    for m, c in f.terms:
        coeff = [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(c)]
        terms.append({"m": list(m), "coeff": coeff})
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
    if not (1 <= k <= 8):
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
