"""Symbols, grids, series, norms, and file formats."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from deformkit.coeff_algebra import MAX_DIM
from deformkit.errors import OrderTooHighError
from deformkit.pseudodiff import adjoint, fourier_operator
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    axis_points,
    centered_dft,
    centered_idft,
    derivative,
    eval_series,
    inner_product,
    multi_indices,
    norm_L2,
    read_symbol_file,
    series_coefficients,
    significant_terms,
    sup_norm,
    _LatticeFold,
    _lattice_fold,
    _wave_sum,
    write_rsym,
    write_symbol_file,
)
from deformkit.suites import gaussian_values, random_plane_wave
from oracles import dual_axis_points, grid_points, symbol_star

RNG = np.random.default_rng(27182)


# ---------------------------------------------------------------------------
# Deformation matrices


def test_deformation_matrix_rejects_symmetric_part():
    with pytest.raises(ValueError):
        DeformationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: DeformationMatrix([[0.0, np.nan], [np.nan, 0.0]]), id="nan-entry"),
    pytest.param(lambda: DeformationMatrix([[0.0, np.inf], [-np.inf, 0.0]]), id="inf-entry"),
    pytest.param(lambda: DeformationMatrix.symplectic(np.nan), id="symplectic-nan"),
    pytest.param(lambda: DeformationMatrix.symplectic(np.inf), id="symplectic-inf"),
])
def test_deformation_matrix_rejects_non_finite(build):
    # NaN passes a tolerance comparison, so a finiteness check must come first
    with pytest.raises(ValueError, match="finite"):
        build()


def test_deformation_matrix_zero_and_symplectic():
    z = DeformationMatrix.zero(2)
    assert np.all(z.entries == 0.0)
    s = DeformationMatrix.symplectic(0.5, 2)
    assert_allclose(s.entries, [[0.0, 0.5], [-0.5, 0.0]])
    assert s.n == 2


# ---------------------------------------------------------------------------
# Plane-wave symbols


def test_plane_wave_merges_duplicate_frequencies():
    f = PlaneWaveSymbol(1, 4.0, 1, (((1,), 1.0), ((1,), 2.0)))
    assert len(f.terms) == 1
    assert_allclose(f.terms[0][1], [[3.0]])


@pytest.mark.parametrize("build", [
    pytest.param(lambda c: PlaneWaveSymbol(1, 4.0, 1, (((1,), c), ((1,), c))),
                 id="plane-wave"),
    pytest.param(lambda c: PlaneWavePhaseSymbol(
        1, 4.0, 1, (((1,), (0.5,), c), ((1,), (0.5,), c))), id="phase-symbol"),
])
def test_plane_wave_rejects_overflowing_merge(build):
    big = np.finfo(float).max
    with pytest.raises(ValueError, match="float range"):
        build(big)


def test_plane_wave_prunes_zero_terms():
    f = PlaneWaveSymbol(1, 4.0, 1, (((1,), 1.0), ((2,), 0.0)))
    assert f.terms["m"].tolist() == [[1]]


def test_plane_wave_evaluate_periodicity():
    f = random_plane_wave(RNG, 1, 4.0, 2, 3, 4)
    x = np.array([0.3])
    assert_allclose(f.evaluate(x), f.evaluate(x + 8.0), atol=1e-12)


def test_plane_wave_to_grid_matches_evaluate():
    f = random_plane_wave(RNG, 2, 6.0, 1, 2, 3)
    g = f.to_grid(16)
    assert_allclose(g.values, f.evaluate(grid_points(g)), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N, M, count", [
    pytest.param(16, 8, 8, id="M<N"),  # |m| up to N/2 > M/2: the bins alias
    pytest.param(16, 16, 16, id="M=N"),
    pytest.param(16, 32, 32, id="M>N"),
    pytest.param(16, 8, 20, id="tiled"),  # count > M: the samples repeat
    pytest.param(16, 12, 5, id="M-not-2^j"),
])
def test_lattice_fold_matches_wave_sum(n, k, N, M, count):
    # a dense lattice series {-N/2, ..., N/2 - 1}^n sampled at y_j = s + j 2L/M,
    # against the term-by-term sum at those points
    rng = np.random.default_rng(100 * n + 10 * k + M)
    L, s = 6.0, -1.3
    m = np.indices((N,) * n).reshape(n, -1).T - N // 2
    c = rng.normal(size=(len(m), k, k)) + 1j * rng.normal(size=(len(m), k, k))
    y = s + np.arange(count) * (2.0 * L / M)
    pts = np.stack(np.meshgrid(*[y] * n, indexing="ij"), axis=-1)
    want = _wave_sum(c, 2j * np.pi, (pts,), (m / (2.0 * L),))
    phase = np.exp(2j * np.pi * s * m.sum(axis=1) / (2.0 * L))
    got = _LatticeFold(m, M)(phase[:, None, None] * c, count)
    assert got.shape == (count,) * n + (k, k)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_lattice_fold_sums_each_bin_in_term_order():
    # three terms in one bin: (a + b) + c, the order of np.add.at, whatever the values
    a, b, c = 1e16, 1.0, -1e16
    m = np.array([[0], [4], [8], [1]])
    coeffs = np.array([a, b, c, 2.0]).reshape(4, 1, 1) + 0j
    bins = np.zeros((4, 1, 1), complex)
    np.add.at(bins, m[:, 0] % 4, coeffs)
    got = _LatticeFold(m, 4)(coeffs, 4)
    assert np.array_equal(got, np.fft.ifft(bins, axis=0, norm="forward"))
    assert got[0, 0, 0] == (a + b) + c + 2.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N, M", [
    pytest.param(256, 108, id="N>M-L5"),  # the oracle's M at L = 5 and 5.3: M does not
    pytest.param(256, 120, id="N>M-L5.3"),  # divide the Q = 256 samples, so the last
    pytest.param(512, 128, id="N>M-L6"),  # period is cut short
    pytest.param(64, 108, id="N<M"),  # one run wraps inside the bins
    pytest.param(128, 128, id="N=M"),
])
@pytest.mark.parametrize("zeros", ["some", "all"])
def test_lattice_fold_is_the_table_fold_bitwise(n, k, N, M, zeros):
    # the slab adds of _lattice_fold against np.bincount over the explicit (T, n) table of
    # the lattice in row-major order, bins, transform and tiling to Q = 256 alike.  -0.0
    # terms: a bin of them alone sums to 0.0, as bincount's does from zero, and the
    # transform of all-zero bins keeps that sign
    rng = np.random.default_rng(1000 * n + 100 * k + M)
    c = rng.normal(size=(N,) * n + (k, k)) + 1j * rng.normal(size=(N,) * n + (k, k))
    if zeros == "all":
        c[...] = -0.0 - 0.0j
    else:
        c[::3] = -0.0 - 0.0j  # every alias of some bins on axis 0
        c.real[1::5] = -0.0
    m = np.indices((N,) * n).reshape(n, -1).T - N // 2
    want = _LatticeFold(m, M)(c.reshape((-1, k, k)), 256)
    got = _lattice_fold(c, n, M, 256)
    assert got.shape == (256,) * n + (k, k)
    assert got.tobytes() == want.tobytes()


def test_plane_wave_to_grid_far_frequencies_alias_exactly():
    # m and m + N fall into one bin; their sum is sampled, with the sign of the
    # first point -L taken exactly for every m
    f = PlaneWaveSymbol(1, 4.0, 1, (((3,), 0.5), ((3 + 16,), 0.25j), ((-5 - 32,), -1.0)))
    assert_allclose(f.to_grid(16).values, f.evaluate(axis_points(16, 4.0)), atol=1e-12)


def test_plane_wave_star_squares_to_identity():
    f = random_plane_wave(RNG, 2, 6.0, 2, 2, 4)
    again = symbol_star(symbol_star(f))
    assert np.array_equal(again.terms["m"], f.terms["m"])
    for (m, c), (m2, c2) in zip(f.terms, again.terms):
        assert_allclose(c, c2, atol=1e-15)


def test_symbol_star_is_pointwise_adjoint():
    f = random_plane_wave(RNG, 1, 4.0, 2, 2, 3)
    x = np.array([0.7])
    assert_allclose(
        symbol_star(f).evaluate(x),
        np.conj(np.swapaxes(f.evaluate(x), -1, -2)),
        atol=1e-12,
    )
    grid = f.to_grid(16)
    star = symbol_star(grid)
    assert isinstance(star, GridSymbol)
    assert np.array_equal(star.values, np.conj(np.swapaxes(grid.values, -1, -2)))
    with pytest.raises(TypeError):
        symbol_star(PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0),)))


# ---------------------------------------------------------------------------
# Grids and series


def test_grid_symbol_scalar_values_promote_to_matrix():
    vals = np.ones((8,) * 2)
    g = GridSymbol(2, 8, 4.0, vals)
    assert g.values.shape == (8, 8, 1, 1)
    assert g.k == 1


def test_grid_symbol_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        GridSymbol(1, 12, 4.0, np.ones(12))


@pytest.mark.parametrize("k", [0, MAX_DIM + 1])
@pytest.mark.parametrize("cls", [GridSymbol, ModuleVector])
def test_grid_data_rejects_a_bad_fiber_size(cls, k):
    # as PlaneWaveSymbol and read_rsym do: k = 0 built an empty grid, k = 9 one past MAX_DIM
    with pytest.raises(ValueError, match=rf"fiber size must be in 1\.\.{MAX_DIM}, got {k}"):
        cls(1, 4, 1.0, np.zeros((4, k, k)))


@pytest.mark.parametrize("n, L", [(2, 1e300), (1, 2.0 ** 1023)])
@pytest.mark.parametrize("cls", [GridSymbol, ModuleVector])
def test_grid_data_rejects_a_box_past_the_cell_weight(cls, n, L):
    # (2L/N)^n overflows at L = 1e300, n = 2, and 2L itself at L = 2^1023; a box of
    # L = 1e300 and n = 1 has the cell weight 5e299
    with pytest.raises(ValueError, match="cell weight"):
        cls(n, 4, L, np.zeros((4,) * n + (1, 1)))
    assert cls(1, 4, 1e300, np.zeros((4, 1, 1))).weight == 5e299


def test_axis_points_centered():
    ax = axis_points(8, 4.0)
    assert_allclose(ax, np.arange(-4.0, 4.0, 1.0))


def test_dual_axis_points_scale():
    # Dual frequencies are 2 pi m / (2L), m in {-N/2, ..., N/2 - 1}.
    xi = dual_axis_points(8, 4.0)
    assert_allclose(xi, np.pi * np.arange(-4, 4) / 4.0)


def test_series_roundtrip():
    f = random_plane_wave(RNG, 2, 6.0, 2, 3, 5)
    g = f.to_grid(16)
    coeffs = series_coefficients(g)
    back = centered_idft(coeffs, (0, 1))
    assert_allclose(back, g.values, atol=1e-12)


def test_series_coefficients_isolate_plane_wave():
    f = PlaneWaveSymbol(1, 4.0, 1, (((3,), 2.0 + 1.0j),))
    coeffs = series_coefficients(f.to_grid(16))
    assert_allclose(coeffs[8 + 3], [[2.0 + 1.0j]], atol=1e-12)
    mags = np.abs(coeffs)
    mags[8 + 3] = 0.0
    assert mags.max() <= 1e-12


def test_significant_terms_prunes_noise():
    f = PlaneWaveSymbol(1, 4.0, 1, (((1,), 1.0), ((-2,), 0.5j)))
    terms = significant_terms(f.to_grid(32)).terms
    assert terms["m"].tolist() == [[-2], [1]]


def test_eval_series_matches_evaluate():
    f = random_plane_wave(RNG, 1, 4.0, 1, 3, 4)
    x = np.array([[0.3], [-1.7]])
    assert_allclose(eval_series(f.terms, 4.0, x), f.evaluate(x), atol=1e-12)


def test_centered_transforms_invert():
    vals = RNG.normal(size=(16, 16)) + 1j * RNG.normal(size=(16, 16))
    fw = centered_dft(vals, (0, 1))
    back = centered_idft(fw, (0, 1)) / 16 ** 2
    assert_allclose(back, vals, atol=1e-12)


def test_multi_indices_counts():
    # Length-n multi-indices of order <= m number C(n + m, n).
    assert len(multi_indices(2, 2)) == 6
    assert len(multi_indices(4, 2)) == 15
    assert len(multi_indices(2, 3, exact=True)) == 4
    assert all(sum(a) == 3 for a in multi_indices(2, 3, exact=True))


# ---------------------------------------------------------------------------
# Norms and inner products


def test_sup_norm_of_single_wave_is_coefficient_norm():
    c = np.array([[1.0, 2.0], [0.0, 1.0]])
    f = PlaneWaveSymbol(1, 4.0, 2, (((1,), c),))
    assert_allclose(sup_norm(f), np.linalg.norm(c, 2), rtol=1e-9)


def test_sup_norm_refuses_frequencies_past_its_sampling_cap():
    # capped at 512 points per axis for n = 2, the dense grid of |m| = 300 takes about 1.7
    # points per period: this wave, 2 in sup, sampled to 0.0 there
    f = PlaneWaveSymbol(2, 6.0, 1, (((300, 0), 1.0), ((-212, 0), -1.0)))
    with pytest.raises(ValueError, match="300"):
        sup_norm(f)
    # |m| = 32 still has 2 SUP_OVERSAMPLE = 16 points per period on the 512-point axis
    g = PlaneWaveSymbol(2, 6.0, 1, (((32, 0), 1.0), ((0, -32), 1.0)))
    assert sup_norm(g) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        sup_norm(PlaneWaveSymbol(2, 6.0, 1, (((0, -33), 1.0),)))
    assert sup_norm(PlaneWaveSymbol(1, 6.0, 1, (((1 << 14,), 1.0),))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sup_norm(PlaneWaveSymbol(1, 6.0, 1, ((((1 << 14) + 1,), 1.0),)))


def test_sup_norm_rejects_unknown_type():
    with pytest.raises(TypeError):
        sup_norm(3.0)


def test_inner_product_positive():
    f = ModuleVector(1, 32, 4.0, gaussian_values(1, 32, 4.0, 1.0))
    gram = inner_product(f, f).entries
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-14


def test_norm_l2_of_gaussian():
    # ||exp(-x^2)||_2^2 = sqrt(pi / 2) on a box that captures the tails.
    g = ModuleVector(1, 256, 8.0, gaussian_values(1, 256, 8.0, 1.0))
    assert_allclose(norm_L2(g) ** 2, np.sqrt(np.pi / 2.0), rtol=1e-6)


def test_fourier_unitary_on_grid():
    g = ModuleVector(1, 64, 4.0, gaussian_values(1, 64, 4.0, 1.0))
    F = fourier_operator(1, 64, 4.0)
    assert_allclose(norm_L2(F(g)), norm_L2(g), rtol=1e-12)
    back = adjoint(F)(F(g))
    assert np.abs(back.values - g.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# Phase-space symbols


def test_phase_symbol_merges_terms():
    f = PlaneWavePhaseSymbol(
        1, 4.0, 1, (((1,), (0.5,), 1.0), ((1,), (0.5,), 1.0 + 1.0j))
    )
    assert len(f.terms) == 1
    assert_allclose(f.terms[0][2], [[2.0 + 1.0j]])


def test_phase_symbol_evaluate_separates_frequencies():
    f = PlaneWavePhaseSymbol(1, 4.0, 1, (((2,), (0.7,), 1.0),))
    x, xi = 0.3, -1.1
    omega = np.pi * 2 / 4.0
    expected = np.exp(1j * (omega * x + 0.7 * xi))
    got = f.evaluate(np.array([x]), np.array([xi]))
    assert_allclose(got.ravel()[0], expected, atol=1e-12)


def test_phase_symbol_derivative_multiplies_frequencies():
    f = PlaneWavePhaseSymbol(1, 4.0, 1, (((2,), (0.7,), 1.0),))
    d = derivative(f, (1, 1))
    omega = np.pi * 2 / 4.0
    assert_allclose(d.terms[0][2], [[1j * omega * 1j * 0.7]], atol=1e-15)


@pytest.mark.parametrize("alpha, error", [
    pytest.param((1,), ValueError, id="short"),
    pytest.param((-1, 0), ValueError, id="negative"),
    pytest.param((9, 0), OrderTooHighError, id="past-max-order"),
    pytest.param((1.5, 0), ValueError, id="fractional"),
    pytest.param(("x", 0), ValueError, id="not-a-number"),
])
def test_phase_symbol_derivative_rejects_bad_index(alpha, error):
    f = PlaneWavePhaseSymbol(1, 4.0, 1, (((2,), (0.7,), 1.0),))
    with pytest.raises(error):
        derivative(f, alpha)


@pytest.mark.parametrize("n, L, k, m, w", [
    pytest.param(1, 4.0, 1, (1.5,), (0.5,), id="fractional-m"),
    pytest.param(1, 4.0, 1, (2 ** 60,), (0.5,), id="huge-m"),
    pytest.param(1, 4.0, 1, (1,), (float("nan"),), id="nan-w"),
    pytest.param(1, 4.0, 1, (1,), (float("inf"),), id="inf-w"),
    pytest.param(3, 4.0, 1, (1, 0, 0), (0.5, 0.0, 0.0), id="n3"),
    pytest.param(1, -1.0, 1, (1,), (0.5,), id="negative-L"),
    pytest.param(1, 4.0, 0, (1,), (0.5,), id="k0"),
])
def test_phase_symbol_rejects_bad_terms(n, L, k, m, w):
    with pytest.raises(ValueError):
        PlaneWavePhaseSymbol(n, L, k, ((m, w, 1.0),))


def test_term_array_fields_must_match_class():
    phase = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0),))
    assert len(PlaneWavePhaseSymbol(1, 4.0, 1, phase.terms).terms) == 1
    with pytest.raises(ValueError, match="fields"):
        PlaneWaveSymbol(1, 4.0, 1, phase.terms)  # would drop w


# The dict-based canonicaliser the term arrays replaced, kept as an
# independent oracle: validate term by term, merge repeated keys into the
# first head left to right, prune zeros, sort by key.


def _oracle_integral(v) -> int:
    i = int(v)
    if i != v:
        raise ValueError(f"frequency component must be an integer, got {v!r}")
    return i


def _oracle_frequency(m, n):
    m = tuple(_oracle_integral(v) for v in m)
    if len(m) != n or any(abs(v) > 2 ** 53 for v in m):
        raise ValueError(f"bad frequency {m}")
    return m


def _oracle_coeff(c, k):
    arr = np.asarray(c, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.shape != (k, k) or not np.isfinite(arr).all():
        raise ValueError(f"bad coefficient of shape {arr.shape}")
    return arr


def oracle_canonical_terms(n, L, k, terms, phase):
    """[(m, w, c)] (w None for plane waves) in the order the symbol stores them."""
    if n not in (1, 2) or not (np.isfinite(L) and L > 0) or not 1 <= k <= 8:
        raise ValueError("bad box or fiber size")
    merged = {}
    for term in terms:
        if phase:
            m, w, c = term
            m = _oracle_frequency(m, n)
            w = tuple(float(v) for v in w)
            if len(w) != n or not all(np.isfinite(w)):
                raise ValueError(f"bad xi-frequency {w}")
            key, head = (m, tuple(round(v, 12) for v in w)), (m, w)
        else:
            m, c = term
            key = head = _oracle_frequency(m, n)
        c = _oracle_coeff(c, k)
        if key in merged:
            head, first = merged[key]
            with np.errstate(over="ignore"):
                c = first + c
            if not np.isfinite(c).all():
                raise ValueError("sum past the float range")
        merged[key] = (head, c)
    out = []
    for key in sorted(merged):
        head, c = merged[key]
        if np.abs(c).max() != 0.0:
            out.append((head[0], head[1], c) if phase else (head, None, c))
    return out


# w values away from decimal ties, where numpy's rint-based round and
# Python's correctly rounded round agree (the ties are pinned by
# test_phase_key_rounds_like_numpy); 1/3 and 1/3 + 1e-14 share a key, and
# 1e300 and 2e300 are past the overflow of w * 1e12.
ORACLE_W = st.sampled_from((0.0, -0.0, -1.25, 1 / 3, 1 / 3 + 1e-14, 1e300, 2e300))
# Sums of 0.1, 1/3 and 1e16 round differently when grouped differently.
ORACLE_C = st.sampled_from((0.0, -0.0, 1.0, 0.1, 1 / 3 - 0.7j, 1e16, 0.5j, 1e-300,
                            np.finfo(float).max))
# the bad inputs of test_phase_symbol_rejects_bad_terms
ORACLE_BAD = st.sampled_from((None, "fractional-m", "huge-m", "nan-w", "inf-w", "n3",
                              "negative-L", "k0"))


@st.composite
def raw_symbols(draw):
    phase, n, k = draw(st.booleans()), draw(SIZES), draw(SIZES)
    L, bad = 4.0, draw(ORACLE_BAD)
    m = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(tuple)
    w = st.lists(ORACLE_W, min_size=n, max_size=n).map(tuple)
    c = st.one_of(ORACLE_C if k == 1 else st.nothing(),
                  arrays(np.complex128, (k, k), elements=ORACLE_C))
    terms = draw(st.lists(st.tuples(m, w, c) if phase else st.tuples(m, c), max_size=8))
    if bad in ("fractional-m", "huge-m") and terms:
        value = 1.5 if bad == "fractional-m" else 2 ** 60
        terms[0] = ((value,) * n,) + terms[0][1:]
    elif bad in ("nan-w", "inf-w") and phase and terms:
        terms[0] = (terms[0][0], (float(bad[:3]),) * n, terms[0][2])
    elif bad == "n3":
        n = 3
    elif bad == "negative-L":
        L = -1.0
    elif bad == "k0":
        k = 0
    return phase, n, L, k, terms


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw_symbols())
@example((True, 1, 4.0, 1, [((0,), (1e300,), 1.0), ((0,), (2e300,), 1.0)]))
def test_canonical_terms_match_dict_oracle(raw):
    phase, n, L, k, terms = raw
    cls = PlaneWavePhaseSymbol if phase else PlaneWaveSymbol
    try:
        expected = oracle_canonical_terms(n, L, k, terms, phase)
    except ValueError:
        with pytest.raises(ValueError):
            cls(n, L, k, tuple(terms))
        return
    got = cls(n, L, k, tuple(terms)).terms
    assert not got.flags.writeable
    assert len(got) == len(expected)
    for row, (m, w, c) in zip(got, expected):
        assert row["m"].tolist() == list(m)
        if phase:
            assert row["w"].tobytes() == np.asarray(w, dtype=float).tobytes()
        assert row["c"].tobytes() == c.tobytes()


@pytest.mark.parametrize("w1, w2, merged, merged_by_oracle", [
    # a decimal near-tie: np.round gives 9.3349e-07, round gives 9.33489e-07
    pytest.param(9.334895e-07, 9.3349e-07, True, False, id="tie-numpy-merges"),
    pytest.param(9.334895e-07, 9.33489e-07, False, True, id="tie-numpy-splits"),
    pytest.param(1e300, 2e300, False, False, id="past-overflow"),
    pytest.param(1 / 3, 1 / 3 + 1e-14, True, True, id="below-12-decimals"),
])
def test_phase_key_rounds_like_numpy(w1, w2, merged, merged_by_oracle):
    """w keys are np.round(w, 12), or w itself where that overflows; near
    decimal ties np.round and Python's round can bucket differently."""
    terms = (((0,), (w1,), 1.0), ((0,), (w2,), 1.0))
    got = PlaneWavePhaseSymbol(1, 4.0, 1, terms).terms
    assert len(got) == (1 if merged else 2)
    assert got["w"][0, 0] == (w1 if merged else min(w1, w2))
    assert got["c"][0, 0, 0] == (2.0 if merged else 1.0)
    assert len(oracle_canonical_terms(1, 4.0, 1, terms, True)) == (1 if merged_by_oracle else 2)


# ---------------------------------------------------------------------------
# File formats


def test_read_malformed_json_names_byte_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "L": 4.0, "terms": [')
    with pytest.raises(ValueError, match="byte offset"):
        read_symbol_file(path)


def test_read_truncated_rsym_names_byte_offset(tmp_path):
    f = GridSymbol(1, 16, 4.0, gaussian_values(1, 16, 4.0, 1.0))
    path = tmp_path / "f.rsym"
    write_symbol_file(f, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="byte offset"):
        read_symbol_file(path)


@pytest.mark.parametrize("k", [0, MAX_DIM + 1])
def test_read_bad_fiber_size_names_offset_nine(tmp_path, k):
    path = tmp_path / "f.rsym"
    write_symbol_file(GridSymbol(1, 4, 1.0, np.ones(4)), path)
    data = bytearray(path.read_bytes())
    data[9:11] = k.to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"bad fiber size {k} at byte offset 9"):
        read_symbol_file(path)


def test_read_bad_magic_names_offset_zero(tmp_path):
    path = tmp_path / "f.rsym"
    path.write_bytes(b"NOTSYM1\x00" + b"\x00" * 64)
    with pytest.raises(ValueError, match="byte offset 0"):
        read_symbol_file(path)


def test_json_payload_is_valid_json(tmp_path):
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 2)
    path = tmp_path / "f.json"
    write_symbol_file(f, path)
    doc = json.loads(path.read_text())
    assert doc["n"] == 1
    assert {"m", "coeff"} <= set(doc["terms"][0])


def test_plane_wave_json_without_k_reads(tmp_path):
    # the README example: k comes from the first coefficient
    path = tmp_path / "f.json"
    path.write_text('{"L": 6.0, "n": 2, "terms": [{"m": [1, 0], "coeff": [[[0.5, 0.0]]]}]}')
    f = read_symbol_file(path)
    assert (f.n, f.L, f.k) == (2, 6.0, 1)
    assert f.terms["m"].tolist() == [[1, 0]]


# Property tests of the readers: exact round trips, and malformed input ends
# in ValueError (exit 2 at the command line), never in another exception.

READER_SETTINGS = settings(
    derandomize=True, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
SIZES = st.sampled_from((1, 2))
HALF_WIDTHS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def plane_wave_symbols(draw):
    n, k = draw(SIZES), draw(SIZES)
    m = st.tuples(*[st.integers(-2 ** 53, 2 ** 53)] * n)
    terms = draw(st.lists(st.tuples(m, arrays(np.complex128, (k, k), elements=COMPLEX)),
                          max_size=4))
    try:
        return PlaneWaveSymbol(n, draw(HALF_WIDTHS), k, tuple(terms))
    except ValueError:
        # repeated frequencies whose coefficients sum past the float range
        # (test_plane_wave_rejects_overflowing_merge)
        reject()


@st.composite
def grid_symbols(draw):
    n, k, N = draw(SIZES), draw(SIZES), draw(st.sampled_from((4, 8)))
    values = draw(arrays(np.complex128, (N,) * n + (k, k), elements=COMPLEX))
    try:
        return GridSymbol(n, N, draw(HALF_WIDTHS), values)
    except ValueError:
        # a box whose cell weight (2L/N)^n overflows
        # (test_grid_data_rejects_a_box_past_the_cell_weight)
        reject()


@READER_SETTINGS
@given(plane_wave_symbols())
def test_plane_wave_json_roundtrip(tmp_path, f):
    write_symbol_file(f, tmp_path / "f.json")
    g = read_symbol_file(tmp_path / "f.json")
    assert isinstance(g, PlaneWaveSymbol)
    assert (g.n, g.L, g.k, len(g.terms)) == (f.n, f.L, f.k, len(f.terms))
    assert np.array_equal(g.terms["m"], f.terms["m"])
    assert np.array_equal(g.terms["c"], f.terms["c"])


@READER_SETTINGS
@given(grid_symbols())
def test_rsym_roundtrip(tmp_path, f):
    write_symbol_file(f, tmp_path / "f.rsym")
    g = read_symbol_file(tmp_path / "f.rsym")
    assert isinstance(g, GridSymbol)
    assert (g.n, g.N, g.L, g.k) == (f.n, f.N, f.L, f.k)
    assert np.array_equal(g.values, f.values)


def _read_or_value_error(path):
    try:
        assert isinstance(read_symbol_file(path), (GridSymbol, PlaneWaveSymbol))
    except ValueError:
        pass


@READER_SETTINGS
@given(grid_symbols(), st.data())
def test_damaged_rsym_reads_or_raises_value_error(tmp_path, f, data):
    path = tmp_path / "f.rsym"
    write_rsym(f, path)
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, 20), label="header byte")
        raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    path.write_bytes(bytes(raw))
    _read_or_value_error(path)


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(("n", "L", "terms", "m", "coeff")) | st.text(max_size=3),
        children, max_size=4),
    max_leaves=10,
)


@pytest.mark.parametrize("field", ["document", "n", "L", "m", "coeff"])
@READER_SETTINGS
@given(value=st.sampled_from((float("inf"), float("nan"), 10 ** 400, -1)) | JSON_DOCS)
def test_json_reads_or_raises_value_error(tmp_path, field, value):
    # a random document, or a valid one with one field replaced
    doc = {"n": 2, "L": 6.0, "terms": [{"m": [1, -2], "coeff": [[[1.0, 0.5]]]}]}
    if field == "document":
        doc = value
    elif field in ("n", "L"):
        doc[field] = value
    elif field == "m":
        doc["terms"][0]["m"][1] = value
    else:
        doc["terms"][0]["coeff"][0][0][0] = value
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    _read_or_value_error(tmp_path / "doc.json")
