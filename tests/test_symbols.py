"""Symbols, grids, series, norms, and file formats."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from deformkit.errors import DecayViolationError
from deformkit.symbols import (
    DeformationMatrix,
    GridPhaseSymbol,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    axis_points,
    centered_dft,
    centered_idft,
    derivative,
    dual_axis_points,
    eval_series,
    fourier,
    inner_product,
    multi_indices,
    norm_2,
    norm_L2,
    read_symbol_file,
    seminorm_B,
    seminorm_S,
    series_coefficients,
    series_synthesis,
    significant_terms,
    sup_norm,
    symbol_star,
    write_rsym,
    write_symbol_file,
)
from deformkit.verify_cli import gaussian_values, random_plane_wave

RNG = np.random.default_rng(27182)


# ---------------------------------------------------------------------------
# Deformation matrices


def test_deformation_matrix_rejects_symmetric_part():
    with pytest.raises(ValueError):
        DeformationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


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


def test_plane_wave_rejects_overflowing_merge():
    big = np.finfo(float).max
    with pytest.raises(ValueError, match="float range"):
        PlaneWaveSymbol(1, 4.0, 1, (((1,), big), ((1,), big)))


def test_plane_wave_prunes_zero_terms():
    f = PlaneWaveSymbol(1, 4.0, 1, (((1,), 1.0), ((2,), 0.0)))
    assert [m for m, _ in f.terms] == [(1,)]


def test_plane_wave_evaluate_periodicity():
    f = random_plane_wave(RNG, 1, 4.0, 2, 3, 4)
    x = np.array([0.3])
    assert_allclose(f.evaluate(x), f.evaluate(x + 8.0), atol=1e-12)


def test_plane_wave_to_grid_matches_evaluate():
    f = random_plane_wave(RNG, 2, 6.0, 1, 2, 3)
    g = f.to_grid(16)
    pts = g.points()
    assert_allclose(g.values, f.evaluate(pts), atol=1e-12)


def test_plane_wave_star_squares_to_identity():
    f = random_plane_wave(RNG, 2, 6.0, 2, 2, 4)
    again = f.star().star()
    assert [m for m, _ in again.terms] == [m for m, _ in f.terms]
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
    back = series_synthesis(coeffs, 2)
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
    terms = significant_terms(f.to_grid(32))
    assert sorted(m for m, _ in terms) == [(-2,), (1,)]


def test_eval_series_matches_evaluate():
    f = random_plane_wave(RNG, 1, 4.0, 1, 3, 4)
    terms = [(m, c) for m, c in f.terms]
    x = np.array([[0.3], [-1.7]])
    assert_allclose(eval_series(terms, 4.0, x, 1), f.evaluate(x), atol=1e-12)


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
# Derivatives and seminorms


def test_derivative_of_plane_wave_is_exact():
    L = 4.0
    f = PlaneWaveSymbol(1, L, 1, (((2,), 1.5),))
    d = derivative(f, (1,))
    x = np.array([0.4])
    freq = 2.0 * np.pi * 2 / (2 * L)
    assert_allclose(d.evaluate(x), 1j * freq * f.evaluate(x), atol=1e-12)


def test_derivative_matches_finite_difference_on_grid():
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 3).to_grid(64)
    d = derivative(f, (1,))
    h = f.dx
    fd = (np.roll(f.values, -1, axis=0) - np.roll(f.values, 1, axis=0)) / (2 * h)
    assert np.abs(d.values - fd).max() <= 5e-2


def test_seminorm_B_monotone_in_order():
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 3)
    values = [seminorm_B(f, m) for m in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert_allclose(values[0], sup_norm(f), rtol=1e-6)


def test_seminorm_S_needs_decay():
    flat = GridSymbol(1, 32, 4.0, np.ones(32))
    with pytest.raises(DecayViolationError):
        seminorm_S(flat, 1)


def test_seminorm_S_on_gaussian_exceeds_plain_sup():
    g = GridSymbol(1, 256, 8.0, gaussian_values(1, 256, 8.0, 0.5))
    assert seminorm_S(g, 2) >= seminorm_B(g, 2) - 1e-12


# ---------------------------------------------------------------------------
# Norms and inner products


def test_sup_norm_of_single_wave_is_coefficient_norm():
    c = np.array([[1.0, 2.0], [0.0, 1.0]])
    f = PlaneWaveSymbol(1, 4.0, 2, (((1,), c),))
    assert_allclose(sup_norm(f), np.linalg.norm(c, 2), rtol=1e-9)


def test_sup_norm_rejects_unknown_type():
    with pytest.raises(TypeError):
        sup_norm(3.0)


def test_inner_product_positive():
    f = ModuleVector(1, 32, 4.0, gaussian_values(1, 32, 4.0, 1.0))
    gram = inner_product(f, f).entries
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-14
    assert_allclose(norm_2(f), np.sqrt(np.linalg.norm(gram, 2)), rtol=1e-12)


def test_norm_l2_of_gaussian():
    # ||exp(-x^2)||_2^2 = sqrt(pi / 2) on a box that captures the tails.
    g = ModuleVector(1, 256, 8.0, gaussian_values(1, 256, 8.0, 1.0))
    assert_allclose(norm_L2(g) ** 2, np.sqrt(np.pi / 2.0), rtol=1e-6)


def test_fourier_unitary_on_grid():
    f = ModuleVector(1, 64, 4.0, gaussian_values(1, 64, 4.0, 1.0))
    g = GridSymbol(1, 64, 4.0, f.values)
    assert_allclose(norm_L2(fourier(g)), norm_L2(g), rtol=1e-12)
    back = fourier(fourier(g), sign=-1)
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


def test_grid_phase_symbol_shape_check():
    with pytest.raises(ValueError):
        GridPhaseSymbol(1, (8, 8), (4.0, 4.0), np.ones((8, 4)))


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
    assert f.terms[0][0] == (1, 0)


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
    return GridSymbol(n, N, draw(HALF_WIDTHS), values)


@READER_SETTINGS
@given(plane_wave_symbols())
def test_plane_wave_json_roundtrip(tmp_path, f):
    write_symbol_file(f, tmp_path / "f.json")
    g = read_symbol_file(tmp_path / "f.json")
    assert isinstance(g, PlaneWaveSymbol)
    assert (g.n, g.L, g.k, len(g.terms)) == (f.n, f.L, f.k, len(f.terms))
    for (m, c), (m2, c2) in zip(f.terms, g.terms):
        assert m == m2 and np.array_equal(c, c2)


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
