"""Deformed product: plane-wave law, grid route, phase-space calculus."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deformkit import deformation, symbols
from deformkit.deformation import (
    _CHUNK_POINTS,
    OSC_PAD,
    OSC_Q,
    ROUTE_TOL,
    _czt_axis,
    _fast_len,
    _gcheck_rows,
    _k_first,
    _kfirst_product,
    _LatticePlan,
    _check_points,
    _inner_period,
    _quadrature_point_lattice,
    _twisted_lattice_product,
    _unfold_weight,
    _weight_groups,
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
    tilde_map,
)
from deformkit.errors import BoxMismatchError, ConvergenceError, GridMismatchError
from deformkit.pseudodiff import op_from_phase_terms
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    centered_dft,
    centered_idft,
    series_coefficients,
    significant_terms,
)
from deformkit.suites import gaussian_values, random_plane_wave
from oracles import (
    oscillatory_pair_integral,
    symbol_compose,
    symbol_dagger,
    symbol_star,
    whole_mesh_gcheck,
    whole_mesh_outer_weight,
    whole_mesh_quadrature,
    whole_mesh_weight_groups,
)

RNG = np.random.default_rng(16180)
L = 6.0
J_HALF = DeformationMatrix.symplectic(0.5, 2)


def wave(m, coeff=1.0):
    return PlaneWaveSymbol(2, L, 1, ((tuple(m), coeff),))


def term_map(f):
    return {tuple(m.tolist()): c for m, c in f.terms}


# ---------------------------------------------------------------------------
# Plane-wave law (the coefficient phase is written out independently here)


@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
def test_plane_wave_pair_law(theta):
    J = DeformationMatrix.symplectic(theta, 2)
    for _ in range(10):
        p = tuple(int(v) for v in RNG.integers(-3, 4, size=2))
        q = tuple(int(v) for v in RNG.integers(-3, 4, size=2))
        prod = deformed_product_exact(wave(p), wave(q), J)
        pf = np.asarray(p, float) / (2 * L)
        qf = np.asarray(q, float) / (2 * L)
        expected = np.exp(-2j * np.pi * float(pf @ (J.entries @ qf)))
        got = term_map(prod)
        key = tuple(int(a + b) for a, b in zip(p, q))
        assert set(got) == {key}
        assert_allclose(got[key], [[expected]], atol=1e-14)


def test_theta_zero_is_pointwise_product():
    f = random_plane_wave(RNG, 2, L, 2, 2, 3)
    g = random_plane_wave(RNG, 2, L, 2, 2, 3)
    prod = deformed_product_exact(f, g, DeformationMatrix.zero(2))
    x = RNG.uniform(-L, L, size=(5, 2))
    assert_allclose(prod.evaluate(x), f.evaluate(x) @ g.evaluate(x), atol=1e-12)


def test_commutation_phase():
    for _ in range(10):
        p = tuple(int(v) for v in RNG.integers(-3, 4, size=2))
        q = tuple(int(v) for v in RNG.integers(-3, 4, size=2))
        fg = deformed_product_exact(wave(p), wave(q), J_HALF)
        gf = deformed_product_exact(wave(q), wave(p), J_HALF)
        pf = np.asarray(p, float) / (2 * L)
        qf = np.asarray(q, float) / (2 * L)
        phase = np.exp(-4j * np.pi * float(pf @ (J_HALF.entries @ qf)))
        key = tuple(int(a + b) for a, b in zip(p, q))
        assert_allclose(term_map(fg)[key], phase * term_map(gf)[key], atol=1e-14)


def test_exact_associativity():
    for _ in range(5):
        f = random_plane_wave(RNG, 2, L, 1, 2, 3)
        g = random_plane_wave(RNG, 2, L, 1, 2, 3)
        h = random_plane_wave(RNG, 2, L, 1, 2, 3)
        left = deformed_product_exact(deformed_product_exact(f, g, J_HALF), h, J_HALF)
        right = deformed_product_exact(f, deformed_product_exact(g, h, J_HALF), J_HALF)
        lt, rt = term_map(left), term_map(right)
        assert set(lt) == set(rt)
        for m in lt:
            assert_allclose(lt[m], rt[m], atol=1e-12)


def test_star_is_antihomomorphism():
    # (f x_J g)* = g* x_J f* for the deformed product.
    f = random_plane_wave(RNG, 2, L, 2, 2, 3)
    g = random_plane_wave(RNG, 2, L, 2, 2, 3)
    lhs = term_map(symbol_star(deformed_product_exact(f, g, J_HALF)))
    rhs = term_map(deformed_product_exact(symbol_star(g), symbol_star(f), J_HALF))
    assert set(lhs) == set(rhs)
    for m in lhs:
        assert_allclose(lhs[m], rhs[m], atol=1e-12)


def test_exact_route_needs_plane_waves():
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    with pytest.raises(TypeError):
        deformed_product_exact(g, g, J_HALF)


def test_exact_route_rejects_box_mismatch():
    f = random_plane_wave(RNG, 2, L, 1, 2, 2)
    g = random_plane_wave(RNG, 2, 2 * L, 1, 2, 2)
    with pytest.raises(BoxMismatchError):
        deformed_product_exact(f, g, J_HALF)


def test_products_refuse_a_J_of_another_dimension():
    # both products check J with the boxes, before any series or pair is formed
    f = wave((1, 0))
    J = DeformationMatrix.zero(1)
    for run in (lambda: deformed_product_exact(f, f, J),
                lambda: deformed_product_numeric(f.to_grid(8), f.to_grid(8), J)):
        with pytest.raises(BoxMismatchError, match="J has dimension 1, symbols have 2"):
            run()


def test_composition_refuses_too_many_term_pairs(monkeypatch):
    # 2 x 3 term pairs of 2 x 2 coefficients are 24 values: past a bound of 23 both termwise
    # laws refuse before any pair is formed, so no phase is ever taken
    def formed(*args):
        raise AssertionError("a term pair was formed")

    monkeypatch.setattr(deformation, "MAX_PRODUCT_VALUES", 23)
    monkeypatch.setattr(deformation, "_rowdot", formed)
    a = PlaneWavePhaseSymbol(1, L, 2, tuple(((m,), (0.5 * m,), np.eye(2)) for m in (0, 1)))
    b = PlaneWavePhaseSymbol(1, L, 2, tuple(((m,), (0.0,), np.eye(2)) for m in (0, 1, 2)))
    with pytest.raises(ValueError, match="composition of 2 x 3 terms of 2 x 2 coefficients "
                                         "exceeds 23 values"):
        deformation._compose_terms(a, b)
    f = PlaneWaveSymbol(1, L, 2, tuple(((m,), np.eye(2)) for m in (0, 1)))
    g = PlaneWaveSymbol(1, L, 2, tuple(((m,), np.eye(2)) for m in (0, 1, 2)))
    with pytest.raises(ValueError, match="exact product of 2 x 3 terms"):
        deformed_product_exact(f, g, DeformationMatrix.zero(1))
    monkeypatch.setattr(deformation, "MAX_PRODUCT_VALUES", 24)
    with pytest.raises(AssertionError, match="formed"):
        deformation._compose_terms(a, b)


@pytest.mark.parametrize("scale, k, same", [
    pytest.param(1.0 + 5e-13, 1, True, id="L-above-within"),
    pytest.param(1.0 - 5e-13, 1, True, id="L-below-within"),
    pytest.param(1.0 + 1e-11, 1, False, id="L-off"),
    pytest.param(1.0, 2, False, id="k-off"),
])
def test_every_box_check_shares_one_predicate(scale, k, same):
    # the one rule of symbols._same_geometry at each site: L within 1e-12 of the
    # larger, n and k equal
    rng = np.random.default_rng(5)

    def phase(L1, k1):
        return PlaneWavePhaseSymbol(1, L1, k1, (((1,), (0.5,), np.eye(k1)),))

    def vector(L1, k1):
        return symbols.ModuleVector(1, 8, L1, np.ones((8, k1, k1), dtype=complex))

    checks = [
        (BoxMismatchError, lambda a, b: _LatticePlan([phase(*a), phase(*b)], 8)),
        (BoxMismatchError, lambda a, b: deformation._compose_terms(phase(*a), phase(*b))),
        (BoxMismatchError, lambda a, b: deformed_product_exact(
            random_plane_wave(rng, 2, a[0], a[1], 2, 2),
            random_plane_wave(rng, 2, b[0], b[1], 2, 2), J_HALF)),
        (GridMismatchError, lambda a, b: symbols.inner_product(vector(*a), vector(*b))),
        (GridMismatchError, lambda a, b: op_from_phase_terms(phase(*a), 8)(vector(*b))),
        (GridMismatchError, lambda a, b: op_from_phase_terms(phase(*a), 8)
         @ op_from_phase_terms(phase(*b), 8)),
    ]
    for error, check in checks:
        for a, b in [((L, 1), (L * scale, k)), ((L * scale, k), (L, 1))]:
            if same:
                check(a, b)
            else:
                with pytest.raises(error):
                    check(a, b)


# ---------------------------------------------------------------------------
# Grid route


@pytest.mark.parametrize("k, f_terms, g_terms, seed", [
    pytest.param(1, 4, 4, None, id="k1"),
    pytest.param(2, 4, 4, 7, id="k2"),
    # fewer terms in f: the term loop runs over f
    pytest.param(2, 2, 6, 8, id="k2-loop-over-f"),
    # fewer terms in g: the loop runs over g through the transpose identity
    pytest.param(2, 6, 2, 9, id="k2-loop-over-g"),
])
def test_numeric_route_matches_exact_on_band_limited(k, f_terms, g_terms, seed):
    rng = RNG if seed is None else np.random.default_rng(seed)
    N = 16
    for theta in (0.0, 0.25, 1.0):
        J = DeformationMatrix.symplectic(theta, 2)
        f = random_plane_wave(rng, 2, L, k, 3, f_terms)
        g = random_plane_wave(rng, 2, L, k, 3, g_terms)
        exact = deformed_product_exact(f, g, J).to_grid(N)
        numeric = deformed_product_numeric(f.to_grid(N), g.to_grid(N), J, True)
        scale = np.abs(exact.values).max()
        assert np.abs(numeric.values - exact.values).max() <= 1e-12 * scale


def test_numeric_route_reports_disagreement():
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 3.0))
    report = {}
    deformed_product_numeric(f, g, J_HALF, report=report)
    assert report["points_checked"] == 5
    assert report["route_disagreement"] <= ROUTE_TOL


def test_numeric_route_checks_at_most_n_distinct_points():
    # five check points on a 4-point axis: each of the four axis-0 rows once, and the
    # report says 4; band-limited factors (|m| <= 1, sums inside the band) keep the
    # routes together
    assert _check_points(4, 5, 1) == [(0,), (1,), (2,), (3,)]
    assert _check_points(4, 5, 2) == [(0, 1), (1, 1), (2, 2), (3, 2)]
    assert _check_points(16, 5, 2) == [(1, 3), (4, 5), (7, 6), (10, 8), (13, 9)]
    f = PlaneWaveSymbol(2, L, 1, (((0, 0), 1.0), ((1, 0), 0.5j), ((0, 1), -0.3))).to_grid(4)
    g = PlaneWaveSymbol(2, L, 1, (((0, 0), 0.8), ((-1, 0), 0.2), ((0, -1), 0.4j))).to_grid(4)
    report = {}
    deformed_product_numeric(f, g, J_HALF, report=report)
    assert report["points_checked"] == 4
    assert report["route_disagreement"] <= ROUTE_TOL


def test_numeric_route_takes_each_series_once(monkeypatch):
    # the lattice route and the oracle share the two factors' series: two centered DFTs
    calls = []
    dft = centered_dft

    def counted(values, axes):
        calls.append(values.shape)
        return dft(values, axes)

    monkeypatch.setattr(symbols, "centered_dft", counted)
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 3.0))
    want = deformed_product_numeric(f, g, J_HALF, True)
    calls.clear()
    got = deformed_product_numeric(f, g, J_HALF)
    assert calls == [f.values.shape, g.values.shape]
    assert got.values.tobytes() == want.values.tobytes()


def test_numeric_route_raises_on_tight_tolerance(monkeypatch):
    # The quadrature oracle cannot reach 1e-16, so the gate, read per call, must trip.
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 3.0))
    monkeypatch.setattr(deformation, "ROUTE_TOL", 1e-16)
    with pytest.raises(ConvergenceError, match="ROUTE_TOL 1.0e-16"):
        deformed_product_numeric(f, g, J_HALF)


def test_numeric_route_raises_on_a_nan_oracle(monkeypatch):
    # max(0.0, nan) is 0.0: a NaN oracle value must not read as agreement
    def nan_oracle(fhat, ghat, n, L, J, x):
        return np.full(fhat.shape[-2:], np.nan + 0j)

    monkeypatch.setattr(deformation, "_quadrature_point_lattice", nan_oracle)
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 3.0))
    with pytest.raises(ConvergenceError, match="check point"):
        deformed_product_numeric(f, g, J_HALF)


def modulated_pair(N):
    """Gaussians of widths 2.0 and 3.0 (1.2 and 0.9 from N = 256 on) times the plane waves
    e_(2, 0) and e_(0, 2): unlike a radial pair, the pair is not symmetric under swapping
    the axes, which maps J to -J, so its product tells J from -J also on x_1 = x_2."""
    wave = np.exp(2j * np.pi * 2 * symbols.axis_points(N, L) / (2 * L))
    widths = (2.0, 3.0) if N < 256 else (1.2, 0.9)
    return [GridSymbol(2, N, L, gaussian_values(2, N, L, w) * e[..., None, None] * c)
            for w, e, c in zip(widths, (wave[:, None], wave), (1.0, 1 + 0.5j))]


@pytest.mark.parametrize("N", [16, 256], ids=["group-chunks", "row-chunks"])
@pytest.mark.parametrize("defect", [None, "minus-J", "scaled"])
def test_route_check_fails_on_a_seeded_lattice_defect(monkeypatch, N, defect):
    # The lattice route run at -J or at J (1 + 1e-3) against the oracle at J, theta = 0.25.
    # The routes read, unmutated, -J and scaled: 2.8e-11, 2.4e-2 and 1.3e-5 at N = 16, and
    # 2.1e-11, 5.1e-2 and 2.3e-5 at N = 256, linear in the scale defect, so the smallest
    # one that trips the ROUTE_TOL = 1e-5 gate is 7.8e-4 at N = 16 and 4.3e-4 at N = 256.
    # A radial Gaussian pair reads the same under -J as unmutated (2.1e-11 at N = 256).
    assert 16 ** 2 <= _CHUNK_POINTS < 256 ** 2  # one group fits at N = 16, not at 256
    reads = {16: {"minus-J": 2.373e-2, "scaled": 1.275e-5},
             256: {"minus-J": 5.093e-2, "scaled": 2.305e-5}}[N]
    mutants = {"minus-J": lambda J: DeformationMatrix(-J.entries),
               "scaled": lambda J: DeformationMatrix(J.entries * (1 + 1e-3))}
    f, g = modulated_pair(N)
    J = DeformationMatrix.symplectic(0.25, 2)
    if defect is None:
        report = {}
        deformed_product_numeric(f, g, J, report=report)
        assert report["route_disagreement"] <= 1e-10
        return
    real = deformation._twisted_lattice_product
    monkeypatch.setattr(deformation, "_twisted_lattice_product",
                        lambda f, g, J, fhat, ghat: real(f, g, mutants[defect](J), fhat, ghat))
    with pytest.raises(ConvergenceError, match="product routes disagree: ") as err:
        deformed_product_numeric(f, g, J)
    assert float(str(err.value).split()[3]) == pytest.approx(reads[defect], rel=0.01)


def swap_symmetric_pair(kind, N):
    """f, g unchanged under swapping the axes, which maps J to -J: so on x_1 = x_2 the
    product at -J is the product at J.  "waves": e^(-|x|^2 / 1.2 + i (x_1 + x_2)) and
    e^(-|x|^2 / 0.9 + 0.5 i (x_1 + x_2)); "quartic": e^(-(x_1^4 + x_2^4) / 3) and
    e^(-|x|^2 / 2 - (x_1 x_2)^2 / 4)."""
    x1, x2 = np.meshgrid(symbols.axis_points(N, L), symbols.axis_points(N, L), indexing="ij")
    r2 = x1 ** 2 + x2 ** 2
    if kind == "waves":
        values = (-r2 / 1.2 + 1j * (x1 + x2), -r2 / 0.9 + 0.5j * (x1 + x2))
    else:
        values = (-(x1 ** 4 + x2 ** 4) / 3, -r2 / 2 - (x1 * x2) ** 2 / 4)
    return [GridSymbol(2, N, L, np.exp(v)[..., None, None] + 0j) for v in values]


def test_check_points_leave_both_diagonals():
    for N in (16, 32, 64, 128, 256, 512, 1024):
        assert all(abs(i - N // 2) != abs(j - N // 2) for i, j in _check_points(N, 5, 2))


@pytest.mark.parametrize("N", [16, 256], ids=["group-chunks", "row-chunks"])
@pytest.mark.parametrize("kind", ["waves", "quartic"])
def test_route_check_sees_the_sign_of_J_on_a_swap_symmetric_pair(monkeypatch, kind, N):
    # The lattice route at -J against the oracle at J, theta = 0.25.  Off the diagonals the
    # check reads 2.2e-3 and 2.4e-2 (waves), 1.5e-2 and 2.1e-3 (quartic) at N = 16 and 256;
    # unmutated, 1.5e-11 or less, and 6.9e-10 for the quartic pair at N = 256.  On the
    # diagonal x_1 = x_2, where the check points lay before, the mutant reads as the
    # unmutated route does.
    reads = {("waves", 16): 2.158e-3, ("waves", 256): 2.381e-2,
             ("quartic", 16): 1.494e-2, ("quartic", 256): 2.097e-3}[kind, N]
    f, g = swap_symmetric_pair(kind, N)
    J = DeformationMatrix.symplectic(0.25, 2)
    report = {}
    deformed_product_numeric(f, g, J, report=report)
    assert report["route_disagreement"] <= 1e-9
    real = deformation._twisted_lattice_product
    monkeypatch.setattr(deformation, "_twisted_lattice_product",
                        lambda f, g, J, fhat, ghat: real(f, g, DeformationMatrix(-J.entries),
                                                         fhat, ghat))
    with pytest.raises(ConvergenceError, match="product routes disagree: ") as err:
        deformed_product_numeric(f, g, J)
    assert float(str(err.value).split()[3]) == pytest.approx(reads, rel=0.01)
    diagonal = [(i, i) for i, _ in _check_points(N, 5, 2)]
    monkeypatch.setattr(deformation, "_check_points", lambda N, count, n: diagonal)
    mutated, unmutated = {}, {}
    deformed_product_numeric(f, g, J, report=mutated)
    monkeypatch.setattr(deformation, "_twisted_lattice_product", real)
    deformed_product_numeric(f, g, J, report=unmutated)
    assert abs(mutated["route_disagreement"] - unmutated["route_disagreement"]) <= 1e-15


def test_numeric_route_rejects_resolution_mismatch():
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 32, L, gaussian_values(2, 32, L, 2.0))
    with pytest.raises(BoxMismatchError):
        deformed_product_numeric(f, g, J_HALF)


def test_numeric_commutator_vanishes_at_theta_zero():
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    vals = gaussian_values(2, 16, L, 3.0)
    ax = (np.arange(16) - 8) * (2 * L / 16)
    vals = vals * np.exp(0.5j * ax)[:, None, None, None]
    g = GridSymbol(2, 16, L, vals)
    J0 = DeformationMatrix.zero(2)
    fg = deformed_product_numeric(f, g, J0, True)
    gf = deformed_product_numeric(g, f, J0, True)
    assert np.abs(fg.values - gf.values).max() <= 1e-12


# ---------------------------------------------------------------------------
# Phase-space lift and calculus


def test_tilde_map_of_plane_wave():
    f = wave((1, -2), 0.7)
    lifted = tilde_map(f, J_HALF)
    assert isinstance(lifted, PlaneWavePhaseSymbol)
    ((m, w, c),) = lifted.terms
    assert tuple(m) == (1, -2)
    p = np.array([1.0, -2.0]) / (2 * L)
    assert_allclose(w, J_HALF.entries @ p, atol=1e-15)
    assert_allclose(c, [[0.7]], atol=1e-15)


def test_tilde_map_at_theta_zero_has_no_xi_dependence():
    f = random_plane_wave(RNG, 2, L, 1, 2, 3)
    lifted = tilde_map(f, DeformationMatrix.zero(2))
    assert all(np.abs(np.asarray(w)).max() == 0.0 for _, w, _ in lifted.terms)


def test_dagger_is_involutive():
    a = PlaneWavePhaseSymbol(
        1, 4.0, 2,
        (((1,), (0.5,), RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))),
         ((-2,), (-0.3,), RNG.normal(size=(2, 2)))),
    )
    again = symbol_dagger(symbol_dagger(a, False), False)
    assert len(again.terms) == len(a.terms)
    for (m, w, c), (m2, w2, c2) in zip(a.terms, again.terms):
        assert np.array_equal(m, m2)
        assert_allclose(w, w2, atol=1e-15)
        assert_allclose(c, c2, atol=1e-12)


def test_dagger_quadrature_gate_passes_on_defaults():
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0 + 0.5j),))
    symbol_dagger(a)


def test_compose_with_constant_is_scaling():
    one = PlaneWavePhaseSymbol(1, 4.0, 1, (((0,), (0.0,), 2.0),))
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0 + 0.5j),))
    prod = symbol_compose(one, a, False)
    ((m, w, c),) = prod.terms
    assert m == (1,)
    assert_allclose(c, [[2.0 + 1.0j]], atol=1e-14)


def test_compose_coefficient_phase():
    # Composition adds frequencies and twists by exp(i w_a . omega_b).
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0),))
    b = PlaneWavePhaseSymbol(1, 4.0, 1, (((2,), (-0.2,), 1.0),))
    prod = symbol_compose(a, b, False)
    ((m, w, c),) = prod.terms
    assert m == (3,)
    assert_allclose(w, [0.3], atol=1e-15)
    omega_b = np.pi * 2 / 4.0
    assert_allclose(c, [[np.exp(1j * 0.5 * omega_b)]], atol=1e-14)


def test_compose_quadrature_gate_passes_on_defaults():
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0),))
    b = PlaneWavePhaseSymbol(1, 4.0, 1, (((-1,), (0.2,), 0.5),))
    symbol_compose(a, b)


# ---------------------------------------------------------------------------
# Oscillatory quadrature


def test_pair_integral_of_constants():
    # F = G = 1 gives int int e^{-2 pi i u.v} du dv = 1 after regularization.
    value = oscillatory_pair_integral([[0.0]], [np.eye(1)], [[0.0]], [np.eye(1)])
    assert_allclose(value, [[1.0]], atol=1e-8)


def test_pair_integral_matches_point_evaluation():
    # F constant, G a single wave: the integral collapses to G(0) = c.
    c = 0.7 - 0.2j
    value = oscillatory_pair_integral([[0.0]], [np.eye(1)], [[0.25]], [c * np.eye(1)])
    assert_allclose(value, [[c]], atol=1e-6)


def test_fourier_inversion_on_plane_wave():
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 3)
    for x in (-1.0, 0.0, 0.7):
        assert fourier_inversion_check(f, np.array([x])) <= 1e-6


def test_fourier_inversion_on_constant_is_sharper():
    f = PlaneWaveSymbol(1, 4.0, 1, (((0,), 1.0),))
    for x in (-1.0, 0.0, 0.7):
        assert fourier_inversion_check(f, np.array([x])) <= 1e-8


@pytest.mark.parametrize("box", [6.0, 5.3])  # the oracle's scale s = 1 and s < 1
@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_fourier_inversion_of_plane_wave_is_its_grid_check(n, k, box):
    # one quadrature path: a plane wave is checked on the smallest power-of-two grid
    # that holds each frequency in [-N/2, N/2), bit for bit
    f = random_plane_wave(np.random.default_rng(30 + 2 * n + k), n, box, k, 3, 3)
    N = 1 << (2 * f.max_abs_m + 1).bit_length()
    assert f.max_abs_m < N // 2 <= 2 * f.max_abs_m + 1
    for x in (-1.0, 0.7):
        xv = np.full(n, x)
        residual = fourier_inversion_check(f, xv)
        assert residual == fourier_inversion_check(f.to_grid(N), xv)
        assert residual <= 1e-6


def test_fourier_inversion_on_grid_gaussian():
    g = GridSymbol(1, 64, 6.0, gaussian_values(1, 64, 6.0, 2.0))
    for x in (-1.0, 0.5):
        assert fourier_inversion_check(g, np.array([x])) <= 1e-6


# ---------------------------------------------------------------------------
# The quadrature oracle's one route for g's derivative fields


def test_inner_period_puts_a_whole_period_in_m_steps():
    # L = 6: M = 2L/h = 128 inner points per period, tiled twice over the 256, and s = 1
    assert _inner_period(6.0) == 128
    assert 2.0 * 6.0 / (_inner_period(6.0) * deformation._H) == 1.0
    # up to L = R, M is the 5-smooth length at least L Q/R - 1/2, so s <= 1; past it M is
    # capped at Q, and s = 2L/(Q h) = L/R > 1 keeps a whole period in M steps
    for box in (1e-3, 0.3, 3.0, 4.0, 5.3, 5.5, 9.7, 12.0):
        M = _inner_period(box)
        assert isinstance(M, int) and M == _fast_len(M) >= box * OSC_Q / deformation.OSC_R - 0.5
        assert M <= OSC_Q
    for box in (12.5, 20.0, 40.0, 200.0):
        M = _inner_period(box)
        assert isinstance(M, int) and M == OSC_Q
        assert 2.0 * box / (M * deformation._H) == pytest.approx(box / deformation.OSC_R)


@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("box", [4.0, 5.3, 6.0, 9.7, 20.0, 40.0, 100.0])
@pytest.mark.parametrize("k", [1, 2])
def test_oracle_matches_phase_law_of_plane_waves(box, k, theta):
    # the scaled fold samples g at every box: s = 1 at L = 6, s < 1 below it, and past
    # L = R = 12 the capped M = Q gives s = L/R > 1
    rng = np.random.default_rng(60 + k)
    f, g = (random_plane_wave(rng, 2, box, k, 3, 4) for _ in range(2))
    J = DeformationMatrix.symplectic(theta, 2)
    fhat, ghat = series_coefficients(f.to_grid(16)), series_coefficients(g.to_grid(16))
    exact = deformed_product_exact(f, g, J)
    for x in ([0.0, 0.0], [-1.3, 2.1], [box - 0.4, 0.7]):
        value = _quadrature_point_lattice(fhat, ghat, 2, box, J, x)
        assert np.abs(value - exact.evaluate(np.array(x))).max() <= 1e-8


def test_oracle_runs_no_chirp_z_pass_on_the_inner_mesh(monkeypatch):
    # at L = 5.3 (M = 120, s = 0.942) and J = 0, the only chirp-z passes are the n
    # one-point passes of f(x): g's fields are folds
    counts = []

    def counting(coeffs, axis, L, scale, start, step, count):
        counts.append(count)
        return czt_axis(coeffs, axis, L, scale, start, step, count)

    czt_axis = deformation._czt_axis
    monkeypatch.setattr(deformation, "_czt_axis", counting)
    f = GridSymbol(2, 32, 5.3, gaussian_values(2, 32, 5.3, 1.2))
    g = GridSymbol(2, 32, 5.3, gaussian_values(2, 32, 5.3, 0.9) * (1 + 0.5j))
    fhat, ghat = series_coefficients(f), series_coefficients(g)
    _quadrature_point_lattice(fhat, ghat, 2, 5.3, DeformationMatrix.zero(2), [f.axis[17]] * 2)
    assert counts == [1, 1]


# ---------------------------------------------------------------------------
# The quadrature's pairing, streamed over blocks of outer rows


def assert_streamed_matches_whole(monkeypatch, run, n, k):
    """run() with the streamed pairing agrees with run() on the whole-mesh reference.

    Within 1e-14 of the largest value, but 1e-12 at n = k = 2: there the reference's one
    einsum adds 2 x 512^2 products into each entry in turn, and against an extended-precision
    sum its own error reached 3.1e-13 of the largest value, the streamed pairing's 8e-15.
    """
    streamed = run()
    monkeypatch.setattr(deformation, "_regularized_quadrature", whole_mesh_quadrature)
    whole = run()
    monkeypatch.undo()
    tol = 1e-12 if n == k == 2 else 1e-14
    assert np.abs(streamed - whole).max() <= tol * np.abs(whole).max()


@pytest.mark.parametrize("box", [6.0, 5.3])  # the oracle's scale s = 1 and s < 1
@pytest.mark.parametrize("n, k, theta", [
    (1, 1, 0.0), (1, 2, 0.0), (2, 1, 0.0), (2, 1, 0.25), (2, 2, 0.0), (2, 2, 0.25)])
def test_streamed_oracle_point_matches_whole_mesh(monkeypatch, box, n, k, theta):
    rng = np.random.default_rng(70 + n + k)
    mix = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    f = GridSymbol(n, 32, box, gaussian_values(n, 32, box, 1.2)[..., :1, :1] * mix)
    g = GridSymbol(n, 32, box, gaussian_values(n, 32, box, 0.9, shift=0.4)[..., :1, :1] * mix.T)
    J = DeformationMatrix.symplectic(theta, 2) if n == 2 else DeformationMatrix.zero(1)
    fhat, ghat = series_coefficients(f), series_coefficients(g)
    x = [f.axis[17]] * n  # near the centre, where the product is of order one
    assert_streamed_matches_whole(
        monkeypatch, lambda: _quadrature_point_lattice(fhat, ghat, n, box, J, x), n, k)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_streamed_pair_integral_matches_whole_mesh(monkeypatch, n, k):
    rng = np.random.default_rng(80 + n + k)
    fq, gq = rng.uniform(-0.5, 0.5, size=(2, 3, n))
    fc, gc = rng.normal(size=(2, 3, k, k)) + 1j * rng.normal(size=(2, 3, k, k))
    assert_streamed_matches_whole(
        monkeypatch, lambda: oscillatory_pair_integral(fq, fc, gq, gc), n, k)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_gcheck_blocks_are_the_whole_mesh_rows(n, k):
    rng = np.random.default_rng(90 + n + k)
    shape, order = (OSC_Q,) * n + (k, k), n // 2 + 1
    fields = {sigma_g: rng.normal(size=shape) + 1j * rng.normal(size=shape)
              for sigma_g, _ in _weight_groups(n, order)}  # a random field per order

    def g_derivative(sigma_g):  # a fresh array, which _gcheck_rows weights in place
        return fields[sigma_g].copy()

    whole = whole_mesh_gcheck(n, order, g_derivative, k)
    covered = 0
    for rows, block in _gcheck_rows(n, order, g_derivative, k):
        assert block.tobytes() == whole[rows].tobytes()
        covered += len(block)
    assert covered == OSC_PAD * OSC_Q


@pytest.mark.parametrize("n", [1, 2])
def test_half_mesh_weights_unfold_to_the_whole_mesh_bitwise(n):
    # W(..., -v_i, ...) = (-1)^sigma_i W holds exactly, and a zero keeps its sign: the
    # (1, 1) weight vanishes on both axes of the mesh, where v_0 or v_1 is 0
    order = n // 2 + 1
    half, whole = _weight_groups(n, order), whole_mesh_weight_groups(n, order)
    assert [sigma_g for sigma_g, _ in half] == [sigma_g for sigma_g, _ in whole]
    assert all(w.shape == (OSC_Q // 2 + 1,) * n for _, w in half)
    out = np.empty((OSC_Q,) * n)
    for (sigma_g, w), (_, want) in zip(half, whole):
        assert _unfold_weight(w, sigma_g, out).tobytes() == want.tobytes(), sigma_g
    # W_N, even in each u_i, is held on the outer indices 0..Q per axis (u <= 0), and each
    # block gathers its rows and columns through _FOLD
    wn = deformation._outer_weight(n, order)
    assert wn.shape == (OSC_Q + 1,) * n
    whole = wn[np.ix_(*[deformation._FOLD] * n)]
    assert whole.tobytes() == whole_mesh_outer_weight(n, order).tobytes()


def _clear_oracle_caches():
    for cached in vars(deformation).values():
        if hasattr(cached, "cache_clear") and cached is not deformation._chirp_spectrum:
            cached.cache_clear()


def _cold_point_256():
    """A point of a 256 x 256 product at theta = 0.25, and the run that makes it cold: its
    chirp spectra and FFT plans are made, and every other cache of deformation is cleared."""
    f = GridSymbol(2, 256, L, gaussian_values(2, 256, L, 1.2))
    g = GridSymbol(2, 256, L, gaussian_values(2, 256, L, 0.9) * (1 + 0.5j))
    fhat, ghat = series_coefficients(f), series_coefficients(g)
    J = DeformationMatrix.symplectic(0.25, 2)
    x = [float(f.axis[i]) for i in _check_points(256, 5, 2)[0]]
    _quadrature_point_lattice(fhat, ghat, 2, L, J, x)

    def run():
        _clear_oracle_caches()
        _quadrature_point_lattice(fhat, ghat, 2, L, J, x)
    return f, g, J, run


def _traced(run) -> tuple:
    """(held after, peak) of run, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_first_oracle_point_builds_small_weight_tables():
    # the first point of a product builds the one cached table, W_N on the outer indices
    # 0..256 per axis (257^2 values, 0.5 MiB), and keeps nothing else: the 13 Psi weights
    # are made per point.  With the Psi weights cached and W_N on the rows 0..256 it kept
    # 2.65 MiB
    held, _ = _traced(_cold_point_256()[3])
    assert deformation._outer_weight(2, 2).nbytes == 257 ** 2 * 8
    assert held <= 257 ** 2 * 8 + 2 ** 16


def test_cold_oracle_point_peaks_within_8_mib():
    # one cold N = 256, theta = 0.25 point holds one phase's arrays at a time: the Psi sum
    # (its weights, Psi's padded buffer, one derivative field) or the pairing (that buffer,
    # the f side's first pass, W_N and one block).  It peaks at 6.8 MiB; with the Psi
    # weights cached, the f side made before the Psi sum and Psi copied into its buffer,
    # at 9.2 MiB
    _, peak = _traced(_cold_point_256()[3])
    assert peak <= 8 * 2 ** 20


def test_grid_product_peaks_at_one_check_point():
    # the check points run first and keep k x k values, then the lattice route runs: the
    # product's peak is the two series (2 MiB) and the first point's own, which builds
    # W_N (6.8 MiB, 9.0 in all).  With the lattice route first, its working set stacked on
    # the Psi weights, then cached, and the series: 12.2 MiB
    f, g, J, cold_point = _cold_point_256()
    deformed_product_numeric(f, g, J)  # the lattice route's FFT plans
    _, point = _traced(cold_point)

    def product():
        _clear_oracle_caches()
        deformed_product_numeric(f, g, J)

    _, peak = _traced(product)
    assert peak <= 2 * 2 ** 20 + point + 2 ** 18


def test_oracle_point_never_holds_the_outer_mesh_whole(monkeypatch):
    # one warm oracle point at N = 64, theta = 0.25: about 4 MiB streamed, 10 MiB whole
    f = GridSymbol(2, 64, L, gaussian_values(2, 64, L, 1.2))
    g = GridSymbol(2, 64, L, gaussian_values(2, 64, L, 0.9) * (1 + 0.5j))
    fhat, ghat = series_coefficients(f), series_coefficients(g)
    J = DeformationMatrix.symplectic(0.25, 2)
    x = [f.axis[32]] * 2

    def warm_peak():
        _quadrature_point_lattice(fhat, ghat, 2, L, J, x)  # fills the caches
        tracemalloc.start()
        try:
            _quadrature_point_lattice(fhat, ghat, 2, L, J, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = warm_peak()
    monkeypatch.setattr(deformation, "_regularized_quadrature", whole_mesh_quadrature)
    whole = warm_peak()
    assert streamed <= 0.6 * whole



# ---------------------------------------------------------------------------
# Chirp-z lattice evaluation


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("N,count", [(64, 1), (64, 256), (256, 512), (37, 101), (100, 7)])
def test_czt_axis_matches_direct_sums(N, count, axis):
    # sum_m C[m] exp(2 pi i scale (m/2L) y_j), y_j = start + j step, summed
    # term by term; the start is off the origin so the pre-phase counts.
    scale, start, step = 0.75, -3.3, 0.047
    coeffs = RNG.normal(size=(N, 3)) + 1j * RNG.normal(size=(N, 3))
    m = np.arange(N) - N // 2
    y = start + step * np.arange(count)
    direct = np.exp(2j * np.pi * scale * np.outer(y, m) / (2.0 * L)) @ coeffs
    if axis == 1:
        coeffs, direct = coeffs.T, direct.T
    got = _czt_axis(coeffs, axis, L, scale, start, step, count)
    assert got.shape == direct.shape
    assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fast_len_is_the_smallest_5_smooth_length():
    smooth = [m for m in range(1, 4097) if _is_5_smooth(m)]
    for n in range(1, 4097):
        assert _fast_len(n) == next(m for m in smooth if m >= n)


# ---------------------------------------------------------------------------
# Twisted lattice action: the grouped FFT kernel against the term loop


def term_loop_action(sym, N, adjoint=False):
    """Oracle: the twisted translation sum, one rolled term at a time.

    values -> field g + IDFT(sum_t roll((c_t ghat) r_t, m_t)) / N^n with
    r_t = exp(2 pi i p.w_t) formed per term from its 1-D ramps.  The
    adjoint loops over the terms (-m_t, conj(r_t) rolled by m_t, c_t^H)
    and takes the pointwise adjoint of the zero-shift field.
    """
    n, k = sym.n, sym.k
    axes = tuple(range(n))
    half = N // 2
    lattice = (np.arange(N) - half) / (2.0 * sym.L)
    m, w, c = sym.terms["m"], sym.terms["w"], sym.terms["c"]
    zero = ~w.any(axis=1)
    zero_w = np.zeros((N,) * n + (k, k), dtype=np.complex128)
    np.add.at(zero_w, tuple(((m[zero] + half) % N).T), c[zero])
    field = centered_idft(zero_w, axes)
    m, w, c = m[~zero], w[~zero], c[~zero]
    ramps = np.exp(2j * np.pi * lattice * w[:, :, None])  # (terms, n, N)
    if adjoint:
        field = np.conj(np.swapaxes(field, -1, -2))
        ramps = np.take_along_axis(np.conj(ramps), (np.arange(N) - m[:, :, None]) % N, axis=-1)
        m, c = -m, np.conj(np.swapaxes(c, -1, -2))

    def apply(values):
        ghat = centered_dft(values, axes)
        acc = np.zeros_like(ghat)
        for shift, ramp, coeff in zip(m.tolist(), ramps, c):
            phase = reduce(np.multiply.outer, ramp)[..., None, None]
            acc += np.roll(np.einsum("ab,...bc->...ac", coeff, ghat) * phase, shift, axis=axes)
        out = np.einsum("...ab,...bc->...ac", field, values)
        return out + centered_idft(acc, axes) / float(N) ** n

    return apply


def gaussian_lift(N, k, rng):
    # tilde_map of a 2-D Gaussian grid: about one group per m_1 in [-N/2, N/2)
    mix = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    values = gaussian_values(2, N, L, 1.2)[..., :1, :1] * mix
    return tilde_map(GridSymbol(2, N, L, values), J_HALF)


def off_grid_symbol(n, k, rng):
    # repeated m at different w (one group when w_0 and m_1 agree, so the
    # kernel scatter-adds into one slot), shifts that wrap, and w = 0 terms
    terms = []
    for _ in range(6):
        m = tuple(int(v) for v in rng.integers(-8, 9, size=n))
        w0 = float(rng.choice([-0.4, 0.25]))
        for w_rest in rng.uniform(-1.0, 1.0, size=(2, n - 1)):
            c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            terms.append((m, (w0,) + tuple(w_rest), c))
        terms.append((m, tuple(rng.uniform(-1.0, 1.0, size=n)), rng.normal(size=(k, k))))
    for m in ((0,) * n, (3,) + (-2,) * (n - 1)):
        terms.append((m, (0.0,) * n, rng.normal(size=(k, k)) + 0.5j))
    return PlaneWavePhaseSymbol(n, L, k, tuple(terms))


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("family, n, k, N, seed", [
    pytest.param("gaussian", 2, 1, 32, 1, id="gaussian-n2-k1"),
    pytest.param("gaussian", 2, 2, 32, 2, id="gaussian-n2-k2"),
    pytest.param("off-grid", 1, 1, 16, 3, id="off-grid-n1-k1"),
    pytest.param("off-grid", 1, 2, 16, 4, id="off-grid-n1-k2"),
    pytest.param("off-grid", 2, 1, 16, 5, id="off-grid-n2-k1"),
    pytest.param("off-grid", 2, 2, 16, 6, id="off-grid-n2-k2"),
])
def test_lattice_action_matches_term_loop(family, n, k, N, seed, adjoint):
    rng = np.random.default_rng(seed)
    sym = gaussian_lift(N, k, rng) if family == "gaussian" else off_grid_symbol(n, k, rng)
    if family == "gaussian":
        # more groups than one chunk holds, and shifts up to N/2 that wrap
        groups = len(np.unique(sym.terms["m"][:, 1]))
        assert groups > _CHUNK_POINTS // (N ** n * k * k)
        assert np.abs(sym.terms["m"]).max() >= N // 2 - 1
    shape = (N,) * n + (k, k)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = term_loop_action(sym, N, adjoint)(values)
    plan = _LatticePlan(sym, N)
    apply = plan.adjoint if adjoint else plan.forward
    # the first application streams the kernel spectra, the second keeps them and the
    # third reuses them: the same bits each time, and the input is left as it was
    before = values.copy()
    first = apply(values)
    assert all(apply(values).tobytes() == first.tobytes() for _ in range(2))
    assert np.array_equal(values, before)
    assert np.abs(first - expected).max() <= 1e-12 * np.abs(expected).max()


def chunk_rows(monkeypatch, n, k, N):
    """Patch _CHUNK_POINTS below one group's N^n k^2 values: plans made now sum in runs of
    three axis-1 rows of one group (n = 2), or of one group's one row (n = 1)."""
    monkeypatch.setattr(deformation, "_CHUNK_POINTS", 3 * N * k * k if n == 2 else N * k * k - 1)


def row_chunks(plan, n):
    """The chunks chunk_rows gives: each group, in runs of three rows (all S = 1 for n = 1)."""
    S, run = len(plan.s), 3 if n == 2 else 1
    return [(slice(g, g + 1), slice(r, min(r + run, S)))
            for g in range(plan.G) for r in range(0, S, run)]


@pytest.mark.parametrize("family, n, k, N, seed", [
    pytest.param("gaussian", 2, 1, 32, 1, id="gaussian-n2-k1"),
    pytest.param("gaussian", 2, 2, 32, 2, id="gaussian-n2-k2"),
    pytest.param("off-grid", 1, 1, 16, 3, id="off-grid-n1-k1"),
    pytest.param("off-grid", 1, 2, 16, 4, id="off-grid-n1-k2"),
    pytest.param("off-grid", 2, 1, 16, 5, id="off-grid-n2-k1"),
    pytest.param("off-grid", 2, 2, 16, 6, id="off-grid-n2-k2"),
])
def test_row_chunks_reproduce_the_group_path(monkeypatch, family, n, k, N, seed):
    # a chunk of axis-1 rows adds each (row, point) the same groups in the same order as
    # the group path with one group per chunk, so the bits are its bits, in both
    # directions, streamed, kept and reused.  The unpatched plan sums several groups per
    # chunk in one einsum, another association, and differs from both in the last bits
    rng = np.random.default_rng(seed)
    sym = gaussian_lift(N, k, rng) if family == "gaussian" else off_grid_symbol(n, k, rng)
    shape = (N,) * n + (k, k)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def outputs(plan):
        return [apply(values).tobytes() for _ in range(3) for apply in (plan.forward, plan.adjoint)]

    with monkeypatch.context() as patch:  # the group path, one group per chunk
        patch.setattr(deformation, "_CHUNK_POINTS", N ** n * k * k)
        want = outputs(_LatticePlan(sym, N))
    chunk_rows(monkeypatch, n, k, N)
    plan = _LatticePlan(sym, N)
    assert plan.chunks == row_chunks(plan, n)
    got = outputs(plan)
    assert got == want and all(isinstance(kept, list) for kept in plan.kept)
    for adjoint in (False, True):
        expected = term_loop_action(sym, N, adjoint)(values)
        out = np.frombuffer(got[adjoint], dtype=np.complex128).reshape(shape)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n, k", [(1, 2), (2, 1), (2, 2)])
def test_row_chunked_batch_keeps_the_group_bits_when_a_member_leaves(monkeypatch, n, k):
    # the phase_norms path: a batch of three, applied three times each way, then keep()
    # drops the middle member and the kept spectra serve the other two
    rng = np.random.default_rng(70 + 10 * n + k)
    syms = [off_grid_symbol(n, k, rng) for _ in range(3)]
    shape = (3,) + (16,) * n + (k, k)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rows = np.array([True, False, True])

    def outputs(plan):
        got = [apply(values).tobytes() for _ in range(3) for apply in (plan.forward, plan.adjoint)]
        plan.keep(rows)
        return got + [apply(values[rows]).tobytes() for _ in range(2)
                      for apply in (plan.forward, plan.adjoint)]

    with monkeypatch.context() as patch:
        patch.setattr(deformation, "_CHUNK_POINTS", 16 ** n * k * k)
        want = outputs(_LatticePlan(syms, 16))
    chunk_rows(monkeypatch, n, k, 16)
    plan = _LatticePlan(syms, 16)
    assert plan.chunks == row_chunks(plan, n)
    assert outputs(plan) == want
    assert all(isinstance(kept, list) for kept in plan.kept)


def counted_spectra(monkeypatch):
    calls = []
    build = _LatticePlan._spectrum

    def spectrum(plan, adjoint, g, rows):
        calls.append(adjoint)
        return build(plan, adjoint, g, rows)

    monkeypatch.setattr(_LatticePlan, "_spectrum", spectrum)
    return calls


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_plan_keeps_its_kernel_spectra_from_the_second_application(monkeypatch, adjoint):
    rng = np.random.default_rng(7)
    plan = _LatticePlan(gaussian_lift(32, 2, rng), 32)
    chunks = len(plan.chunks)
    assert chunks > 1
    calls = counted_spectra(monkeypatch)
    values = rng.normal(size=(32, 32, 2, 2)) + 0j
    built = []
    for _ in range(4):
        (plan.adjoint if adjoint else plan.forward)(values)
        built.append(len(calls))
    # streamed once, built once more to keep, then reused; the other side untouched
    assert built == [chunks, 2 * chunks, 2 * chunks, 2 * chunks]
    assert set(calls) == {adjoint} and plan.kept[not adjoint] is None


def test_plan_past_its_budget_streams_the_same_bits(monkeypatch):
    rng = np.random.default_rng(8)
    sym = gaussian_lift(32, 2, rng)
    values = rng.normal(size=(32, 32, 2, 2)) + 1j * rng.normal(size=(32, 32, 2, 2))
    kept = _LatticePlan(sym, 32)
    want = [[f(values).tobytes() for _ in range(3)] for f in (kept.forward, kept.adjoint)]
    # a budget below one chunk: every application builds its kernel spectra anew
    monkeypatch.setattr(deformation, "_KEPT_BYTES", 16 * 2 * 2 * 32 * 32 - 1)
    calls = counted_spectra(monkeypatch)
    streamed = _LatticePlan(sym, 32)
    got = [[f(values).tobytes() for _ in range(3)] for f in (streamed.forward, streamed.adjoint)]
    assert got == want
    assert streamed.kept == [False, False] and len(calls) == 6 * len(streamed.chunks)


def test_plan_shared_by_threads_gives_the_same_bits(monkeypatch):
    # four threads on two cores apply one fresh plan while it streams, keeps and
    # reuses its kernel spectra and makes the adjoint's field; each call has its own
    # buffers.  The plans sum in groups, then (chunk_rows) in runs of axis-1 rows
    rng = np.random.default_rng(10)
    sym = off_grid_symbol(2, 2, rng)
    values = rng.normal(size=(16, 16, 2, 2)) + 1j * rng.normal(size=(16, 16, 2, 2))
    interval = sys.getswitchinterval()
    for rows in (False, True):
        if rows:
            chunk_rows(monkeypatch, 2, 2, 16)
        serial = _LatticePlan(sym, 16)
        want = [serial.forward(values).tobytes(), serial.adjoint(values).tobytes()]
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                plan = _LatticePlan(sym, 16)
                with ThreadPoolExecutor(4) as pool:
                    runs = [pool.submit(lambda: [plan.forward(values).tobytes(),
                                                 plan.adjoint(values).tobytes()])
                            for _ in range(12)]
                    got = [run.result(timeout=60) for run in runs]
                assert all(g == want for g in got)
        finally:
            sys.setswitchinterval(interval)
        assert len(plan.chunks) > plan.G if rows else len(plan.chunks) == 1


def test_op_from_phase_terms_groups_its_terms_once(monkeypatch):
    rng = np.random.default_rng(9)
    sym = off_grid_symbol(2, 2, rng)
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    op = op_from_phase_terms(sym, 16)
    values = rng.normal(size=(16, 16, 2, 2)) + 0j
    op.adjoint_fn(op.forward(values))
    op.adjoint_fn(op.forward(values))
    assert len(calls) == 1


@pytest.mark.parametrize("N, mib", [(128, 4), (256, 6)])
def test_lattice_product_holds_no_kernel_spectra(N, mib):
    # product applies its plan once, so its kernel spectra stream, and at N = 256 a chunk
    # is 64 axis-1 rows of one group: the pairs peak at 2.6 and 5.4 MiB, and the 39 groups'
    # spectra are 9.75 and 39 MiB.  With whole-group chunks and the zero-shift field's
    # product held through the sum, N = 256 peaked at 9.5 MiB, and with an axis-1 ramp row
    # per term, not per shift, at 13.7 MiB
    f = GridSymbol(2, N, L, gaussian_values(2, N, L, 1.2))
    g = GridSymbol(2, N, L, gaussian_values(2, N, L, 0.9) * (1 + 0.5j))
    J = DeformationMatrix.symplectic(0.25, 2)
    _twisted_lattice_product(f, g, J)
    tracemalloc.start()
    try:
        _twisted_lattice_product(f, g, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2 ** 20


def test_lattice_plan_holds_one_ramp_row_per_shift():
    # the 1136 shifted terms of the 256 x 256 Gaussian at theta = 0.25 share 39 axis-1
    # shifts w_1; each term's row is its own ramp exp(2 pi i p w_1) bit for bit
    f = GridSymbol(2, 256, L, gaussian_values(2, 256, L, 1.2))
    sym = tilde_map(significant_terms(f), DeformationMatrix.symplectic(0.25, 2))
    plan = _LatticePlan(sym, 256)
    w1 = sym.terms["w"][sym.terms["w"].any(axis=1), 1]
    assert plan.r1.shape == (len(np.unique(w1)), 256) == (39, 256)
    assert len(plan.row) == len(w1) == 1136
    lattice = (np.arange(256) - 128) / (2.0 * L)
    assert plan.r1[plan.row].tobytes() == np.exp(2j * np.pi * w1[:, None] * lattice).tobytes()


@pytest.mark.parametrize("n, k, members", [(1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 2, 3)])
def test_plan_returns_c_contiguous_values_with_the_same_bits(monkeypatch, n, k, members):
    # the sums' (k, k, member, s, point) array used to be handed out as a transposed
    # view, which made every caller copy it; the copy keeps the bits
    rng = np.random.default_rng(60 + 10 * n + k + members)
    syms = [off_grid_symbol(n, k, rng) for _ in range(members)]
    if members == 1:
        syms += [PlaneWavePhaseSymbol(n, L, k, (((1,) * n, (0.0,) * n, np.eye(k)),))]
    shape = ((members,) if members > 1 else ()) + (16,) * n + (k, k)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def outputs():
        plans = [_LatticePlan(syms, 16)] if members > 1 else [_LatticePlan(s, 16) for s in syms]
        return [apply(values) for plan in plans for apply in (plan.forward, plan.adjoint)]

    def view(acc, values, field=None):  # the former return: acc += field, then a view
        if field is not None:
            acc += field
        return acc.transpose(2, 4, 3, 0, 1).reshape(np.shape(values))

    got = outputs()
    monkeypatch.setattr(_LatticePlan, "_points_first", staticmethod(view))
    views = outputs()
    assert all(out.flags.c_contiguous for out in got)
    assert not all(view.flags.c_contiguous for view in views)
    assert [out.tobytes() for out in got] == [np.ascontiguousarray(v).tobytes() for v in views]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kfirst_product_matches_klast_einsum_bitwise(k):
    # the zero-shift field and the J = 0 product run k-first and must give
    # the bits of the k-last einsum
    rng = np.random.default_rng(40 + k)
    shape = (32, 32, k, k)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = _kfirst_product(_k_first(a), _k_first(b)).transpose(2, 0, 1).reshape(shape)
    want = np.einsum("...ab,...bc->...ac", a, b)
    assert got.tobytes() == want.tobytes()

