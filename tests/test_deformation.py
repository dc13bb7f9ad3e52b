"""Deformed product: plane-wave law, grid route, phase-space calculus."""

from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deformkit.deformation import (
    _CHUNK_POINTS,
    OscIntegralConfig,
    _czt_axis,
    _lattice_action,
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
    oscillatory_pair_integral,
    symbol_compose,
    symbol_dagger,
    tilde_map,
)
from deformkit.errors import BoxMismatchError, ConvergenceError
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    centered_dft,
    centered_idft,
    symbol_star,
)
from deformkit.verify_cli import gaussian_values, random_plane_wave

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
    cfg = OscIntegralConfig(check_points=0)
    for theta in (0.0, 0.25, 1.0):
        J = DeformationMatrix.symplectic(theta, 2)
        f = random_plane_wave(rng, 2, L, k, 3, f_terms)
        g = random_plane_wave(rng, 2, L, k, 3, g_terms)
        exact = deformed_product_exact(f, g, J).to_grid(N)
        numeric = deformed_product_numeric(f.to_grid(N), g.to_grid(N), J, cfg)
        scale = np.abs(exact.values).max()
        assert np.abs(numeric.values - exact.values).max() <= 1e-12 * scale


def test_numeric_route_reports_disagreement():
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 3.0))
    report = {}
    deformed_product_numeric(f, g, J_HALF, report=report)
    assert report["points_checked"] == 5
    assert report["route_disagreement"] <= 10 * report["tolerance"]


def test_numeric_route_raises_on_tight_tolerance():
    # The quadrature oracle cannot reach 1e-16, so the gate must trip.
    f = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 2.0))
    g = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 3.0))
    with pytest.raises(ConvergenceError):
        deformed_product_numeric(f, g, J_HALF, OscIntegralConfig(tol=1e-16))


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
    cfg = OscIntegralConfig(check_points=0)
    fg = deformed_product_numeric(f, g, J0, cfg)
    gf = deformed_product_numeric(g, f, J0, cfg)
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
    cfg = OscIntegralConfig(check_points=0)
    again = symbol_dagger(symbol_dagger(a, cfg), cfg)
    assert len(again.terms) == len(a.terms)
    for (m, w, c), (m2, w2, c2) in zip(a.terms, again.terms):
        assert np.array_equal(m, m2)
        assert_allclose(w, w2, atol=1e-15)
        assert_allclose(c, c2, atol=1e-12)


def test_dagger_quadrature_gate_passes_on_defaults():
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0 + 0.5j),))
    symbol_dagger(a)


def test_compose_with_constant_is_scaling():
    one = PlaneWavePhaseSymbol.constant(2.0, 1, 4.0)
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0 + 0.5j),))
    cfg = OscIntegralConfig(check_points=0)
    prod = symbol_compose(one, a, cfg)
    ((m, w, c),) = prod.terms
    assert m == (1,)
    assert_allclose(c, [[2.0 + 1.0j]], atol=1e-14)


def test_compose_coefficient_phase():
    # Composition adds frequencies and twists by exp(i w_a . omega_b).
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0),))
    b = PlaneWavePhaseSymbol(1, 4.0, 1, (((2,), (-0.2,), 1.0),))
    cfg = OscIntegralConfig(check_points=0)
    prod = symbol_compose(a, b, cfg)
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
    value = oscillatory_pair_integral([[0.0]], [np.eye(1)], [[0.0]], [np.eye(1)],
                                      OscIntegralConfig())
    assert_allclose(value, [[1.0]], atol=1e-8)


def test_pair_integral_matches_point_evaluation():
    # F constant, G a single wave: the integral collapses to G(0) = c.
    c = 0.7 - 0.2j
    value = oscillatory_pair_integral([[0.0]], [np.eye(1)], [[0.25]], [c * np.eye(1)],
                                      OscIntegralConfig())
    assert_allclose(value, [[c]], atol=1e-6)


def test_regularization_orders_must_exceed_half_dimension():
    with pytest.raises(ValueError):
        OscIntegralConfig(n_reg=0).resolve(1)


def test_fourier_inversion_on_plane_wave():
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 3)
    for x in (-1.0, 0.0, 0.7):
        assert fourier_inversion_check(f, np.array([x])) <= 1e-6


def test_fourier_inversion_on_constant_is_sharper():
    f = PlaneWaveSymbol(1, 4.0, 1, (((0,), 1.0),))
    for x in (-1.0, 0.0, 0.7):
        assert fourier_inversion_check(f, np.array([x])) <= 1e-8


def test_fourier_inversion_on_grid_gaussian():
    g = GridSymbol(1, 64, 6.0, gaussian_values(1, 64, 6.0, 2.0))
    for x in (-1.0, 0.5):
        assert fourier_inversion_check(g, np.array([x])) <= 1e-6


# ---------------------------------------------------------------------------
# Chirp-z lattice evaluation


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("N,count", [(64, 1), (64, 256), (256, 512)])
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
    got = _lattice_action(sym, N, adjoint)(values)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
