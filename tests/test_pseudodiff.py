"""Discretized operators: twisted translations, norms, adjoints."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deformkit.deformation import _CHUNK_POINTS, deformed_product_exact
from deformkit.errors import GridMismatchError
from deformkit.pseudodiff import (
    adjoint,
    cv_functional,
    fourier_operator,
    multiplication_operator,
    multiplier_operator,
    op_from_phase_terms,
    operator_norm,
    rieffel_operator,
    right_multiply,
)
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    inner_product,
    norm_L2,
)
from deformkit.verify_cli import (
    band_limited_vector,
    cv_fit,
    gaussian_values,
    random_phase_symbol,
    random_plane_wave,
)

RNG = np.random.default_rng(14142)
L = 6.0


def dense_matrix(op):
    """Materialize a k=1 operator as a dense matrix for oracle norms."""
    n, N, _, k = op.geometry_in
    dim = N ** n * k * k
    cols = []
    for i in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[i] = 1.0
        cols.append(op.forward(e.reshape((N,) * n + (k, k))).reshape(-1))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Twisted translation action


def test_plane_wave_action_translates_argument():
    # L_{e_p} g(x) = exp(2 pi i p.x) g(x + Jp) on band-limited g.
    J = DeformationMatrix.symplectic(0.5, 2)
    N = 32
    p = (1, -2)
    op = rieffel_operator(PlaneWaveSymbol(2, L, 1, ((p, 1.0),)), J, N=N)
    g = PlaneWaveSymbol(2, L, 1, (((2, 1), 1.0),))
    pts = ModuleVector(2, N, L, np.zeros((N, N))).points()
    pvec = np.asarray(p, float) / (2 * L)
    shift = J.entries @ pvec
    out = op.forward(g.evaluate(pts))
    expected = (
        np.exp(2j * np.pi * (pts @ pvec)) * g.evaluate(pts + shift)[..., 0, 0]
    )[..., None, None]
    assert np.abs(out - expected).max() <= 1e-10


def test_composition_matches_deformed_product():
    J = DeformationMatrix.symplectic(0.25, 2)
    N = 32
    f = random_plane_wave(RNG, 2, L, 1, 2, 3)
    g = random_plane_wave(RNG, 2, L, 1, 2, 3)
    Lf = rieffel_operator(f, J, N=N)
    Lg = rieffel_operator(g, J, N=N)
    Lfg = rieffel_operator(deformed_product_exact(f, g, J), J, N=N)
    h = band_limited_vector(RNG, 2, N, L, 3)
    lhs = Lf.forward(Lg.forward(h.values))
    rhs = Lfg.forward(h.values)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_operator_is_linear():
    op = rieffel_operator(
        random_plane_wave(RNG, 1, 4.0, 1, 2, 3), DeformationMatrix.zero(1), N=32
    )
    g1 = band_limited_vector(RNG, 1, 32, 4.0, 3)
    g2 = band_limited_vector(RNG, 1, 32, 4.0, 3)
    lhs = op.forward(2.0 * g1.values - 1j * g2.values)
    rhs = 2.0 * op.forward(g1.values) - 1j * op.forward(g2.values)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_op_apply_returns_module_vector():
    op = rieffel_operator(
        random_plane_wave(RNG, 1, 4.0, 1, 2, 2), DeformationMatrix.zero(1), N=32
    )
    g = band_limited_vector(RNG, 1, 32, 4.0, 2)
    out = op(g)
    assert isinstance(out, ModuleVector)
    assert out.geometry() == g.geometry()


def test_composition_rejects_geometry_mismatch():
    a = rieffel_operator(
        random_plane_wave(RNG, 1, 4.0, 1, 1, 2), DeformationMatrix.zero(1), N=32
    )
    b = rieffel_operator(
        random_plane_wave(RNG, 1, 4.0, 1, 1, 2), DeformationMatrix.zero(1), N=64
    )
    with pytest.raises(GridMismatchError):
        a @ b


def test_right_multiply_commutes_with_left_action():
    # The deformed left action is a module map: L_f (g.c) = (L_f g).c.
    op = rieffel_operator(
        random_plane_wave(RNG, 1, 4.0, 2, 2, 3), DeformationMatrix.zero(1), N=32
    )
    g = band_limited_vector(RNG, 1, 32, 4.0, 2, 2)
    c = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    lhs = op(right_multiply(g, c))
    rhs = right_multiply(op(g), c)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# Adjoints


def off_grid_phase_symbol(n, k, zero_shift, rng):
    """Three lattice terms with off-grid translations, plus one w = 0 term."""
    terms = []
    for _ in range(3):
        m = tuple(int(v) for v in rng.integers(-2, 3, size=n))
        c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        terms.append((m, tuple(rng.uniform(-1.0, 1.0, size=n)), c))
    if zero_shift:
        terms.append(((1,) * n, (0.0,) * n, rng.normal(size=(k, k)) + 0.5j))
    return PlaneWavePhaseSymbol(n, L, k, tuple(terms))


@pytest.mark.parametrize("family, n, k, zero_shift, seed", [
    pytest.param("rieffel", 2, 1, False, None, id="rieffel-n2-k1"),
    pytest.param("phase", 1, 1, False, 1, id="n1-k1"),
    pytest.param("phase", 1, 2, False, 2, id="n1-k2"),
    pytest.param("phase", 2, 1, False, 3, id="n2-k1"),
    pytest.param("phase", 2, 2, False, 4, id="n2-k2"),
    pytest.param("phase", 1, 2, True, 5, id="n1-k2-zero-shift"),
    pytest.param("phase", 2, 2, True, 6, id="n2-k2-zero-shift"),
    pytest.param("gaussian", 2, 1, True, 11, id="rieffel-gaussian32"),
])
def test_adjoint_pairing(family, n, k, zero_shift, seed):
    N = 32 if family == "gaussian" else 16
    rng = RNG if seed is None else np.random.default_rng(seed)
    if family == "rieffel":
        J = DeformationMatrix.symplectic(0.3, 2)
        op = rieffel_operator(random_plane_wave(RNG, 2, L, 1, 2, 3), J, N=16)
    elif family == "gaussian":
        # 32 term groups, one per m_1: the lattice action runs them in two chunks
        f = GridSymbol(2, N, L, gaussian_values(2, N, L, 1.2))
        op = rieffel_operator(f, DeformationMatrix.symplectic(0.3, 2))
        assert len(np.unique(op.terms.terms["m"][:, 1])) > _CHUNK_POINTS // N ** 2
    else:
        op = op_from_phase_terms(off_grid_phase_symbol(n, k, zero_shift, rng), 16)
    f = band_limited_vector(rng, n, N, L, 2, k)
    g = band_limited_vector(rng, n, N, L, 2, k)
    # the adjoint closure, and adjoint() rebuilt from the lattice terms alone
    for dag in (adjoint(op), adjoint(dataclasses.replace(op, adjoint_fn=None))):
        lhs = inner_product(op(f), g).entries
        rhs = inner_product(f, dag(g)).entries
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_adjoint_of_multiplication_is_star():
    psi = GridSymbol(1, 32, 4.0, gaussian_values(1, 32, 4.0, 1.0) * (1 + 0.5j))
    op = multiplication_operator(psi)
    dag = adjoint(op)
    g = band_limited_vector(RNG, 1, 32, 4.0, 3)
    expected = np.conj(np.swapaxes(psi.values, -1, -2)) @ g.values
    assert np.abs(dag.forward(g.values) - expected).max() <= 1e-12


@pytest.mark.parametrize("kind, n, k, seed", [
    pytest.param("fourier", 1, 1, 7, id="fourier-n1-k1"),
    pytest.param("fourier", 2, 2, 8, id="fourier-n2-k2"),
    pytest.param("fourier-inverse", 1, 2, 9, id="fourier-inverse-n1-k2"),
    pytest.param("fourier-inverse", 2, 1, 10, id="fourier-inverse-n2-k1"),
    pytest.param("multiplier", 1, 2, 11, id="multiplier-n1-k2"),
    pytest.param("multiplier", 2, 1, 12, id="multiplier-n2-k1"),
])
def test_closure_adjoint_pairing(kind, n, k, seed):
    # <A f, g> = <f, A* g> for the operators that carry only an adjoint closure
    rng = np.random.default_rng(seed)
    if kind == "multiplier":
        def phi(*xi):
            return np.exp(1j * xi[0]) / (1.0 + sum(v ** 2 for v in xi))

        op = multiplier_operator(phi, n, 16, 4.0, k)
    else:
        op = fourier_operator(n, 16, 4.0, k, inverse=kind == "fourier-inverse")
    f = band_limited_vector(rng, n, 16, op.geometry_in[2], 2, k)
    g = band_limited_vector(rng, n, 16, op.geometry_out[2], 2, k)
    lhs = inner_product(op(f), g).entries
    rhs = inner_product(f, adjoint(op)(g)).entries
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


# ---------------------------------------------------------------------------
# Norms


def test_operator_norm_matches_dense_svd():
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 3)
    op = rieffel_operator(f, DeformationMatrix.zero(1), N=16)
    dense = dense_matrix(op)
    assert_allclose(operator_norm(op), np.linalg.norm(dense, 2), rtol=1e-6)


def test_operator_norm_of_unitary_modulation():
    f = PlaneWaveSymbol(1, 4.0, 1, (((2,), 1.0),))
    op = rieffel_operator(f, DeformationMatrix.zero(1), N=32)
    assert_allclose(operator_norm(op), 1.0, rtol=1e-7)


def test_multiplication_norm_is_sup():
    psi = GridSymbol(1, 64, 4.0, gaussian_values(1, 64, 4.0, 1.0) * 2.5)
    op = multiplication_operator(psi)
    assert_allclose(operator_norm(op), 2.5, rtol=1e-7)


def test_fourier_operator_is_isometric():
    F = fourier_operator(1, 64, 4.0)
    g = band_limited_vector(RNG, 1, 64, 4.0, 5)
    assert_allclose(norm_L2(F(g)), norm_L2(g), rtol=1e-12)
    Finv = fourier_operator(1, 64, 4.0, inverse=True)
    back = Finv(F(g))
    assert np.abs(back.values - g.values).max() <= 1e-10


def test_multiplier_operator_diagonal_in_frequency():
    # A frequency multiplier acts on each plane wave by its sample.
    N, L1 = 32, 4.0
    phi = multiplier_operator(lambda xi: 1.0 / (1.0 + xi ** 2), 1, N, L1)
    m = 3
    wave_vec = PlaneWaveSymbol(1, L1, 1, (((m,), 1.0),))
    pts = np.stack([((np.arange(N) - N // 2) * (2 * L1 / N))], axis=-1)
    g = ModuleVector(1, N, L1, wave_vec.evaluate(pts))
    out = phi(g)
    xi_m = 2.0 * np.pi * m / (2.0 * L1)
    assert np.abs(out.values - g.values / (1.0 + xi_m ** 2)).max() <= 1e-10


# ---------------------------------------------------------------------------
# Phase-space functionals


def test_cv_functional_includes_derivatives():
    # For exp(i omega x) with omega > 1 the x-derivative dominates.
    L1, box_xi = 4.0, 2.0
    a = PlaneWavePhaseSymbol(1, L1, 1, (((2,), (0.0,), 1.0),))
    x = np.linspace(-L1, L1, 64, endpoint=False)
    xi = np.linspace(-box_xi, box_xi, 8, endpoint=False)
    omega = np.pi * 2 / L1
    assert_allclose(cv_functional(a, x, xi), omega, rtol=1e-6)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_cv_functional_single_term_closed_form(n, k):
    # Every derivative of c exp(i(omega.x + w.xi)) has the norm
    # ||c||_2 prod |omega_j|^beta_j |w_j|^gamma_j at every point.
    rng = np.random.default_rng(10 * n + k)
    L1 = 4.0
    m = (3, -1)[:n]
    w = (0.5, -1.7)[:n]
    c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    a = PlaneWavePhaseSymbol(n, L1, k, ((m, w, c),))
    omega = np.pi * np.asarray(m) / L1
    freqs = np.abs(np.concatenate([omega, w]))
    largest = max(np.prod(freqs ** np.asarray(alpha))
                  for alpha in np.ndindex(*((2,) * (2 * n))))
    x = np.linspace(-L1, L1, 8, endpoint=False)
    xi = np.linspace(-3.0, 3.0, 8, endpoint=False)
    expected = np.linalg.norm(c, 2) * largest
    assert_allclose(cv_functional(a, x, xi), expected, rtol=1e-12)


def test_norm_bounded_by_cv_functional_times_constant():
    # ||Op(a)|| stays within a grid-independent multiple of pi(a).
    w_choices = np.arange(-3, 4) * np.pi / 4.0
    family = [random_phase_symbol(RNG, 4.0, 2, 3, w_choices) for _ in range(5)]
    assert cv_fit(family, 4.0, 4.0, 64) <= 10.0


def test_op_from_phase_terms_reduces_to_multiplication():
    # A xi-independent phase symbol acts by pointwise multiplication.
    sym = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.0,), 0.8),))
    op = op_from_phase_terms(sym, 32)
    g = band_limited_vector(RNG, 1, 32, 4.0, 3)
    pts = g.points()
    factor = sym.evaluate(pts[..., 0], np.zeros_like(pts[..., 0]))
    expected = factor @ g.values
    assert np.abs(op.forward(g.values) - expected).max() <= 1e-10
