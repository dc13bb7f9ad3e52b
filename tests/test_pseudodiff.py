"""Discretized operators: twisted translations, norms, adjoints."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deformkit import deformation
from deformkit.deformation import _CHUNK_POINTS, _LatticePlan, deformed_product_exact, tilde_map
from deformkit.errors import GridMismatchError, NoConvergenceError
from deformkit.heisenberg import adu_conjugate, heisenberg_operator
from deformkit.pseudodiff import (
    DiscretizedOperator,
    adjoint,
    cv_functional,
    fourier_operator,
    op_from_phase_terms,
    operator_norm,
    phase_norms,
    rieffel_operator,
)
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    axis_points,
    inner_product,
    norm_L2,
    sup_norm,
)
from deformkit.suites import (
    band_limited_vector,
    cv_fit,
    gaussian_values,
    random_phase_symbol,
    random_plane_wave,
    sup_op_gap,
)
from oracles import (
    cv_functional_mesh,
    dual_axis_points,
    grid_points,
    multiplication_operator,
    multiplier_operator,
    right_multiply,
)

RNG = np.random.default_rng(14142)
L = 6.0


def dense_matrix(op):
    """Materialize an operator as a dense matrix for oracle norms."""
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
    pts = grid_points(ModuleVector(2, N, L, np.zeros((N, N))))
    pvec = np.asarray(p, float) / (2 * L)
    shift = J.entries @ pvec
    out = op.forward(g.evaluate(pts))
    expected = (
        np.exp(2j * np.pi * (pts @ pvec)) * g.evaluate(pts + shift)[..., 0, 0]
    )[..., None, None]
    assert np.abs(out - expected).max() <= 1e-10


def test_rieffel_operator_needs_n_for_plane_waves():
    f = random_plane_wave(np.random.default_rng(6), 2, L, 1, 2, 3)
    J = DeformationMatrix.symplectic(0.25, 2)
    with pytest.raises(ValueError, match="grid size N"):
        rieffel_operator(f, J)
    assert rieffel_operator(f.to_grid(16), J).geometry_in == (2, 16, L, 1)


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


@pytest.mark.parametrize("theta, self_adjoint", [(9.0, True), (0.25, False)])
def test_real_symbol_is_self_adjoint_only_on_a_commensurate_grid(theta, self_adjoint):
    # a real Gaussian G has G* = G, and L_G = L_G^* when theta N / (4 L^2) is an
    # integer: 1 at N = 16, L = 6, theta = 9; at theta = 0.25 the gap is 7.5% of ||L_G||
    G = GridSymbol(2, 16, L, gaussian_values(2, 16, L, 1.2))
    dense = dense_matrix(rieffel_operator(G, DeformationMatrix.symplectic(theta, 2)))
    defect = np.linalg.norm(dense - dense.conj().T, 2)
    assert (defect <= 1e-12 * np.linalg.norm(dense, 2)) == self_adjoint


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


def test_operators_compare_grids_by_the_box_rule():
    # 0.1 * 3 lies one ulp above 0.3: one box for the operators, as for
    # inner_product and the products, and the values do not read L
    J = DeformationMatrix.symplectic(0.25, 2)
    f_L, g_L = 0.1 * 3, 0.3
    assert f_L != g_L
    op = rieffel_operator(random_plane_wave(RNG, 2, f_L, 2, 2, 3), J, N=16)
    other = rieffel_operator(random_plane_wave(RNG, 2, g_L, 2, 2, 3), J, N=16)
    g = band_limited_vector(RNG, 2, 16, g_L, 2, 2)
    g_own = ModuleVector(2, 16, f_L, g.values)
    assert np.array_equal(op(g).values, op(g_own).values)
    assert np.array_equal((op @ other)(g).values, op(other(g)).values)
    assert np.array_equal((other @ op)(g_own).values, other(op(g_own)).values)
    for vector in (band_limited_vector(RNG, 2, 32, f_L, 2, 2),
                   band_limited_vector(RNG, 1, 16, f_L, 2, 2),
                   band_limited_vector(RNG, 2, 16, f_L, 2, 1)):
        with pytest.raises(GridMismatchError):
            op(vector)
    with pytest.raises(GridMismatchError):
        op @ rieffel_operator(random_plane_wave(RNG, 2, f_L, 2, 2, 3), J, N=32)


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
        sym = tilde_map(f, DeformationMatrix.symplectic(0.3, 2))
        op = op_from_phase_terms(sym, N)
        assert len(np.unique(sym.terms["m"][:, 1])) > _CHUNK_POINTS // N ** 2
    else:
        op = op_from_phase_terms(off_grid_phase_symbol(n, k, zero_shift, rng), 16)
    f = band_limited_vector(rng, n, N, L, 2, k)
    g = band_limited_vector(rng, n, N, L, 2, k)
    lhs = inner_product(op(f), g).entries
    rhs = inner_product(f, adjoint(op)(g)).entries
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
    pytest.param("multiplication", 1, 2, 13, id="multiplication-n1-k2"),
    pytest.param("multiplication", 2, 2, 14, id="multiplication-n2-k2"),
    pytest.param("adu", 1, 2, 15, id="adu-n1-k2"),
    pytest.param("adu", 2, 1, 16, id="adu-n2-k1"),
    pytest.param("compose", 1, 2, 17, id="compose-n1-k2"),
    pytest.param("compose", 2, 1, 18, id="compose-n2-k1"),
    pytest.param("heisenberg", 2, 2, 19, id="heisenberg-n2-k2"),
])
def test_closure_adjoint_pairing(kind, n, k, seed):
    # <A f, g> = <f, A* g> for the adjoint closure of every operator constructor
    rng = np.random.default_rng(seed)

    def multiplication():
        values = rng.normal(size=(16,) * n + (k, k)) + 1j * rng.normal(size=(16,) * n + (k, k))
        return multiplication_operator(GridSymbol(n, 16, L, values))

    if kind == "multiplier":
        def phi(*xi):
            return np.exp(1j * xi[0]) / (1.0 + sum(v ** 2 for v in xi))

        op = multiplier_operator(phi, n, 16, 4.0, k)
    elif kind == "multiplication":
        op = multiplication()
    elif kind == "adu":
        phase = op_from_phase_terms(off_grid_phase_symbol(n, k, True, rng), 16)
        op = adu_conjugate(phase, (0.37,) * n, (0.25,) * n)
    elif kind == "heisenberg":
        # a off the grid step 2L/16 = 0.75, b off the box characters (pi/L) Z
        op = heisenberg_operator((n, 16, L, k), (0.37, -0.61), (0.25, 0.9), 0.6)
    elif kind == "compose":
        op = op_from_phase_terms(off_grid_phase_symbol(n, k, False, rng), 16) @ multiplication()
    else:
        op = fourier_operator(n, 16, 4.0, k)
        op = adjoint(op) if kind == "fourier-inverse" else op
    f = band_limited_vector(rng, n, 16, op.geometry_in[2], 2, k)
    g = band_limited_vector(rng, n, 16, op.geometry_out[2], 2, k)
    lhs = inner_product(op(f), g).entries
    rhs = inner_product(f, adjoint(op)(g)).entries
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


def test_fourier_conjugated_multiplication_is_multiplier():
    # F^-1 M_phi F with M_phi pointwise on the dual box is the multiplier phi(xi)
    n, N, L1, k = 2, 16, 4.0, 2
    c = np.array([[1.0, 0.5j], [-0.25, 2.0]])

    def phi(*xi):
        return (np.exp(1j * xi[0]) / (1.0 + xi[0] ** 2 + xi[1] ** 2))[..., None, None] * c

    F = fourier_operator(n, N, L1, k)
    # the points of the dual box are the angular frequencies of the box
    xi = dual_axis_points(N, L1)
    dual = GridSymbol(n, N, F.geometry_out[2], phi(*np.meshgrid(xi, xi, indexing="ij")))
    op = adjoint(F) @ multiplication_operator(dual) @ F
    expected = multiplier_operator(phi, n, N, L1, k)
    g = band_limited_vector(RNG, n, N, L1, 3, k)
    assert np.abs(op(g).values - expected(g).values).max() <= 1e-12
    assert np.abs(adjoint(op)(g).values - adjoint(expected)(g).values).max() <= 1e-12


# ---------------------------------------------------------------------------
# Norms


def test_operator_norm_matches_dense_svd():
    f = random_plane_wave(RNG, 1, 4.0, 1, 2, 3)
    op = rieffel_operator(f, DeformationMatrix.zero(1), N=16)
    dense = dense_matrix(op)
    assert_allclose(operator_norm(op), np.linalg.norm(dense, 2), rtol=1e-6)
    # deformed 2-D operators up to dimension 8^2 * 2^2 = 256: the Ritz value
    # meets the dense norm at the default tolerance and never passes it
    for theta, k in ((0.0, 1), (0.25, 1), (0.25, 2), (0.7, 2)):
        f = random_plane_wave(RNG, 2, 6.0, k, 2, 4)
        op = rieffel_operator(f, DeformationMatrix.symplectic(theta, 2), N=8)
        exact = np.linalg.norm(dense_matrix(op), 2)
        estimate = operator_norm(op)
        assert_allclose(estimate, exact, rtol=1e-8)
        assert estimate <= exact * (1.0 + 1e-12)


def test_undeformed_sup_op_gap_is_rounding():
    rng = np.random.default_rng(27182)
    family = [GridSymbol(2, 16, L, band_limited_vector(rng, 2, 16, L, 2, 2).values)
              for _ in range(4)]
    assert sup_op_gap(family) <= 1e-10


def test_sup_op_gap_over_mixed_grids_takes_each_symbols_own_norm():
    # symbols on different grids, boxes and k run in separate lockstep runs
    rng = np.random.default_rng(27183)
    family = [GridSymbol(n, N, box, band_limited_vector(rng, n, N, box, 2, k).values)
              for n, N, box, k in ((2, 16, L, 2), (1, 32, 4.0, 1), (2, 8, L, 2),
                                   (2, 16, 5.0, 2), (1, 32, 4.0, 1))]
    gaps = []
    for f in family:
        sup = sup_norm(f)
        gaps.append(abs(sup - operator_norm(rieffel_operator(f, DeformationMatrix.zero(f.n)))) / sup)
    assert sup_op_gap(family) == max(gaps)


def test_operator_norm_fails_at_once_on_non_finite_values():
    applications = []

    def nan_values(values):
        applications.append(values.shape)
        return np.full_like(values, np.nan)

    geometry = (1, 16, 4.0, 1)
    op = DiscretizedOperator(geometry, geometry, nan_values, nan_values)
    with pytest.raises(NoConvergenceError):
        operator_norm(op)
    assert len(applications) <= 2


# ---------------------------------------------------------------------------
# Lockstep norms


def lockstep_family(rng, n, k, kind):
    """Phase symbols of one box with 1, 2 and 5 terms, then the zero operator.

    kind "fields" has w = 0 only (pointwise fields, no groups), "groups" has
    w != 0 only, and "mixed" both; the members' group counts differ.
    """
    family = []
    for count in (1, 2, 5):
        terms = []
        for t in range(count):
            m = tuple(int(v) for v in rng.integers(-3, 4, size=n))
            shifted = kind == "groups" or (kind == "mixed" and t % 2 == 0)
            w = tuple(rng.uniform(-1.0, 1.0, size=n)) if shifted else (0.0,) * n
            terms.append((m, w, rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))))
        family.append(PlaneWavePhaseSymbol(n, 4.0, k, tuple(terms)))
    return family + [PlaneWavePhaseSymbol(n, 4.0, k, ())]


def solo_steps(sym, N):
    """(norm, Lanczos steps) of the solo run on Op(sym)."""
    op = op_from_phase_terms(sym, N)
    steps = []

    def forward(values):
        steps.append(1)
        return op.forward(values)

    return operator_norm(dataclasses.replace(op, forward=forward)), len(steps)


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", ["fields", "groups", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_lockstep_norms_are_the_solo_bits(n, k, kind):
    rng = np.random.default_rng(100 * n + 10 * k + len(kind))
    # 2-D fields at N = 64 give the longest rows
    N = 32 if n == 1 else 64 if kind == "fields" else 8
    family = lockstep_family(rng, n, k, kind)
    solo = [solo_steps(sym, N) for sym in family]
    assert solo[-1] == (0.0, 1)  # the zero operator stops at step 1
    assert bits(phase_norms(family, N)) == bits([norm for norm, _ in solo])


def test_lockstep_makes_one_batched_application_per_step(monkeypatch):
    rng = np.random.default_rng(31)
    family = lockstep_family(rng, 1, 2, "mixed")
    steps = [solo_steps(sym, 32)[1] for sym in family]
    widths = []
    real = _LatticePlan.forward

    def forward(plan, values):
        widths.append(plan.M)
        return real(plan, values)

    monkeypatch.setattr(_LatticePlan, "forward", forward)
    phase_norms(family, 32)
    # settled members leave the batch: one application per step of the longest run
    assert len(widths) == max(steps) < sum(steps)
    assert widths == [sum(s > j for s in steps) for j in range(max(steps))]


def test_lockstep_groups_each_symbol_once(monkeypatch):
    rng = np.random.default_rng(35)
    family = lockstep_family(rng, 2, 1, "mixed")
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    phase_norms(family, 8)
    # the batcher's grouping is the plan's: one np.unique per symbol
    assert len(calls) == len(family)


def test_non_finite_member_stops_the_lockstep_run_at_once(monkeypatch):
    rng = np.random.default_rng(32)
    family = lockstep_family(rng, 1, 1, "mixed")
    calls = []
    real = _LatticePlan.forward

    def poisoned(plan, values):
        calls.append(plan.M)
        out = real(plan, values)
        out[1] = np.nan
        return out

    monkeypatch.setattr(_LatticePlan, "forward", poisoned)
    with pytest.raises(NoConvergenceError, match="non-finite"):
        phase_norms(family, 32)
    assert calls == [len(family)]


def test_lockstep_past_the_kept_budget_splits_with_the_same_bits(monkeypatch):
    rng = np.random.default_rng(33)
    family = lockstep_family(rng, 2, 2, "groups")[:3] * 2
    want = phase_norms(family, 8)
    groups = [len(np.unique(sym.terms["w"][:, 0] + 1j * sym.terms["m"][:, 1])) for sym in family]
    unit = 16 * 2 * 2 * 8 * 8
    # room for the two largest members side by side, not for the whole batch
    budget = 2 * max(groups) * unit
    monkeypatch.setattr(deformation, "_KEPT_BYTES", budget)
    plans = {}
    real = _LatticePlan.forward

    def forward(plan, values):
        plans.setdefault(plan, plan.kept_bytes)
        return real(plan, values)

    monkeypatch.setattr(_LatticePlan, "forward", forward)
    assert bits(phase_norms(family, 8)) == bits(want)
    # each batch keeps its kernel spectra within the budget, as a whole
    assert 1 < len(plans) < len(family) and max(plans.values()) <= budget
    assert all(isinstance(kept, list) for plan in plans for kept in plan.kept)


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
    back = adjoint(F)(F(g))
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
    xi = np.linspace(-box_xi, box_xi, 8, endpoint=False)
    omega = np.pi * 2 / L1
    assert_allclose(cv_functional(a, 64, xi), omega, rtol=1e-6)


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
    xi = np.linspace(-3.0, 3.0, 8, endpoint=False)
    expected = np.linalg.norm(c, 2) * largest
    assert_allclose(cv_functional(a, 8, xi), expected, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("L1", [4.0, 5.3])
def test_cv_functional_matches_mesh_oracle(n, k, L1):
    # the folded route against the term-by-term mesh on the box grid: frequencies past
    # the grid's band alias into its bins; P = 12 is not a power of two, and L = 5.3
    # is not dyadic
    rng = np.random.default_rng(10 * n + k)
    P = 12
    terms = tuple((tuple(int(v) for v in rng.integers(-15, 16, size=n)),
                   tuple(rng.uniform(-2.0, 2.0, size=n)),
                   rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) for _ in range(7))
    a = PlaneWavePhaseSymbol(n, L1, k, terms)
    xi = np.linspace(-3.0, 3.0, 7)
    assert_allclose(cv_functional(a, P, xi), cv_functional_mesh(a, axis_points(P, L1), xi),
                    rtol=1e-13)


@pytest.mark.parametrize("points", [
    pytest.param(0, id="zero"),
    pytest.param(-3, id="negative"),
    pytest.param(2.5, id="fractional"),
    pytest.param(np.arange(4.0), id="array"),
])
def test_cv_functional_refuses_a_point_count_off_the_positive_integers(points, monkeypatch):
    # refused before any work: the term frequencies are never formed
    a = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0),))
    monkeypatch.setattr(PlaneWavePhaseSymbol, "omega", None)
    with pytest.raises(ValueError, match="positive integer"):
        cv_functional(a, points, np.zeros(1))


def test_norm_bounded_by_cv_functional_times_constant():
    # ||Op(a)|| stays within a grid-independent multiple of pi(a).
    w_choices = np.arange(-3, 4) * np.pi / 4.0
    family = [random_phase_symbol(RNG, 4.0, 2, 3, w_choices) for _ in range(5)]
    assert cv_fit(family, 4.0, 64) <= 10.0


@pytest.mark.parametrize("N", [9, 12, 15])
def test_op_from_phase_terms_rejects_non_power_of_two(N):
    # the grouped lattice kernel folds the axis-0 transforms for even, 2^j grids; the plan
    # alone refuses other grids, so every entry point that builds one does, with its message
    sym = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.3,), 0.8), ((-2,), (0.0,), 0.5),
                                            ((0,), (-0.7,), 0.2j)))
    message = f"points per axis must be a power of two, got {N}"
    for build in (lambda: op_from_phase_terms(sym, N), lambda: phase_norms([sym, sym], N),
                  lambda: _LatticePlan(sym, N)):
        with pytest.raises(ValueError, match=message):
            build()
    assert phase_norms([], N) == []  # no symbol, no plan to refuse


def test_op_from_phase_terms_reduces_to_multiplication():
    # A xi-independent phase symbol acts by pointwise multiplication.
    sym = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.0,), 0.8),))
    op = op_from_phase_terms(sym, 32)
    g = band_limited_vector(RNG, 1, 32, 4.0, 3)
    pts = grid_points(g)
    factor = sym.evaluate(pts[..., 0], np.zeros_like(pts[..., 0]))
    expected = factor @ g.values
    assert np.abs(op.forward(g.values) - expected).max() <= 1e-10
