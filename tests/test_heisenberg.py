"""Group action, derivations, norm hierarchy, Green kernels, symbol map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from deformkit import heisenberg
from deformkit.errors import (
    ConvergenceError, GridMismatchError, OrderTooHighError, UnsupportedOperatorError,
)
from deformkit.heisenberg import (
    KERNEL_U_L2,
    KERNEL_V_L2,
    SYMBOL_DETA,
    SYMBOL_DS,
    SYMBOL_DSIGMA,
    SYMBOL_ETA_FLOOR,
    SYMBOL_S_FLOOR,
    SYMBOL_SIGMA_SPAN,
    _fd_d_value,
    _simpson_axis,
    _simpson_weights,
    adu_conjugate,
    d_apply,
    d_inverse,
    d_inverse_factor,
    delta_symbol,
    differential_norm_T,
    differential_norms,
    gamma1,
    gamma2,
    gamma2_prime,
    heisenberg_operator,
    inverse_cv_bound,
    kernel_identity_residual,
    kernel_u,
    kernel_v,
    rho_m,
    symbol_map_S,
)
from deformkit.pseudodiff import (
    adjoint, fourier_operator, op_from_phase_terms, operator_norm, phase_norms,
)
from deformkit.symbols import (
    ModuleVector, PlaneWavePhaseSymbol, derivative, multi_indices, norm_L2,
)
from deformkit.suites import (
    band_limited_vector,
    gaussian_values,
    norm_axiom_slacks,
    symbol_map_error,
    t0_gap,
)
from oracles import shifted_symbol

RNG = np.random.default_rng(17320)
L = 4.0
N = 64

SYM3 = PlaneWavePhaseSymbol(
    1, L, 1,
    (((1,), (0.6,), 0.8 + 0.1j), ((-1,), (-0.6,), 0.5), ((2,), (0.3,), 0.2j)),
)

SYM3_K2 = PlaneWavePhaseSymbol(
    1, L, 2,
    (((1,), (0.6,), [[0.3 - 0.4j, 0.2], [0.0, 0.5j]]),
     ((-1,), (-0.6,), [[0.5, -0.3j], [0.1, 0.4]]),
     ((2,), (0.3,), [[0.2j, 0.0], [0.3, -0.1 + 0.2j]])),
)

# six distinct shifts w, two of them (0.37, -0.61) off the s grid of symbol_map_S
SYM6W = PlaneWavePhaseSymbol(
    1, L, 1,
    (((1,), (0.6,), 0.8 + 0.1j), ((-1,), (-0.6,), 0.5), ((2,), (0.3,), 0.2j),
     ((0,), (0.37,), -0.4 + 0.3j), ((1,), (-0.61,), 0.6j), ((-2,), (0.0,), 0.3)),
)

SYM6W_K2 = PlaneWavePhaseSymbol(
    1, L, 2,
    (((1,), (0.6,), [[0.3 - 0.4j, 0.2], [0.0, 0.5j]]),
     ((-1,), (-0.6,), [[0.5, -0.3j], [0.1, 0.4]]),
     ((2,), (0.3,), [[0.2j, 0.0], [0.3, -0.1 + 0.2j]]),
     ((0,), (0.37,), [[-0.4, 0.1j], [0.2 + 0.2j, 0.3]]),
     ((1,), (-0.61,), [[0.0, 0.6], [-0.3j, 0.2 - 0.1j]]),
     ((-2,), (0.0,), [[0.3, 0.0], [0.1j, -0.2]])),
)


def narrow_gaussian(freq=0.0):
    return ModuleVector(1, N, L, gaussian_values(1, N, L, 0.5, freq=freq))


def character(j):
    """Modulation frequency that is periodic on the box [-L, L)."""
    return j * np.pi / L


# ---------------------------------------------------------------------------
# Unitary action on the grid


def test_action_respects_group_law_for_characters():
    g = narrow_gaussian(freq=0.9)
    x = heisenberg_operator(g.geometry(), (0.5,), (character(2),), 0.3)
    y = heisenberg_operator(g.geometry(), (-0.75,), (character(-1),), 0.8)
    # the group law (a,b,c)(a',b',c') = (a+a', b+b', c+c'-a.b')
    xy = heisenberg_operator(g.geometry(), (0.5 - 0.75,), (character(2) + character(-1),),
                             0.3 + 0.8 - 0.5 * character(-1))
    via_product = xy(g)
    step_by_step = x(y(g))
    assert np.abs(via_product.values - step_by_step.values).max() <= 1e-12


def test_action_is_unitary():
    g = narrow_gaussian(freq=0.9)
    out = heisenberg_operator(g.geometry(), (0.37,), (character(3),), 1.2)(g)
    assert_allclose(norm_L2(out), norm_L2(g), rtol=1e-12)


def test_central_element_is_scalar_phase():
    g = narrow_gaussian()
    out = heisenberg_operator(g.geometry(), (0.0,), (0.0,), 0.7)(g)
    assert np.abs(out.values - np.exp(0.7j) * g.values).max() <= 1e-15


def test_commensurate_translation_uses_exact_roll():
    g = narrow_gaussian()
    dx = 2.0 * L / N
    out = heisenberg_operator(g.geometry(), (3 * dx,), (0.0,), 0.0)(g)
    assert np.abs(out.values - np.roll(g.values, 3, axis=0)).max() <= 1e-15


def test_incommensurate_translation_matches_continuum():
    # Spectral shift of a narrow Gaussian agrees with re-evaluation.
    a = 0.3137
    g = narrow_gaussian()
    out = heisenberg_operator(g.geometry(), (a,), (0.0,), 0.0)(g)
    assert np.abs(out.values - gaussian_values(1, N, L, 0.5, shift=a)).max() <= 1e-9


# ---------------------------------------------------------------------------
# Conjugation against the shifted symbol


def test_shifted_symbol_phases():
    a, b = 0.4, 0.25
    shifted = shifted_symbol(SYM3, (a,), (b,))
    for (m, w, c), (m2, w2, c2) in zip(SYM3.terms, shifted.terms):
        assert m == m2
        assert_allclose(w, w2)
        omega = np.pi * m[0] / L
        assert_allclose(c2, c * np.exp(-1j * (omega * a + w[0] * b)), atol=1e-15)


def test_conjugation_routes_agree_for_characters():
    op = op_from_phase_terms(SYM3, N)
    a, b = (2.0 * L / N) * 5, character(2)
    conj = adu_conjugate(op, (a,), (b,))
    direct = op_from_phase_terms(shifted_symbol(SYM3, (a,), (b,)), N)
    g = narrow_gaussian(freq=0.9)
    lhs = conj.forward(g.values)
    rhs = direct.forward(g.values)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_conjugation_routes_agree_for_free_shifts():
    op = op_from_phase_terms(SYM3, N)
    a, b = 0.37, 0.83
    conj = adu_conjugate(op, (a,), (b,))
    direct = op_from_phase_terms(shifted_symbol(SYM3, (a,), (b,)), N)
    g = narrow_gaussian(freq=0.9)
    lhs = conj.forward(g.values)
    rhs = direct.forward(g.values)
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_conjugation_preserves_operator_norm():
    op = op_from_phase_terms(SYM3, N)
    conj = adu_conjugate(op, (0.37,), (character(1),))
    assert_allclose(operator_norm(conj), operator_norm(op), rtol=1e-6)


@pytest.mark.parametrize("a, b", [(0.37, 0.0), (0.0, 0.25), (0.37, 0.25)])
def test_adu_fixes_identity(a, b):
    # U 1 U* = 1: AdU conjugates by U* = U^-1, also for b off the box characters
    one = op_from_phase_terms(PlaneWavePhaseSymbol(1, L, 1, (((0,), (0.0,), 1.0),)), 32)
    conj = adu_conjugate(one, (a,), (b,))
    g = band_limited_vector(RNG, 1, 32, L, 3)
    assert np.abs(conj(g).values - g.values).max() <= 1e-13
    assert np.abs(adjoint(conj)(g).values - g.values).max() <= 1e-13


def test_adu_rejects_operators_between_two_boxes():
    with pytest.raises(GridMismatchError):
        adu_conjugate(fourier_operator(1, 32, L), (0.37,), (0.25,))


# ---------------------------------------------------------------------------
# Derivations


def test_delta_symbol_multipliers():
    d = delta_symbol(SYM3, (1, 0))
    for (m, w, c), (m2, w2, c2) in zip(SYM3.terms, d.terms):
        omega = np.pi * m[0] / L
        assert_allclose(c2, -1j * omega * c, atol=1e-15)
    d2 = delta_symbol(SYM3, (0, 2))
    for (m, w, c), (m2, w2, c2) in zip(SYM3.terms, d2.terms):
        assert_allclose(c2, (-1j * w[0]) ** 2 * c, atol=1e-15)


def test_delta_symbol_rejects_wrong_length():
    # and every other index that derivative refuses: negative, past
    # MAX_DERIV_ORDER, fractional, not a number
    for alpha, error in (((1,), ValueError), ((-1, 0), ValueError),
                         ((9, 0), OrderTooHighError), ((1.5, 0), ValueError),
                         (("x", 0), ValueError)):
        with pytest.raises(error):
            delta_symbol(SYM3, alpha)


def test_delta_matches_finite_difference():
    op = op_from_phase_terms(SYM3, N)
    g = narrow_gaussian(freq=0.9).values
    eps = 1e-3

    def conj_apply(a, b):
        return adu_conjugate(op, (a,), (b,)).forward(g)

    coarse = (conj_apply(eps, 0.0) - conj_apply(-eps, 0.0)) / (2 * eps)
    fine = (conj_apply(eps / 2, 0.0) - conj_apply(-eps / 2, 0.0)) / eps
    fd = (4 * fine - coarse) / 3
    exact = op_from_phase_terms(delta_symbol(SYM3, (1, 0)), N).forward(g)
    scale = np.abs(exact).max()
    assert np.abs(fd - exact).max() <= 1e-6 * scale


def test_derivations_commute():
    lhs = delta_symbol(delta_symbol(SYM3, (1, 0)), (0, 1))
    rhs = delta_symbol(SYM3, (1, 1))
    for (m, w, c), (m2, w2, c2) in zip(lhs.terms, rhs.terms):
        assert m == m2
        assert_allclose(c, c2, atol=1e-15)


# ---------------------------------------------------------------------------
# Norm hierarchy


def test_t0_is_operator_norm():
    op = op_from_phase_terms(SYM3, N)
    assert differential_norm_T(SYM3, N, 0) == operator_norm(op)


def test_differential_norms_cumulative():
    rep = differential_norms(SYM3, N, 2)
    assert len(rep.T) == 3 and len(rep.s) == 3
    assert_allclose(rep.s[2], rep.T[0] + rep.T[1] + rep.T[2], rtol=1e-12)
    assert rep.s[0] <= rep.s[1] <= rep.s[2]
    assert rep.op_norm == rep.T[0]


def test_rho_m_is_max_over_orders():
    op = op_from_phase_terms(SYM3, N)
    r0 = rho_m(SYM3, N, 0)
    r2 = rho_m(SYM3, N, 2)
    assert r2 >= r0 - 1e-12
    assert_allclose(r0, operator_norm(op), rtol=1e-9)
    # delta^alpha = (-1)^|alpha| d^alpha, and a sign changes no bit of a norm
    sym2 = PlaneWavePhaseSymbol(2, L, 1, (((1, 0), (0.25, -0.5), 0.7),
                                          ((0, 2), (0.0, 0.375), 0.4j)))
    for sym, grid in ((SYM3, N), (sym2, 16)):
        alphas = multi_indices(2 * sym.n, 2)
        assert rho_m(sym, grid, 2) == max(
            phase_norms([derivative(sym, alpha) for alpha in alphas], grid))


def test_t0_gap_needs_a_grid_reference():
    # a multiplier's operator norm is its grid maximum; SYM3 sums shifted terms
    mult = PlaneWavePhaseSymbol(1, L, 1, (((1,), (0.0,), 0.7), ((2,), (0.0,), 0.4j)))
    assert t0_gap([mult], N) <= 1e-12
    with pytest.raises(ValueError):
        t0_gap([SYM3], N)


def test_submultiplicative_on_products():
    # translations are grid multiples, so Op of the composed symbol is exactly A @ B
    a = PlaneWavePhaseSymbol(1, L, 1, (((1,), (0.375,), 0.7), ((0,), (-0.25,), 0.3j)))
    b = PlaneWavePhaseSymbol(1, L, 1, (((-1,), (0.125,), 0.5), ((2,), (0.0,), 0.2)))
    _, submult = norm_axiom_slacks([(a, b)], N)
    assert max(submult) <= 1e-6


# ---------------------------------------------------------------------------
# Green kernels of 1 + d/dt


def test_gamma_point_values():
    assert gamma1(np.array(0.0)) == 1.0
    assert_allclose(gamma1(np.array(1.0)), np.exp(-1.0))
    assert gamma1(np.array(-0.5)) == 0.0
    assert gamma2(np.array(0.0)) == 0.0
    assert_allclose(gamma2(np.array(1.0)), np.exp(-1.0))
    assert gamma2(np.array(-1.0)) == 0.0
    assert gamma2_prime(np.array(0.0)) == 1.0
    assert gamma2_prime(np.array(-2.0)) == 0.0


def test_gamma2_prime_is_derivative():
    t = np.linspace(0.05, 5.0, 200)
    h = 1e-6
    fd = (gamma2(t + h) - gamma2(t - h)) / (2 * h)
    assert np.abs(fd - gamma2_prime(t)).max() <= 1e-9


def test_gamma2_is_green_kernel_of_squared_operator():
    # Convolving gamma2 with (1 + d/dt)^2 f returns f; the derivatives
    # are shifted onto the Gaussian, which has exact closed forms.
    t = np.linspace(-8.0, 8.0, 4097)
    f = np.exp(-(t - 0.5) ** 2)
    f1 = -2.0 * (t - 0.5) * f
    f2 = (4.0 * (t - 0.5) ** 2 - 2.0) * f
    g = f + 2.0 * f1 + f2
    for s in np.linspace(-2, 2, 9):
        recovered = simpson(gamma2(s - t) * g, x=t)
        assert abs(recovered - np.exp(-(s - 0.5) ** 2)) <= 1e-5


def test_d_apply_termwise_factor():
    out = d_apply(SYM3)
    for (m, w, c), (m2, w2, c2) in zip(SYM3.terms, out.terms):
        omega = np.pi * m[0] / L
        factor = (1 + 1j * omega) ** 2 * (1 + 1j * w[0]) ** 2
        assert_allclose(c2, factor * c, atol=1e-14)


@pytest.mark.parametrize("nu", [0.0, 0.5, -1.3, 2.0])
def test_d_inverse_factor_against_closed_form(nu):
    # int_0^inf t exp(-t) exp(-i nu t) dt = (1 + i nu)^{-2}.
    assert abs(d_inverse_factor(nu) - 1.0 / (1.0 + 1j * nu) ** 2) <= 1e-9


def test_d_inverse_factor_rejects_short_tail(monkeypatch):
    # the truncation point is read per call
    monkeypatch.setattr(heisenberg, "D_INVERSE_T", 5.0)
    with pytest.raises(ConvergenceError, match="T=5.0"):
        d_inverse_factor(0.5)


def test_d_roundtrip():
    sym = PlaneWavePhaseSymbol(
        1, L, 1,
        (((3,), (1.7,), 0.4 - 0.2j), ((-4,), (-2.0,), 1.1), ((0,), (0.9,), 0.6j)),
    )
    back = d_inverse(d_apply(sym))
    def key(m, w):
        return tuple(m.tolist()), tuple(round(v, 12) for v in w.tolist())

    orig = {key(m, w): c for m, w, c in sym.terms}
    for m, w, c in back.terms:
        ref = orig[key(m, w)]
        assert np.abs(c - ref).max() <= 1e-6 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# Rank-one kernels and their pairing


def test_kernel_v_point_values():
    assert_allclose(kernel_v(np.array(0.0), np.array(-1.0)), np.exp(-1.0))
    assert kernel_v(np.array(-1.0), np.array(0.0)) == 0.0
    got = kernel_v(np.array(1.0), np.array(0.0))
    assert_allclose(got, np.exp(-1.0) / (1 + 1j) ** 2, atol=1e-15)


def test_kernel_u_vanishes_for_positive_eta():
    s = np.linspace(-3, 0, 7)[:, None]
    eta = np.array([0.5, 1.0, 2.0])[None, :]
    assert np.abs(kernel_u(s, eta)).max() == 0.0


def test_kernel_pairing_collapses_to_gamma_product():
    # Frozen target at s = t = -1: gamma2(1)^2 exp(-i).
    residual = kernel_identity_residual(-1.0, -1.0)
    assert residual <= 1e-8
    target = gamma2(np.array(1.0)) ** 2 * np.exp(-1j)
    assert_allclose(target, np.exp(-2.0) * np.exp(-1j), atol=1e-15)


def test_kernel_pairing_on_grid():
    for s in (-3.0, -1.5):
        for t in (-2.0, 0.0):
            assert kernel_identity_residual(s, t) <= 1e-6


def test_kernel_v_l2_norm_analytic():
    # int |v|^2 = int dt (1+t^2)^{-2} int gamma1(t-eta)^2 deta = pi/4.
    # Substituting xi = t - eta keeps the integrand smooth on xi >= 0.
    t = np.linspace(-40.0, 40.0, 8001)
    xi = np.linspace(0.0, 40.0, 4001)
    vals = np.abs(kernel_v(t[:, None], t[:, None] - xi[None, :])) ** 2
    total = simpson(simpson(vals, x=xi, axis=1), x=t)
    assert abs(total - np.pi / 4.0) <= 1e-5
    assert abs(total - KERNEL_V_L2 ** 2) <= 1e-5


def test_kernel_u_l2_norm_analytic():
    # int |u|^2 = 303/32.  u vanishes unless s <= 0 and eta <= 0, and is
    # smooth on that quadrant, whose edges carry its kinks.
    ax = np.linspace(-30.0, 0.0, 1501)
    vals = np.abs(kernel_u(ax[:, None], ax[None, :])) ** 2
    total = simpson(simpson(vals, x=ax, axis=1), x=ax)
    assert abs(total / (303.0 / 32.0) - 1.0) <= 1e-6
    assert abs(total / KERNEL_U_L2 ** 2 - 1.0) <= 1e-6


def test_simpson_weights_exact_on_cubics():
    ax = _simpson_axis(-1.3, 2.1, 0.05)
    cubic = 2.0 * ax ** 3 - ax ** 2 + 0.5 * ax - 4.0

    def antiderivative(x):
        return 0.5 * x ** 4 - x ** 3 / 3.0 + 0.25 * x ** 2 - 4.0 * x

    exact = antiderivative(2.1) - antiderivative(-1.3)
    assert abs(_simpson_weights(ax) @ cubic - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize(
    "lo,hi,step", [(0.0, 27.0, 0.005), (-20.0, -0.37, 1e-3), (0.0, 1.0, 0.3),
                   (-26.0, 25.0, 0.0125), (0.0, 0.7, 0.1)],
)
def test_simpson_axis_has_even_interval_count(lo, hi, step):
    ax = _simpson_axis(lo, hi, step)
    assert len(ax) % 2 == 1 and len(ax) >= 9
    assert ax[0] == lo and ax[-1] == hi


# ---------------------------------------------------------------------------
# Symbol map


@pytest.mark.parametrize("sym", [SYM3, SYM3_K2], ids=["k1", "k2"])
def test_symbol_map_recovers_symbol(sym):
    assert symbol_map_error([sym], np.array([0.0, 1.0]), np.array([0.0, 0.5])) <= 5e-2


def dense_symbol_map(sym, x0, xi0):
    """The kernel pairing at one point, summed directly on the (s, sigma) mesh.

    b = D a is sampled at (s + x0, sigma + xi0) entry by entry, multiplied
    by e^{i s sigma} and contracted with the Simpson-weighted kernels,
    on the quadrature axes of symbol_map_S.
    """
    b = d_apply(sym)
    s = _simpson_axis(SYMBOL_S_FLOOR, 0.0, SYMBOL_DS)
    sig = _simpson_axis(*SYMBOL_SIGMA_SPAN, SYMBOL_DSIGMA)
    eta = _simpson_axis(SYMBOL_ETA_FLOOR, 0.0, SYMBOL_DETA)
    u_w = np.conj(kernel_u(s[:, None], eta[None, :])) * np.outer(
        _simpson_weights(s), _simpson_weights(eta))
    v_w = kernel_v(sig[:, None], eta[None, :]) * _simpson_weights(sig)[:, None]
    osc = np.exp(1j * np.outer(s, sig))
    out = np.zeros((sym.k, sym.k), dtype=np.complex128)
    for a, c in np.ndindex(sym.k, sym.k):
        entry = PlaneWavePhaseSymbol(1, sym.L, 1, tuple(
            (m, w, coeff[a, c]) for m, w, coeff in b.terms))
        bmat = entry.evaluate((s + x0)[:, None, None], (sig + xi0)[None, :, None])[..., 0, 0]
        out[a, c] = np.sum(u_w * ((osc * bmat) @ v_w))
    return out


@pytest.mark.parametrize("sym", [SYM3, SYM3_K2], ids=["k1", "k2"])
def test_fd_d_value_matches_d_apply(sym):
    # the finite-difference route that symbol_map_S checks D against
    for x0, xi0 in [(0.0, 0.0), (0.7, -0.4)]:
        want = d_apply(sym).evaluate(x0, xi0)
        got = _fd_d_value(sym, x0, xi0)
        assert got.shape == (sym.k, sym.k)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("sym", [SYM3, SYM3_K2, SYM6W, SYM6W_K2],
                         ids=["k1", "k2", "k1-six-w", "k2-six-w"])
def test_symbol_map_matches_dense_pairing(sym):
    # symbol_map_S sums the same discrete pairing termwise, with the sigma
    # sum as a chirp-z transform and the eta sum added block by block into
    # one row per distinct w; the mesh sum is its independent oracle.
    x0, xi0 = 0.7, -0.4
    got = symbol_map_S(sym, x0, xi0)[0, 0]
    want = dense_symbol_map(sym, x0, xi0)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_symbol_map_needs_one_dimension():
    sym2 = PlaneWavePhaseSymbol(2, L, 1, (((1, 0), (0.2, 0.0), 1.0),))
    with pytest.raises(UnsupportedOperatorError):
        symbol_map_S(sym2, np.array([0.0]), np.array([0.0]))


def test_inverse_bound_dominates_sup():
    xs = np.linspace(-L, L, 513)[:, None, None]
    xis = np.linspace(-6.0, 6.0, 257)[None, :, None]
    sup_val = float(np.abs(SYM3.evaluate(xs, xis)).max())
    assert sup_val <= inverse_cv_bound(SYM3, N)
