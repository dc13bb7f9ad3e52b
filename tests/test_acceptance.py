"""Acceptance checks: every advertised accuracy target at its stated bound.

Each test measures one guarantee end to end and records a summary line;
the terminal summary prints one pass/fail line per guarantee.
"""

import time
from functools import lru_cache

import numpy as np

from deformkit.coeff_algebra import (
    MatrixElement,
    UnitizedElement,
    cstar_norm,
    spectral_smoothing,
    unitized_inverse,
    unitized_spectrum,
)
from deformkit.deformation import (
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
)
from deformkit.heisenberg import d_apply, d_inverse
from deformkit.pseudodiff import adjoint, fourier_operator
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    inner_product,
    norm_L2,
)
from deformkit.suites import (
    band_limited_vector,
    cv_fit,
    derivation_error,
    gaussian_values,
    interplay_residual,
    inverse_cv_slack,
    kernel_identity_worst,
    norm_axiom_slacks,
    random_phase_symbol,
    random_plane_wave,
    sup_op_gap,
    symbol_map_error,
    t0_gap,
)
from conftest import record_criterion

ORACLE_TOL = 1e-6
DEGENERACY_TOL = 0.02
EXACT_PHASE_TOL = 1e-12
NUMERIC_ASSOC_TOL = 1e-5
INTERPLAY_TOL = 1e-4
CV_STABILITY_TOL = 0.10
DERIVATIVE_TOL = 1e-3
ROUNDTRIP_TOL = 1e-6
KERNEL_TOL = 1e-6
SYMBOL_MAP_TOL = 5e-2
NORM_AXIOM_SLACK = 1e-6
T0_GAP_TOL = 1e-12
UNITIZATION_TOL = 1e-10
INVERSION_TOL = 1e-6
PLANCHEREL_TOL = 1e-10


def _random_vector(rng, n, N, L):
    vals = rng.normal(size=(N,) * n + (1, 1)) + 1j * rng.normal(size=(N,) * n + (1, 1))
    vec = ModuleVector(n, N, L, vals)
    return ModuleVector(n, N, L, vals / norm_L2(vec))


def test_plane_wave_products_match_phase_law():
    start = time.monotonic()
    N, L = 16, 6.0
    freqs = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    waves = {
        (i, j): PlaneWaveSymbol(2, L, 1, (((i, j), 1.0),)).to_grid(N).values
        for i in range(-6, 7) for j in range(-6, 7)
    }
    factors = {m: PlaneWaveSymbol(2, L, 1, ((m, 1.0),)).to_grid(N) for m in freqs}
    worst = 0.0
    for theta in (0.0, 0.25, 1.0):
        J = DeformationMatrix.symplectic(theta, 2)
        for p in freqs:
            fp = factors[p]
            for q in freqs:
                prod = deformed_product_numeric(fp, factors[q], J, True)
                phase = np.exp(
                    -2j * np.pi * theta * (p[0] * q[1] - p[1] * q[0]) / (4.0 * L * L)
                )
                expected = phase * waves[(p[0] + q[0], p[1] + q[1])]
                worst = max(worst, float(np.abs(prod.values - expected).max()))
    elapsed = time.monotonic() - start
    ok = worst <= ORACLE_TOL and elapsed < 60.0
    record_criterion(
        "plane-wave product oracle",
        ok,
        f"max residual {worst:.2e} <= {ORACLE_TOL:g}, {elapsed:.1f}s < 60s",
    )
    assert worst <= ORACLE_TOL
    assert elapsed < 60.0


def test_undeformed_sup_and_operator_norms_coincide():
    rng = np.random.default_rng(42611)
    family = (GridSymbol(2, 64, 6.0, band_limited_vector(rng, 2, 64, 6.0, 2, 2).values)
              for _ in range(20))
    worst = sup_op_gap(family)
    record_criterion(
        "undeformed sup/op degeneracy",
        worst <= DEGENERACY_TOL,
        f"max relative gap {worst:.2e} <= {DEGENERACY_TOL:g}",
    )
    assert worst <= DEGENERACY_TOL


def test_product_is_associative():
    J = DeformationMatrix.symplectic(0.25, 2)
    L = 6.0
    freqs = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    symbols = {m: PlaneWaveSymbol(2, L, 1, ((m, 1.0),)) for m in freqs}
    worst_exact = 0.0
    for p in freqs:
        for q in freqs:
            pq = deformed_product_exact(symbols[p], symbols[q], J)
            for r in freqs:
                qr = deformed_product_exact(symbols[q], symbols[r], J)
                left = deformed_product_exact(pq, symbols[r], J)
                right = deformed_product_exact(symbols[p], qr, J)
                la, ra = ({tuple(m.tolist()): c for m, c in s.terms} for s in (left, right))
                assert la.keys() == ra.keys()
                for m, c in la.items():
                    worst_exact = max(worst_exact, float(np.abs(c - ra[m]).max()))

    rng = np.random.default_rng(36604)
    worst_numeric = 0.0
    for _ in range(10):
        f = GridSymbol(2, 32, L, gaussian_values(2, 32, L, float(rng.uniform(1.0, 3.0))))
        g = GridSymbol(2, 32, L, gaussian_values(2, 32, L, float(rng.uniform(1.0, 3.0)), shift=0.5))
        h = GridSymbol(2, 32, L, gaussian_values(2, 32, L, float(rng.uniform(1.0, 3.0)), shift=-0.5))
        left = deformed_product_numeric(deformed_product_numeric(f, g, J, True), h, J, True)
        right = deformed_product_numeric(f, deformed_product_numeric(g, h, J, True), J, True)
        worst_numeric = max(worst_numeric, float(np.abs(left.values - right.values).max()))

    ok = worst_exact <= EXACT_PHASE_TOL and worst_numeric <= NUMERIC_ASSOC_TOL
    record_criterion(
        "associativity",
        ok,
        f"exact {worst_exact:.2e} <= {EXACT_PHASE_TOL:g}, "
        f"numeric {worst_numeric:.2e} <= {NUMERIC_ASSOC_TOL:g}",
    )
    assert worst_exact <= EXACT_PHASE_TOL
    assert worst_numeric <= NUMERIC_ASSOC_TOL


def test_operator_composition_matches_deformed_product():
    rng = np.random.default_rng(75314)
    L = 6.0
    pairs = ((random_plane_wave(rng, 2, L, 1, 2, 3), random_plane_wave(rng, 2, L, 1, 2, 3))
             for _ in range(20))
    h = ModuleVector(2, 32, L, gaussian_values(2, 32, L, 1.0))
    worst = interplay_residual(pairs, DeformationMatrix.symplectic(0.25, 2), h)
    record_criterion(
        "operator-product interplay",
        worst <= INTERPLAY_TOL,
        f"max relative residual {worst:.2e} <= {INTERPLAY_TOL:g}",
    )
    assert worst <= INTERPLAY_TOL


def test_bounded_operator_constant_is_stable():
    rng = np.random.default_rng(58121)
    L, box_xi = 4.0, 4.0
    w_all = [j * np.pi / box_xi for j in range(-3, 4)]
    w_nonzero = [w for w in w_all if w != 0.0]
    family = []
    for i in range(50):
        if i % 3 == 0:
            # multiplier: no x dependence
            terms = tuple(
                ((0,), (float(rng.choice(w_nonzero)),), complex(rng.normal(), rng.normal()))
                for _ in range(3)
            )
        elif i % 3 == 1:
            # multiplication: no xi dependence
            terms = tuple(
                ((int(rng.integers(1, 3)) * int(rng.choice((-1, 1))),), (0.0,),
                 complex(rng.normal(), rng.normal()))
                for _ in range(3)
            )
        else:
            terms = tuple(
                ((int(rng.integers(-2, 3)),), (float(rng.choice(w_all)),),
                 complex(rng.normal(), rng.normal()))
                for _ in range(3)
            )
        family.append(PlaneWavePhaseSymbol(1, L, 1, terms))
    c_small = cv_fit(family, box_xi, 64)
    c_large = cv_fit(family, box_xi, 128)
    drift = abs(c_small - c_large) / c_small
    ok = np.isfinite(c_small) and c_small > 0 and drift <= CV_STABILITY_TOL
    record_criterion(
        "bounded-operator constant stability",
        ok,
        f"C_fit {c_small:.3f} -> {c_large:.3f}, drift {drift:.1%} <= 10%",
    )
    assert np.isfinite(c_small) and c_small > 0
    assert drift <= CV_STABILITY_TOL


def test_derivation_routes_agree():
    rng = np.random.default_rng(69402)
    N, L = 64, 4.0
    family = (random_phase_symbol(rng, L, 2, 3, np.linspace(-0.8, 0.8, 9))
              for _ in range(10))
    gauss = gaussian_values(1, N, L, 0.5, freq=0.9)
    alphas = ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
    worst = derivation_error(family, gauss, N, alphas)
    record_criterion(
        "derivation finite differences",
        worst <= DERIVATIVE_TOL,
        f"max relative error {worst:.2e} <= {DERIVATIVE_TOL:g}",
    )
    assert worst <= DERIVATIVE_TOL


def test_order_raising_inverse_roundtrip():
    rng = np.random.default_rng(81533)
    worst = 0.0
    for _ in range(10):
        sym = random_phase_symbol(rng, 4.0, 4, 4, np.linspace(-2.0, 2.0, 17))
        back = d_apply(d_inverse(sym))
        orig = {(tuple(m.tolist()), round(float(w[0]), 12)): c for m, w, c in sym.terms}
        got = {(tuple(m.tolist()), round(float(w[0]), 12)): c for m, w, c in back.terms}
        residual = 0.0
        for key in set(orig) | set(got):
            residual += float(np.abs(orig.get(key, 0.0) - got.get(key, 0.0)).max())
        worst = max(worst, residual)
    record_criterion(
        "order-raising inverse roundtrip",
        worst <= ROUNDTRIP_TOL,
        f"max coefficient residual {worst:.2e} <= {ROUNDTRIP_TOL:g}",
    )
    assert worst <= ROUNDTRIP_TOL


def test_kernel_pairing_identity():
    worst = kernel_identity_worst(np.linspace(-3.0, 0.0, 5))
    record_criterion(
        "kernel pairing identity",
        worst <= KERNEL_TOL,
        f"max residual {worst:.2e} <= {KERNEL_TOL:g} on the 5x5 grid",
    )
    assert worst <= KERNEL_TOL


@lru_cache(maxsize=1)
def _recovery_family():
    rng = np.random.default_rng(90210)
    w_choices = tuple(np.linspace(-0.8, 0.8, 9))
    return tuple(random_phase_symbol(rng, 4.0, 2, 3, w_choices) for _ in range(6))


def test_symbol_map_inverts_quantization():
    start = time.monotonic()
    xs = np.array([-1.0, 0.0, 1.0])
    xis = np.array([-0.5, 0.0, 0.5])
    worst = symbol_map_error(_recovery_family(), xs, xis)
    elapsed = time.monotonic() - start
    ok = worst <= SYMBOL_MAP_TOL and elapsed <= 600.0
    record_criterion(
        "symbol map inversion",
        ok,
        f"max relative error {worst:.2e} <= {SYMBOL_MAP_TOL:g}, {elapsed:.0f}s <= 600s",
    )
    assert worst <= SYMBOL_MAP_TOL
    assert elapsed <= 600.0


def test_sup_norm_lower_bound_has_nonnegative_slack():
    L = 4.0
    xs = np.linspace(-L, L, 257)
    xis = np.linspace(-8.0, 8.0, 129)
    worst = inverse_cv_slack(_recovery_family(), 64, xs, xis)
    record_criterion(
        "sup-norm lower bound",
        worst <= 0.0,
        f"max (sup - bound) {worst:.3f} <= 0",
    )
    assert worst <= 0.0


def test_differential_norm_axioms():
    rng = np.random.default_rng(14276)
    N, L = 32, 4.0
    # grid-commensurate translations compose exactly on the grid; a pair
    # is two single plane waves, so every norm below is an exact value
    w_choices = (2.0 * L / N) * np.arange(-3, 4)
    pairs = [(random_phase_symbol(rng, L, 2, 1, w_choices),
              random_phase_symbol(rng, L, 2, 1, w_choices))
             for _ in range(20)]
    # one-term symbols, so T_0 has the grid maximum of |a(x, 0)| as reference
    worst_t0 = t0_gap([a for a, _ in pairs], N)
    leibniz, submult = norm_axiom_slacks(pairs, N)
    # Leibniz for T_1 and T_2, submultiplicativity of s_2
    worst_slack = max(*leibniz, submult[2])
    ok = worst_t0 <= T0_GAP_TOL and worst_slack <= NORM_AXIOM_SLACK
    record_criterion(
        "differential norm axioms",
        ok,
        f"T_0 gap {worst_t0:.1e} <= {T0_GAP_TOL:g}, worst Leibniz/submultiplicative slack "
        f"{worst_slack:.2e} <= {NORM_AXIOM_SLACK:g}",
    )
    assert worst_t0 <= T0_GAP_TOL
    assert worst_slack <= NORM_AXIOM_SLACK


def _spectrum_set_distance(xs, ys):
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    d1 = max(min(abs(x - y) for y in ys) for x in xs)
    d2 = max(min(abs(x - y) for x in xs) for y in ys)
    return max(d1, d2)


def test_unitization_identities():
    rng = np.random.default_rng(33057)
    inv_worst = 0.0
    spec_worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        a = MatrixElement(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        alpha = complex(rng.normal(), rng.normal())
        if abs(alpha) < 0.3:
            alpha += 1.0
        x = UnitizedElement(a, alpha)
        y = unitized_inverse(x)
        for prod in (x.multiply(y), y.multiply(x)):
            inv_worst = max(
                inv_worst, cstar_norm(prod.matrix) + abs(prod.scalar - 1.0)
            )
        # independent route: the unitization embeds as blockdiag(a, 0)
        dense = np.zeros((k + 1, k + 1), dtype=complex)
        dense[:k, :k] = a.entries
        spec_worst = max(
            spec_worst,
            _spectrum_set_distance(unitized_spectrum(a), np.linalg.eigvals(dense)),
        )
    ok = inv_worst <= UNITIZATION_TOL and spec_worst <= UNITIZATION_TOL
    record_criterion(
        "unitization identities",
        ok,
        f"inverse defect {inv_worst:.2e}, spectrum-union gap {spec_worst:.2e} "
        f"<= {UNITIZATION_TOL:g}",
    )
    assert inv_worst <= UNITIZATION_TOL
    assert spec_worst <= UNITIZATION_TOL


def test_fourier_inversion_holds_pointwise():
    constant = PlaneWaveSymbol(1, 4.0, 1, (((0,), 0.8 - 0.3j),))
    waves = PlaneWaveSymbol(1, 4.0, 1, (((1,), 1.0), ((-2,), 0.5j)))
    gauss = GridSymbol(1, 256, 8.0, gaussian_values(1, 256, 8.0, 1.0))
    worst = 0.0
    for f in (constant, waves, gauss):
        for x in np.linspace(-1.0, 1.0, 5):
            worst = max(worst, float(fourier_inversion_check(f, np.array([x]))))
    record_criterion(
        "fourier inversion",
        worst <= INVERSION_TOL,
        f"max residual {worst:.2e} <= {INVERSION_TOL:g} at 5 points per class",
    )
    assert worst <= INVERSION_TOL


def test_spectral_smoothing_contract():
    rng = np.random.default_rng(77415)
    worst_move = -np.inf
    worst_zero = 0.0
    for eps in (0.1, 1.0, 10.0):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            y = 0.5 * (g + g.conj().T)
            scale = float(rng.uniform(0.5, 3.0)) * eps / cstar_norm(y)
            y_big = MatrixElement(y * scale)
            moved = spectral_smoothing(y_big, eps)
            worst_move = max(
                worst_move,
                cstar_norm(moved.entries - y_big.entries) - 2.0 * eps / 3.0,
            )
            small_scale = float(rng.uniform(0.1, 1.0)) * eps / (3.0 * cstar_norm(y))
            y_small = MatrixElement(y * small_scale)
            killed = spectral_smoothing(y_small, eps)
            worst_zero = max(worst_zero, cstar_norm(killed.entries))
    ok = worst_move <= 1e-10 and worst_zero <= 1e-12
    record_criterion(
        "spectral smoothing",
        ok,
        f"max ||f(y) - y|| - 2eps/3 = {worst_move:.2e}, "
        f"max ||f(y)|| on small spectrum {worst_zero:.2e}",
    )
    assert worst_move <= 1e-10
    assert worst_zero <= 1e-12


def test_plancherel_pairing():
    rng = np.random.default_rng(92648)
    worst = 0.0
    for n, N, count in ((1, 64, 25), (2, 16, 25)):
        F = fourier_operator(n, N, 4.0)
        Finv = adjoint(F)
        # the transform lands on the dual box, so v lives there
        L_dual = F.geometry_out[2]
        for _ in range(count):
            u = _random_vector(rng, n, N, 4.0)
            v = _random_vector(rng, n, N, L_dual)
            lhs = inner_product(F(u), v).entries
            rhs = inner_product(u, Finv(v)).entries
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    record_criterion(
        "plancherel pairing",
        worst <= PLANCHEREL_TOL,
        f"max pairing gap {worst:.2e} <= {PLANCHEREL_TOL:g} on 50 pairs",
    )
    assert worst <= PLANCHEREL_TOL
