"""Verification suites: the seeded families, the claim measurements and the
15 suites that ``deformkit verify`` runs.

Each suite takes the run configuration and returns check records; the
acceptance tests call the same families and measurements with their own
seeds, family sizes and tolerances.  Reports are deterministic: fixed
seeds, fixed reduction orders, records sorted by claim id, suites sorted
by name.  Wall-clock timings go to stderr only.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from .coeff_algebra import (
    MatrixElement,
    UnitizedElement,
    cstar_norm,
    spectral_smoothing,
    unitized_inverse,
    unitized_spectrum,
)
from .deformation import (
    _compose_terms,
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
    tilde_map,
)
from .heisenberg import (
    adu_conjugate,
    d_apply,
    d_inverse,
    delta_symbol,
    differential_norms,
    inverse_cv_bound,
    kernel_identity_residual,
    symbol_map_S,
)
from .pseudodiff import (
    cv_functional,
    fourier_operator,
    op_from_phase_terms,
    phase_norms,
    rieffel_operator,
)
from .symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    _relative_gap,
    _sample_norms,
    axis_points,
    centered_idft,
    inner_product,
    norm_L2,
    sup_norm,
)

if TYPE_CHECKING:
    from .verify_cli import RunConfig

__all__ = [
    "SUITES", "run_suites",
    "random_plane_wave", "random_phase_symbol", "band_limited_vector", "gaussian_values",
    "sup_op_gap", "interplay_residual", "cv_fit", "derivation_error",
    "kernel_identity_worst", "symbol_map_error", "inverse_cv_slack", "t0_gap",
    "norm_axiom_slacks",
]

SCHEMA_VERSION = 1

# Finite-difference step of derivation_error.
DERIVATION_FD_STEP = 1e-3


# ---------------------------------------------------------------------------
# Suite machinery


def _record(claim_id: str, claim: str, measured: float, bound: float) -> dict:
    measured, bound = float(measured), float(bound)
    return {"claim_id": claim_id, "claim": claim, "measured": measured, "bound": bound,
            "passed": bool(np.isfinite(measured) and measured <= bound)}


def _rng(cfg: RunConfig, tag: str) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, zlib.crc32(tag.encode())))


# ---------------------------------------------------------------------------
# Seeded families and claim measurements.  The suites call these with the
# run configuration; the acceptance tests call them with their own seeds,
# family sizes and tolerances.


def random_plane_wave(rng, n: int, L: float, k: int, m_max: int,
                      n_terms: int) -> PlaneWaveSymbol:
    """n_terms plane waves, m in [-m_max, m_max]^n, complex normal k x k coefficients."""
    terms = tuple((tuple(int(v) for v in rng.integers(-m_max, m_max + 1, size=n)),
                   rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
                  for _ in range(n_terms))
    return PlaneWaveSymbol(n, L, k, terms)


def random_phase_symbol(rng, L: float, m_max: int, n_terms: int,
                        w_choices) -> PlaneWavePhaseSymbol:
    """One-dimensional scalar lattice phase symbol with shifts drawn from w_choices."""
    terms = tuple(((int(rng.integers(-m_max, m_max + 1)),), (float(rng.choice(w_choices)),),
                   complex(rng.normal(), rng.normal()))
                  for _ in range(n_terms))
    return PlaneWavePhaseSymbol(1, L, 1, terms)


def band_limited_vector(rng, n: int, N: int, L: float, m_max: int,
                        k: int = 1) -> ModuleVector:
    """Module vector with complex normal Fourier modes on |m_i| <= m_max."""
    coeffs = np.zeros((N,) * n + (k, k), dtype=np.complex128)
    for idx in np.ndindex(*((2 * m_max + 1,) * n)):
        slot = tuple(N // 2 + i - m_max for i in idx)
        coeffs[slot] = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return ModuleVector(n, N, L, centered_idft(coeffs, tuple(range(n))))


def gaussian_values(n: int, N: int, L: float, width: float, k: int = 1,
                    shift: float = 0.0, freq: float = 0.0) -> np.ndarray:
    """Grid samples of exp(-|x - shift|^2 / width + i freq x_1) times the k x k unit."""
    mesh = np.meshgrid(*([axis_points(N, L)] * n), indexing="ij")
    with np.errstate(over="ignore"):  # |x|^2 = inf on a vast box, where the value is 0.0
        r2 = sum((m - shift) ** 2 for m in mesh)
    vals = np.exp(-r2 / width) * np.exp(1j * freq * mesh[0])
    out = np.zeros(vals.shape + (k, k), dtype=np.complex128)
    for i in range(k):
        out[..., i, i] = vals
    return out


def sup_op_gap(family) -> float:
    """Worst |sup f - ||L_f||| / sup f at J = 0 over grid symbols f; the norms of the
    symbols of one grid and box run in one lockstep run."""
    family, grids, norms = list(family), {}, {}
    for i, f in enumerate(family):
        grids.setdefault((f.n, f.N, f.L, f.k), []).append(i)
    for (n, N, _, _), members in grids.items():
        lifts = [tilde_map(family[i], DeformationMatrix.zero(n)) for i in members]
        norms.update(zip(members, phase_norms(lifts, N)))
    worst = 0.0
    for i, f in enumerate(family):
        sup = sup_norm(f)
        worst = max(worst, abs(sup - norms[i]) / sup)
    return worst


def interplay_residual(pairs, J: DeformationMatrix, h: ModuleVector) -> float:
    """Worst ||L_f L_g h - L_{f x_J g} h|| / ||L_f L_g h|| over pairs (f, g).  The
    denominator is at most ||L_f|| ||L_g|| ||h||, so no operator norm is needed for a
    residual at least as strict as one relative to those norms."""
    worst = 0.0
    for f, g in pairs:
        Lf, Lg = rieffel_operator(f, J, N=h.N), rieffel_operator(g, J, N=h.N)
        Lfg = rieffel_operator(deformed_product_exact(f, g, J), J, N=h.N)
        lhs = Lf.forward(Lg.forward(h.values))
        rhs = Lfg.forward(h.values)
        worst = max(worst, norm_L2(h.with_values(lhs - rhs)) / norm_L2(h.with_values(lhs)))
    return worst


def cv_fit(family, box_xi: float, N: int) -> float:
    """Largest ||Op(a)|| / cv_functional(a) over the family at N points in x."""
    family = list(family)
    xi_ax = axis_points(64, box_xi)
    best = 0.0
    for sym, opn in zip(family, phase_norms(family, N)):
        pi = cv_functional(sym, N, xi_ax)
        if pi > 0:
            best = max(best, opn / pi)
    return best


def derivation_error(family, gauss: np.ndarray, N: int, alphas) -> float:
    """Worst relative gap between finite differences of Ad u(x, xi) Op(a) gauss
    (Richardson for first orders) and Op(delta^alpha a) gauss, alpha in alphas."""
    eps = DERIVATION_FD_STEP
    worst = 0.0
    for sym in family:
        A = op_from_phase_terms(sym, N)

        def conj(x, xi):
            return adu_conjugate(A, (x,), (xi,)).forward(gauss)

        for alpha in alphas:
            def along(e):
                return conj(e, 0.0) if alpha[1] == 0 else conj(0.0, e)

            if alpha == (1, 1):
                approx = (conj(eps, eps) - conj(eps, -eps)
                          - conj(-eps, eps) + conj(-eps, -eps)) / (4 * eps ** 2)
            elif sum(alpha) == 1:
                c1 = (along(eps) - along(-eps)) / (2 * eps)
                c2 = (along(eps / 2) - along(-eps / 2)) / eps
                approx = (4 * c2 - c1) / 3
            else:
                approx = (along(eps) - 2 * A.forward(gauss) + along(-eps)) / eps ** 2
            exact = op_from_phase_terms(delta_symbol(sym, alpha), N).forward(gauss)
            scale = max(float(np.abs(exact).max()), 1e-12)
            worst = max(worst, float(np.abs(approx - exact).max()) / scale)
    return worst


def kernel_identity_worst(points) -> float:
    """Largest kernel pairing residual over the (s, t) grid points x points."""
    return max(kernel_identity_residual(float(s), float(t))
               for s in points for t in points)


def symbol_map_error(family, xs, xis) -> float:
    """Worst relative sup error of S(Op(a)) against a on the grid xs x xis."""
    worst = 0.0
    for sym in family:
        S = symbol_map_S(sym, xs, xis)
        truth = sym.evaluate(xs[:, None, None], xis[None, :, None])
        worst = max(worst, float(np.abs(S - truth).max() / np.abs(truth).max()))
    return worst


def inverse_cv_slack(family, N: int, xs, xis) -> float:
    """Largest sup|a| on xs x xis minus the kernel-pairing bound of inverse_cv_bound."""
    worst = -np.inf
    for sym in family:
        sup_val = float(np.abs(sym.evaluate(xs[:, None, None], xis[None, :, None])).max())
        worst = max(worst, sup_val - inverse_cv_bound(sym, N))
    return worst


def t0_gap(family, N: int) -> float:
    """Worst |T_0(Op(a)) - max over the N-point grid of ||a(x, 0)||| over the family: a
    reference free of Lanczos, exactly ||Op(a)|| for a multiplier (every w is 0) or one
    term (c times a unitary shift); any other symbol is refused (ValueError)."""
    worst = 0.0
    for sym in family:
        if len(sym.terms) > 1 and sym.terms["w"].any():
            raise ValueError("the grid maximum is ||Op(a)|| only for multipliers and one term")
        x = np.stack(np.meshgrid(*([axis_points(N, sym.L)] * sym.n), indexing="ij"), axis=-1)
        grid_max = float(_sample_norms(sym.evaluate(x, np.zeros(sym.n))).max())
        worst = max(worst, abs(differential_norms(sym, N, 0).T[0] - grid_max))
    return worst


def norm_axiom_slacks(pairs, N: int) -> tuple:
    """Over pairs of lattice symbols (a, b), A = Op(a) and B = Op(b) on the
    N-point grid: the Leibniz slacks T_j(AB) - sum_i T_i(A) T_{j-i}(B)
    (j = 1, 2) and s_m(AB) - s_m(A) s_m(B) (m <= 2)."""
    leibniz = [-np.inf] * 2
    submult = [-np.inf] * 3
    for a, b in pairs:
        ra = differential_norms(a, N, 2)
        rb = differential_norms(b, N, 2)
        rab = differential_norms(_compose_terms(a, b), N, 2)
        for j in (1, 2):
            bound = sum(ra.T[i] * rb.T[j - i] for i in range(j + 1))
            leibniz[j - 1] = max(leibniz[j - 1], rab.T[j] - bound)
        for m in range(3):
            submult[m] = max(submult[m], rab.s[m] - ra.s[m] * rb.s[m])
    return tuple(leibniz), tuple(submult)


def _plane_diff(f: PlaneWaveSymbol, g: PlaneWaveSymbol) -> float:
    """max_m |f_m - g_m| over both symbols' terms (a missing term counts as 0)."""
    t = np.concatenate([f.terms, g.terms])
    t["c"][len(f.terms):] = -g.terms["c"]
    # f_m + (-g_m) is f_m - g_m exactly; equal coefficients merge to a pruned zero
    return float(np.abs(PlaneWaveSymbol(f.n, f.L, f.k, t).terms["c"]).max(initial=0.0))


# ---------------------------------------------------------------------------
# Suites (each returns a list of check records)


def _suite_product_oracle(cfg: RunConfig) -> list:
    rng = _rng(cfg, "product-oracle")
    L, N = cfg.L, 16
    records = []
    for theta in sorted({0.0, abs(cfg.theta), 1.0}):
        J = DeformationMatrix.symplectic(theta, 2)
        worst = 0.0
        for _ in range(3):
            f = random_plane_wave(rng, 2, L, 1, 3, 4)
            g = random_plane_wave(rng, 2, L, 1, 3, 4)
            exact = deformed_product_exact(f, g, J).to_grid(N)
            numeric = deformed_product_numeric(f.to_grid(N), g.to_grid(N), J, True)
            worst = max(worst, _relative_gap(numeric.values, exact.values))
        records.append(_record(
            f"plane-wave-product-theta-{theta:g}",
            "grid route of the deformed product matches the plane-wave "
            f"phase law exp(-2 pi i p.Jq) at theta = {theta:g}",
            worst, 1e-6,
        ))
    J = DeformationMatrix.symplectic(max(abs(cfg.theta), 0.25), 2)
    worst = 0.0
    for _ in range(6):
        p = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        q = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        ep = PlaneWaveSymbol(2, L, 1, ((p, 1.0),))
        eq = PlaneWaveSymbol(2, L, 1, ((q, 1.0),))
        fg = deformed_product_exact(ep, eq, J)
        gf = deformed_product_exact(eq, ep, J)
        pf = np.asarray(p, dtype=float) / (2.0 * L)
        qf = np.asarray(q, dtype=float) / (2.0 * L)
        phase = np.exp(-4j * np.pi * float(pf @ (J.entries @ qf)))
        t = gf.terms.copy()
        t["c"] = phase * t["c"]
        worst = max(worst, _plane_diff(fg, PlaneWaveSymbol(2, L, 1, t)))
    records.append(_record(
        "commutation-phase",
        "plane waves commute up to the phase exp(-4 pi i p.Jq)",
        worst, 1e-12,
    ))
    return records


def _suite_sup_op(cfg: RunConfig) -> list:
    rng = _rng(cfg, "sup-op")
    family = (GridSymbol(2, 32, cfg.L, band_limited_vector(rng, 2, 32, cfg.L, 2, 2).values)
              for _ in range(5))
    return [_record(
        "sup-equals-op-norm-at-theta-zero",
        "at theta = 0 the sup norm and the operator norm of L_f agree",
        sup_op_gap(family), 0.02,
    )]


def _suite_associativity(cfg: RunConfig) -> list:
    rng = _rng(cfg, "associativity")
    L = cfg.L
    J = DeformationMatrix.symplectic(cfg.theta if cfg.theta else 0.25, 2)
    worst = 0.0
    for _ in range(4):
        f = random_plane_wave(rng, 2, L, 1, 2, 3)
        g = random_plane_wave(rng, 2, L, 1, 2, 3)
        h = random_plane_wave(rng, 2, L, 1, 2, 3)
        left = deformed_product_exact(deformed_product_exact(f, g, J), h, J)
        right = deformed_product_exact(f, deformed_product_exact(g, h, J), J)
        worst = max(worst, _plane_diff(left, right))
    records = [_record(
        "associativity-exact",
        "the plane-wave deformed product is associative exactly",
        worst, 1e-12,
    )]
    N = 32
    f, g, h = (GridSymbol(2, N, L, gaussian_values(2, N, L, w)) for w in (2.0, 3.0, 1.5))
    left = deformed_product_numeric(deformed_product_numeric(f, g, J, True), h, J, True)
    right = deformed_product_numeric(f, deformed_product_numeric(g, h, J, True), J, True)
    records.append(_record(
        "associativity-numeric",
        "the grid deformed product is associative on decaying symbols",
        _relative_gap(right.values, left.values), 1e-5,
    ))
    return records


def _suite_interplay(cfg: RunConfig) -> list:
    rng = _rng(cfg, "interplay")
    L = cfg.L
    J = DeformationMatrix.symplectic(cfg.theta if cfg.theta else 0.25, 2)
    pairs = ((random_plane_wave(rng, 2, L, 1, 2, 3), random_plane_wave(rng, 2, L, 1, 2, 3))
             for _ in range(3))
    h = ModuleVector(2, 32, L, gaussian_values(2, 32, L, 1.0))
    return [_record(
        "operator-product-interplay",
        "composing L_f and L_g agrees with the operator of the deformed product",
        interplay_residual(pairs, J, h), 1e-4,
    )]


def _suite_cv(cfg: RunConfig) -> list:
    rng = _rng(cfg, "cv")
    L, box_xi = 4.0, 4.0
    w_lattice = [j * np.pi / box_xi for j in range(-3, 4)]
    family = [random_phase_symbol(rng, L, 2, 3, w_lattice) for _ in range(8)]
    c_small = cv_fit(family, box_xi, 64)
    c_large = cv_fit(family, box_xi, 128)
    return [
        _record(
            "cv-ratio-finite",
            "the operator-norm to derivative-functional ratio is finite "
            "and positive over the symbol family",
            -c_small, -1e-12,
        ),
        _record(
            "cv-constant-stability",
            "the fitted comparison constant is stable under grid refinement",
            abs(c_small - c_large) / c_large, 0.10,
        ),
    ]


def _suite_derivatives(cfg: RunConfig) -> list:
    rng = _rng(cfg, "derivatives")
    N, L = 64, 4.0
    family = (random_phase_symbol(rng, L, 2, 3, np.linspace(-0.8, 0.8, 9))
              for _ in range(3))
    gauss = gaussian_values(1, N, L, 0.5, freq=0.9)
    return [_record(
        "derivation-finite-difference",
        "finite differences of the conjugation action match the "
        "termwise derivation symbols through order two",
        derivation_error(family, gauss, N, ((1, 0), (0, 1), (1, 1))), 1e-3,
    )]


def _suite_d_roundtrip(cfg: RunConfig) -> list:
    rng = _rng(cfg, "d-roundtrip")
    worst = 0.0
    for _ in range(6):
        sym = random_phase_symbol(rng, 4.0, 4, 4, np.linspace(-2.0, 2.0, 17))
        back = d_inverse(d_apply(sym)).terms
        # D and its inverse scale each coefficient by a nonzero factor, so
        # the terms stay in the same order with the same frequencies
        if not all(np.array_equal(back[name], sym.terms[name]) for name in ("m", "w")):
            worst = np.inf
            break
        c, ref = back["c"], sym.terms["c"]
        worst = max(worst, float(np.max(np.abs(c - ref).max(axis=(1, 2))
                                        / np.abs(ref).max(axis=(1, 2)), initial=0.0)))
    return [_record(
        "d-inverse-roundtrip",
        "the quadrature inverse of D undoes D on lattice symbols",
        worst, 1e-6,
    )]


def _suite_kernel_identity(cfg: RunConfig) -> list:
    return [_record(
        "kernel-pairing-identity",
        "the eta pairing of the rank-one kernels collapses to "
        "gamma2(-s) gamma2(-t) exp(-i s t)",
        kernel_identity_worst((-3.0, -1.5, 0.0)), 1e-6,
    )]


def _suite_symbol_map(cfg: RunConfig) -> list:
    sym = PlaneWavePhaseSymbol(
        1, 4.0, 1,
        (((1,), (0.6,), 0.8 + 0.1j), ((-1,), (-0.6,), 0.5), ((2,), (0.3,), 0.2j)),
    )
    return [_record(
        "symbol-map-recovers-symbol",
        "the kernel pairing map applied to Op(a) reproduces a",
        symbol_map_error([sym], np.array([0.0, 1.0]), np.array([0.0, 0.5])), 5e-2,
    )]


def _suite_inverse_cv(cfg: RunConfig) -> list:
    rng = _rng(cfg, "inverse-cv")
    L = 4.0
    family = (random_phase_symbol(rng, L, 2, 3, np.linspace(-0.8, 0.8, 9))
              for _ in range(3))
    return [_record(
        "inverse-cv-slack",
        "the sup of a symbol stays below the kernel-pairing bound "
        "sqrt(2 pi) ||u|| ||v|| ||Op(D a)||",
        inverse_cv_slack(family, 64, np.linspace(-L, L, 257), np.linspace(-8.0, 8.0, 129)),
        0.0,
    )]


def _suite_norm_hierarchy(cfg: RunConfig) -> list:
    rng = _rng(cfg, "norm-hierarchy")
    N, L = 64, 4.0
    J = DeformationMatrix.zero(1)
    pairs = [(tilde_map(random_plane_wave(rng, 1, L, 1, 2, 3), J),
              tilde_map(random_plane_wave(rng, 1, L, 1, 2, 3), J))
             for _ in range(3)]
    leibniz, submult = norm_axiom_slacks(pairs, N)
    return [
        _record("t0-equals-operator-norm",
                "the zeroth derivation norm is the operator norm",
                t0_gap([a for a, _ in pairs], N), 1e-9),
        _record("derivation-leibniz",
                "T_1 of a product obeys the Leibniz estimate", leibniz[0], 1e-6),
        _record("s-m-submultiplicative",
                "the cumulative norms s_m are submultiplicative", max(submult), 1e-6),
    ]


def _suite_unitization(cfg: RunConfig) -> list:
    rng = _rng(cfg, "unitization")
    inv_worst = 0.0
    spec_worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        a = MatrixElement(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        alpha = complex(rng.normal(), rng.normal())
        if abs(alpha) < 0.3:
            alpha += 1.0
        x = UnitizedElement(a, alpha)
        y = unitized_inverse(x)
        prod = x.multiply(y)
        inv_worst = max(inv_worst, cstar_norm(prod.matrix) + abs(prod.scalar - 1.0))
        spec_worst = max(spec_worst, min(abs(v) for v in unitized_spectrum(a)))
    return [
        _record(
            "unitized-inverse-roundtrip",
            "inverses in the unitization multiply back to the unit",
            inv_worst, 1e-10,
        ),
        _record(
            "unitized-spectrum-contains-zero",
            "the unitized spectrum of a matrix always contains zero",
            spec_worst, 1e-12,
        ),
    ]


def _suite_fourier_inversion(cfg: RunConfig) -> list:
    rng = _rng(cfg, "fourier-inversion")
    L = cfg.L
    records = []
    const = PlaneWaveSymbol(1, L, 1, (((0,), 1.0),))
    worst = max(
        fourier_inversion_check(const, np.array([x])) for x in (-1.0, 0.0, 0.7)
    )
    records.append(_record(
        "oscillatory-inversion-constant",
        "the regularized double integral reproduces constants",
        worst, 1e-8,
    ))
    wave = random_plane_wave(rng, 1, L, 1, 2, 3)
    worst = max(
        fourier_inversion_check(wave, np.array([x])) for x in (-1.0, 0.0, 0.7)
    )
    gauss = GridSymbol(1, 64, L, gaussian_values(1, 64, L, 2.0))
    worst = max(worst, max(
        fourier_inversion_check(gauss, np.array([x])) for x in (-1.0, 0.0)
    ))
    records.append(_record(
        "oscillatory-inversion-general",
        "the regularized double integral reproduces decaying symbols pointwise",
        worst, 1e-6,
    ))
    return records


def _suite_smoothing(cfg: RunConfig) -> list:
    rng = _rng(cfg, "smoothing")
    worst = 0.0
    for eps in (0.1, 1.0, 10.0):
        for _ in range(4):
            k = int(rng.integers(2, 5))
            outside = rng.choice([-1.0, 1.0], size=k) * rng.uniform(eps, 3 * eps, size=k)
            q = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
            y = MatrixElement(q @ np.diag(outside) @ q.conj().T)
            out = spectral_smoothing(y, eps)
            worst = max(worst, cstar_norm(MatrixElement(out.entries - y.entries)))
            inside = rng.uniform(-eps / 3, eps / 3, size=k)
            y2 = MatrixElement(q @ np.diag(inside) @ q.conj().T)
            out2 = spectral_smoothing(y2, eps)
            worst = max(worst, cstar_norm(out2))
    return [_record(
        "smooth-cutoff-separates-spectrum",
        "the smooth cutoff fixes spectrum outside eps and kills it inside eps/3",
        worst, 1e-10,
    )]


def _suite_plancherel(cfg: RunConfig) -> list:
    rng = _rng(cfg, "plancherel")
    worst = 0.0
    for n, N in ((1, 64), (2, 16)):
        F = fourier_operator(n, N, cfg.L)
        for _ in range(3):
            f = band_limited_vector(rng, n, N, cfg.L, 2)
            g = band_limited_vector(rng, n, N, cfg.L, 2)
            lhs = inner_product(F(f), F(g)).entries
            worst = max(worst, _relative_gap(lhs, inner_product(f, g).entries))
    return [_record(
        "fourier-preserves-pairing",
        "the unitary Fourier operator preserves the module inner product",
        worst, 1e-10,
    )]


SUITES = {
    "product-oracle": _suite_product_oracle,
    "sup-op": _suite_sup_op,
    "associativity": _suite_associativity,
    "interplay": _suite_interplay,
    "cv": _suite_cv,
    "derivatives": _suite_derivatives,
    "d-roundtrip": _suite_d_roundtrip,
    "kernel-identity": _suite_kernel_identity,
    "symbol-map": _suite_symbol_map,
    "inverse-cv": _suite_inverse_cv,
    "norm-hierarchy": _suite_norm_hierarchy,
    "unitization": _suite_unitization,
    "fourier-inversion": _suite_fourier_inversion,
    "smoothing": _suite_smoothing,
    "plancherel": _suite_plancherel,
}


def run_suites(cfg: RunConfig, names) -> list:
    """Run the named suites on cfg.workers threads; reports in the order of names."""

    def run_one(name: str) -> dict:
        start = time.monotonic()
        records = sorted(SUITES[name](cfg), key=lambda r: r["claim_id"])
        elapsed = time.monotonic() - start
        failures = sum(not r["passed"] for r in records)
        print(f"[{name}] {len(records)} checks, {failures} failed, "
              f"{elapsed:.1f}s", file=sys.stderr)
        return {"suite": name, "records": records, "checks": len(records),
                "failures": failures}

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(run_one, names))
    return [run_one(name) for name in names]


def _report_json(reports) -> str:
    total_failures = sum(r["failures"] for r in reports)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suites": reports,
        "checks": sum(r["checks"] for r in reports),
        "failures": total_failures,
        "all_passed": total_failures == 0,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

