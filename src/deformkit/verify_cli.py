"""Command-line front end: products, norm sweeps, and verification suites.

Subcommands: ``product`` writes the deformed product of two symbol
files, ``norms`` sweeps theta and emits a CSV of norm functionals,
``verify`` runs named check suites and writes a JSON report, ``info``
prints the resolved configuration.  Exit codes: 0 pass, 1 check
failure, 2 I/O or parse error, 3 usage error.

Reports are deterministic: fixed seeds, fixed reduction orders, records
sorted by claim id.  Wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coeff_algebra import (
    MatrixElement,
    UnitizedElement,
    cstar_norm,
    spectral_smoothing,
    unitized_inverse,
    unitized_spectrum,
)
from .deformation import (
    OscIntegralConfig,
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
)
from .errors import ConvergenceError, DeformkitError, NoConvergenceError
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
    POWER_ITER_TOL,
    cv_functional,
    fourier_operator,
    op_from_phase_terms,
    operator_norm,
    rieffel_operator,
)
from .symbols import (
    DeformationMatrix,
    GridPhaseSymbol,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    axis_points,
    centered_idft,
    derivative,
    inner_product,
    norm_L2,
    read_symbol_file,
    sup_norm,
    write_symbol_file,
)

__all__ = [
    "RunConfig",
    "SuiteReport",
    "parse_config",
    "parse_theta_sweep",
    "run_suites",
    "cmd_product",
    "cmd_norms",
    "cmd_verify",
    "cmd_info",
    "main",
    "SUITES",
    # seeded families and claim measurements, shared with the acceptance tests
    "random_plane_wave", "random_phase_symbol", "band_limited_vector", "gaussian_values",
    "sup_op_gap", "interplay_residual", "cv_fit", "derivation_error",
    "kernel_identity_worst", "symbol_map_error", "inverse_cv_slack", "norm_axiom_slacks",
]

EXIT_PASS = 0
EXIT_CHECK = 1
EXIT_IO = 2
EXIT_USAGE = 3

SCHEMA_VERSION = 1

# Finite-difference step of derivation_error.
DERIVATION_FD_STEP = 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (flat key = value file plus flags)."""

    N: int = 32
    L: float = 6.0
    theta: float = 0.25
    tol: float = 1e-6
    norm_order: int = 2
    seed: int = 20260815
    workers: int = 1
    out: str = ""
    suites: tuple = ()

    def __post_init__(self):
        if self.N < 4 or self.N & (self.N - 1) != 0:
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.norm_order < 0:
            raise ValueError(f"norm_order must be nonnegative, got {self.norm_order}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")


_INT_KEYS = {"N", "norm_order", "seed", "workers"}
_FLOAT_KEYS = {"L", "theta", "tol"}
_STR_KEYS = {"out"}
_LIST_KEYS = {"suites"}


def parse_config(path) -> RunConfig:
    """Parse a flat UTF-8 ``key = value`` file with # comments."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _INT_KEYS:
            values[key] = int(val)
        elif key in _FLOAT_KEYS:
            values[key] = float(val)
        elif key in _STR_KEYS:
            values[key] = val
        elif key in _LIST_KEYS:
            values[key] = tuple(s.strip() for s in val.split(",") if s.strip())
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    return RunConfig(**values)


def parse_theta_sweep(spec: str) -> tuple:
    """Parse 'start:step:end' into an inclusive tuple of theta values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"theta sweep must be start:step:end, got {spec!r}")
    start, step, end = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"theta sweep step must be positive, got {step}")
    count = int(np.floor((end - start) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"theta sweep {spec!r} is empty")
    return tuple(round(start + i * step, 12) for i in range(count))


# ---------------------------------------------------------------------------
# Suite machinery


@dataclass(frozen=True)
class SuiteReport:
    """One suite's sorted check records plus summary counts."""

    suite: str
    records: tuple
    checks: int
    failures: int

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "records": list(self.records),
            "checks": self.checks,
            "failures": self.failures,
        }


def _record(claim_id: str, claim: str, measured: float, bound: float) -> dict:
    measured = float(measured)
    bound = float(bound)
    return {
        "claim_id": claim_id,
        "claim": claim,
        "measured": measured,
        "bound": bound,
        "passed": bool(np.isfinite(measured) and measured <= bound),
    }


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
    r2 = sum((m - shift) ** 2 for m in mesh)
    vals = np.exp(-r2 / width) * np.exp(1j * freq * mesh[0])
    out = np.zeros(vals.shape + (k, k), dtype=np.complex128)
    for i in range(k):
        out[..., i, i] = vals
    return out


def sup_op_gap(family, tol: float = POWER_ITER_TOL) -> float:
    """Worst |sup f - ||L_f||| / sup f at J = 0 over grid symbols f."""
    worst = 0.0
    for f in family:
        sup = sup_norm(f)
        opn = operator_norm(rieffel_operator(f, DeformationMatrix.zero(f.n)), tol=tol)
        worst = max(worst, abs(sup - opn) / sup)
    return worst


def interplay_residual(pairs, J: DeformationMatrix, h: ModuleVector,
                       tol: float = POWER_ITER_TOL) -> float:
    """Worst ||L_f L_g h - L_{f x_J g} h|| / (||L_f|| ||L_g|| ||h||) over pairs (f, g)."""
    hn = norm_L2(h)
    worst = 0.0
    for f, g in pairs:
        Lf, Lg, Lfg = (rieffel_operator(s, J, N=h.N)
                       for s in (f, g, deformed_product_exact(f, g, J)))
        lhs = Lf.forward(Lg.forward(h.values))
        rhs = Lfg.forward(h.values)
        # tightening the norm estimates only shrinks the denominator
        denom = operator_norm(Lf, tol=tol) * operator_norm(Lg, tol=tol) * hn
        err = float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) * h.weight))
        worst = max(worst, err / denom)
    return worst


def cv_fit(family, L: float, box_xi: float, N: int) -> float:
    """Largest ||Op(a)|| / cv_functional(a) over the family at N points in x."""
    x_ax, xi_ax = axis_points(N, L), axis_points(64, box_xi)
    best = 0.0
    for sym in family:
        vals = sym.evaluate(x_ax[:, None, None], xi_ax[None, :, None])
        dense = GridPhaseSymbol(1, (N, 64), (L, box_xi), vals)
        pi = cv_functional(dense)
        opn = operator_norm(op_from_phase_terms(sym, N))
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


def symbol_map_error(family, N: int, xs, xis) -> float:
    """Worst relative sup error of S(Op(a)) against a on the grid xs x xis."""
    worst = 0.0
    for sym in family:
        S = symbol_map_S(op_from_phase_terms(sym, N), xs, xis)
        truth = sym.evaluate(xs[:, None, None], xis[None, :, None])
        worst = max(worst, float(np.abs(S - truth).max() / np.abs(truth).max()))
    return worst


def inverse_cv_slack(family, N: int, xs, xis) -> float:
    """Largest sup|a| on xs x xis minus the kernel-pairing bound of inverse_cv_bound."""
    worst = -np.inf
    for sym in family:
        op = op_from_phase_terms(sym, N)
        sup_val = float(np.abs(sym.evaluate(xs[:, None, None], xis[None, :, None])).max())
        left, right = inverse_cv_bound(op, sup_val)
        worst = max(worst, left - right)
    return worst


def norm_axiom_slacks(pairs) -> tuple:
    """Over pairs (A, B): max |T_0(A) - ||A|||, the Leibniz slacks T_j(AB) -
    sum_i T_i(A) T_{j-i}(B) (j = 1, 2) and s_m(AB) - s_m(A) s_m(B) (m <= 2)."""
    t0_gap = 0.0
    leibniz = [-np.inf] * 2
    submult = [-np.inf] * 3
    for A, B in pairs:
        AB = A @ B
        ra = differential_norms(A, 2)
        rb = differential_norms(B, 2)
        rab = differential_norms(AB, 2)
        t0_gap = max(t0_gap, abs(ra.T[0] - operator_norm(A)))
        for j in (1, 2):
            bound = sum(ra.T[i] * rb.T[j - i] for i in range(j + 1))
            leibniz[j - 1] = max(leibniz[j - 1], rab.T[j] - bound)
        for m in range(3):
            submult[m] = max(submult[m], rab.s[m] - ra.s[m] * rb.s[m])
    return t0_gap, tuple(leibniz), tuple(submult)


def _relative_gap(a, ref) -> float:
    """Sup distance max |a - ref| relative to max |ref|."""
    return float(np.abs(a - ref).max()) / max(float(np.abs(ref).max()), 1e-300)


def _plane_diff(f: PlaneWaveSymbol, g: PlaneWaveSymbol) -> float:
    fa, ga = dict(f.terms), dict(g.terms)
    return max((float(np.abs(fa.get(m, 0.0) - ga.get(m, 0.0)).max())
                for m in set(fa) | set(ga)), default=0.0)


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
            numeric = deformed_product_numeric(
                f.to_grid(N), g.to_grid(N), J, OscIntegralConfig(check_points=0)
            )
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
        worst = max(worst, _plane_diff(fg, PlaneWaveSymbol(
            2, L, 1, tuple((m, phase * c) for m, c in gf.terms))))
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
    osc = OscIntegralConfig(check_points=0)
    f, g, h = (GridSymbol(2, N, L, gaussian_values(2, N, L, w)) for w in (2.0, 3.0, 1.5))
    left = deformed_product_numeric(deformed_product_numeric(f, g, J, osc), h, J, osc)
    right = deformed_product_numeric(f, deformed_product_numeric(g, h, J, osc), J, osc)
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
    c_small = cv_fit(family, L, box_xi, 64)
    c_large = cv_fit(family, L, box_xi, 128)
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
        back = d_inverse(d_apply(sym))
        orig = {(m, tuple(round(v, 12) for v in w)): c for m, w, c in sym.terms}
        for m, w, c in back.terms:
            ref = orig[(m, tuple(round(v, 12) for v in w))]
            worst = max(worst, float(np.abs(c - ref).max() / np.abs(ref).max()))
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
        symbol_map_error([sym], 64, np.array([0.0, 1.0]), np.array([0.0, 0.5])), 5e-2,
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
    pairs = ((rieffel_operator(random_plane_wave(rng, 1, L, 1, 2, 3), J, N=N),
              rieffel_operator(random_plane_wave(rng, 1, L, 1, 2, 3), J, N=N))
             for _ in range(3))
    t0_gap, leibniz, submult = norm_axiom_slacks(pairs)
    return [
        _record("t0-equals-operator-norm",
                "the zeroth derivation norm is the operator norm", t0_gap, 1e-9),
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
        inv_worst = max(
            inv_worst,
            cstar_norm(prod.matrix) + abs(prod.scalar - 1.0),
        )
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


def run_suites(cfg: RunConfig, names, workers: int = 1) -> list:
    """Run the named suites concurrently; reports sorted by suite name."""

    def run_one(name: str) -> SuiteReport:
        start = time.monotonic()
        records = sorted(SUITES[name](cfg), key=lambda r: r["claim_id"])
        elapsed = time.monotonic() - start
        failures = sum(not r["passed"] for r in records)
        print(f"[{name}] {len(records)} checks, {failures} failed, "
              f"{elapsed:.1f}s", file=sys.stderr)
        return SuiteReport(name, tuple(records), len(records), failures)

    names = sorted(names)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_one, names))
    else:
        reports = [run_one(name) for name in names]
    return sorted(reports, key=lambda r: r.suite)


def _report_json(reports) -> str:
    total_checks = sum(r.checks for r in reports)
    total_failures = sum(r.failures for r in reports)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suites": [r.to_dict() for r in reports],
        "checks": total_checks,
        "failures": total_failures,
        "all_passed": total_failures == 0,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_product(cfg: RunConfig, f_path: str, g_path: str, out_path: str) -> int:
    """Write the deformed product of two symbol files."""
    try:
        f = read_symbol_file(f_path)
        g = read_symbol_file(g_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    n = f.n
    if g.n != n:
        print(f"error: dimension mismatch {f_path} is {n}-d, {g_path} is {g.n}-d",
              file=sys.stderr)
        return EXIT_IO
    if n == 1:
        J = DeformationMatrix.zero(1)
    else:
        J = DeformationMatrix.symplectic(cfg.theta, n)
    try:
        if isinstance(f, PlaneWaveSymbol) and isinstance(g, PlaneWaveSymbol):
            product = deformed_product_exact(f, g, J)
            fg = deformed_product_numeric(
                f.to_grid(cfg.N), g.to_grid(cfg.N), J,
                OscIntegralConfig(tol=cfg.tol, check_points=0),
            )
            disagreement = _relative_gap(fg.values, product.to_grid(cfg.N).values)
        else:
            if isinstance(f, PlaneWaveSymbol):
                f = f.to_grid(g.N)
            if isinstance(g, PlaneWaveSymbol):
                g = g.to_grid(f.N)
            report: dict = {}
            product = deformed_product_numeric(
                f, g, J, OscIntegralConfig(tol=cfg.tol), report=report
            )
            disagreement = report.get("route_disagreement", float("nan"))
    except (ConvergenceError, NoConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except DeformkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    write_symbol_file(product, out_path)
    print(f"route disagreement: {disagreement:.3e}", file=sys.stderr)
    print(f"wrote {out_path}")
    return EXIT_PASS


def _pi_functional(phase: PlaneWavePhaseSymbol, L: float) -> float:
    """Derivative functional by exact termwise derivatives, sampled sup."""
    n = phase.n
    w_max = max((max(abs(v) for v in w) for _, w, _ in phase.terms), default=0.0)
    box_xi = max(2.0 * np.pi, 2.0 * w_max)
    pts = 256 if n == 1 else 32
    x_ax = np.linspace(-L, L, pts, endpoint=False)
    xi_ax = np.linspace(-box_xi, box_xi, pts, endpoint=False)
    x_pts = np.stack(np.meshgrid(*([x_ax] * n), indexing="ij"), axis=-1)
    xi_pts = np.stack(np.meshgrid(*([xi_ax] * n), indexing="ij"), axis=-1)
    x_pts = x_pts.reshape((pts,) * n + (1,) * n + (n,))
    xi_pts = xi_pts.reshape((1,) * n + (pts,) * n + (n,))
    best = 0.0
    for beta in np.ndindex(*((2,) * (2 * n))):
        d = derivative(phase, tuple(beta)) if any(beta) else phase
        vals = d.evaluate(x_pts, xi_pts)
        if phase.k == 1:
            sup = float(np.abs(vals).max())
        else:
            sup = float(np.linalg.norm(vals, ord=2, axis=(-2, -1)).max())
        best = max(best, sup)
    return best


def cmd_norms(cfg: RunConfig, f_path: str, sweep: str | None,
              out_path: str | None) -> int:
    """Emit the CSV of norm functionals over a theta sweep."""
    try:
        f = read_symbol_file(f_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        thetas = parse_theta_sweep(sweep) if sweep else tuple(
            round(0.1 * i, 12) for i in range(11)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    m = cfg.norm_order
    header = (["theta", "sup_norm", "op_norm"]
              + [f"T_{j}" for j in range(m + 1)]
              + [f"s_{j}" for j in range(m + 1)]
              + ["cv_ratio"])
    rows = [",".join(header)]
    n = f.n
    N = f.N if isinstance(f, GridSymbol) else cfg.N
    sup = sup_norm(f)
    status = EXIT_PASS
    for theta in thetas:
        J = DeformationMatrix.zero(1) if n == 1 else DeformationMatrix.symplectic(theta, n)
        op = rieffel_operator(f, J, N=N)
        rep = differential_norms(op, m)
        opn = rep.op_norm
        pi = _pi_functional(op.terms, f.L)
        ratio = opn / pi if pi > 0 else 0.0
        row = [f"{theta:g}", f"{sup:.12g}", f"{opn:.12g}"]
        row += [f"{v:.12g}" for v in rep.T]
        row += [f"{v:.12g}" for v in rep.s]
        row.append(f"{ratio:.12g}")
        rows.append(",".join(row))
        if abs(theta) < 1e-12 and abs(sup - opn) > 0.02 * sup:
            print(f"check failure: sup norm {sup:.6g} and operator norm "
                  f"{opn:.6g} disagree beyond 2% at theta = 0", file=sys.stderr)
            status = EXIT_CHECK
    text = "\n".join(rows) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)
    return status


def cmd_verify(cfg: RunConfig, suites, workers: int | None,
               out_path: str | None) -> int:
    """Run verification suites and write the JSON report."""
    names = list(suites) if suites else sorted(SUITES)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        print(f"error: unknown suite(s): {', '.join(sorted(unknown))}; "
              f"available: {', '.join(sorted(SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    reports = run_suites(cfg, names, workers or cfg.workers)
    print(f"total wall-clock: {time.monotonic() - start:.1f}s", file=sys.stderr)
    text = _report_json(reports)
    target = out_path or cfg.out
    if target:
        Path(target).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    failures = sum(r.failures for r in reports)
    for r in reports:
        status = "ok" if r.failures == 0 else f"{r.failures} FAILED"
        print(f"{r.suite}: {r.checks} checks, {status}", file=sys.stderr)
    return EXIT_PASS if failures == 0 else EXIT_CHECK


def cmd_info(cfg: RunConfig) -> int:
    """Print the resolved configuration and available suites."""
    print(f"deformkit {__version__}")
    print(f"geometry: N = {cfg.N}, L = {cfg.L:g}")
    print(f"deformation: theta = {cfg.theta:g}")
    print(f"tolerance: {cfg.tol:g}")
    print(f"norm order: {cfg.norm_order}")
    print(f"seed: {cfg.seed}")
    print("formats: RSYM1 binary grids, plane-wave JSON")
    print(f"suites: {', '.join(sorted(SUITES))}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="deformkit", description=__doc__)
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_product = sub.add_parser("product", help="deformed product of two symbol files")
    p_product.add_argument("f", help="left factor (RSYM1 or plane-wave JSON)")
    p_product.add_argument("g", help="right factor")
    p_product.add_argument("--out", metavar="PATH", required=True,
                           help="output symbol file")

    p_norms = sub.add_parser("norms", help="norm functional CSV over a theta sweep")
    p_norms.add_argument("f", help="symbol file")
    p_norms.add_argument("--theta-sweep", metavar="START:STEP:END",
                         help="inclusive sweep (default 0:0.1:1)")
    p_norms.add_argument("--out", metavar="PATH", help="CSV path (default stdout)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suites", metavar="a,b,c",
                          help="comma-separated suite names (default all)")
    p_verify.add_argument("--workers", type=int, metavar="INT",
                          help="concurrent suite count (at least 1)")
    p_verify.add_argument("--out", metavar="PATH",
                          help="JSON report path (default stdout)")

    sub.add_parser("info", help="print configuration and available suites")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.config:
        try:
            cfg = parse_config(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        cfg = RunConfig()
    if args.command == "product":
        return cmd_product(cfg, args.f, args.g, args.out)
    if args.command == "norms":
        return cmd_norms(cfg, args.f, args.theta_sweep, args.out)
    if args.command == "verify":
        suites = None
        if args.suites is not None:
            suites = [s.strip() for s in args.suites.split(",") if s.strip()]
        elif cfg.suites:
            suites = list(cfg.suites)
        return cmd_verify(cfg, suites, args.workers, args.out)
    if args.command == "info":
        return cmd_info(cfg)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
