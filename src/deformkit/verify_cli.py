"""Command-line front end: products, norm sweeps, and verification suites.

Subcommands: ``product`` writes the deformed product of two symbol
files, ``norms`` sweeps theta and emits a CSV of norm functionals,
``verify`` runs named check suites and writes a JSON report, ``info``
prints the resolved configuration.  A flag overrides its config key.
Exit codes: 0 pass, 1 check failure or unsettled norm, 2 bad input or an
unwritable output (found before any work), 3 usage error.

Reports are deterministic: fixed seeds, fixed reduction orders, records
sorted by claim id.  Wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
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
    _compose_terms,
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
    tilde_map,
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
    NORM_TOL,
    cv_functional,
    fourier_operator,
    op_from_phase_terms,
    phase_norms,
    rieffel_operator,
)
from .symbols import (
    MAX_DERIV_ORDER,
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    _sample_norms,
    axis_points,
    centered_idft,
    inner_product,
    norm_L2,
    read_symbol_file,
    sup_norm,
    write_symbol_file,
)

__all__ = [
    "RunConfig", "parse_config", "parse_theta_sweep", "run_suites", "SUITES",
    "cmd_product", "cmd_norms", "cmd_verify", "cmd_info", "main",
    # seeded families and claim measurements, shared with the acceptance tests
    "random_plane_wave", "random_phase_symbol", "band_limited_vector", "gaussian_values",
    "sup_op_gap", "interplay_residual", "cv_fit", "derivation_error",
    "kernel_identity_worst", "symbol_map_error", "inverse_cv_slack", "t0_gap",
    "norm_axiom_slacks",
]

EXIT_PASS = 0
EXIT_CHECK = 1
EXIT_IO = 2
EXIT_USAGE = 3

SCHEMA_VERSION = 1

# Finite-difference step of derivation_error.
DERIVATION_FD_STEP = 1e-3

# Most theta values one sweep may hold (the default sweep has 11).
MAX_SWEEP_POINTS = 100_000

# Most grid points per axis a run may ask for: desk scale.
MAX_GRID_N = 1024


@dataclasses.dataclass(frozen=True)
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
        if self.N < 4 or self.N > MAX_GRID_N or self.N & (self.N - 1) != 0:
            raise ValueError(f"N must be a power of two in [4, {MAX_GRID_N}], got {self.N}")
        for name in ("L", "theta", "tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0 <= self.norm_order <= MAX_DERIV_ORDER:
            raise ValueError(
                f"norm_order must be in [0, {MAX_DERIV_ORDER}], got {self.norm_order}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")


def _names(text: str) -> tuple:
    """The comma-separated names of text, stripped, empty ones dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def parse_config(path) -> RunConfig:
    """Parse a flat UTF-8 ``key = value`` file with # comments; each value
    takes the type of its key's default."""
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
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
        if key not in defaults:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = type(defaults[key])
        values[key] = _names(val) if kind is tuple else kind(val)
    return RunConfig(**values)


def parse_theta_sweep(spec: str) -> tuple:
    """Parse 'start:step:end' into an inclusive tuple of theta values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"theta sweep must be start:step:end, got {spec!r}")
    start, step, end = (float(p) for p in parts)
    if not np.isfinite([start, step, end]).all():
        raise ValueError(f"theta sweep parts must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError(f"theta sweep step must be positive, got {step}")
    span = (end - start) / step + 1e-9  # an overflow gives inf
    if not span < MAX_SWEEP_POINTS:
        raise ValueError(f"theta sweep {spec!r} has more than {MAX_SWEEP_POINTS} points")
    count = int(np.floor(span)) + 1
    if count < 1:
        raise ValueError(f"theta sweep {spec!r} is empty")
    return tuple(round(start + i * step, 12) for i in range(count))


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
    r2 = sum((m - shift) ** 2 for m in mesh)
    vals = np.exp(-r2 / width) * np.exp(1j * freq * mesh[0])
    out = np.zeros(vals.shape + (k, k), dtype=np.complex128)
    for i in range(k):
        out[..., i, i] = vals
    return out


def sup_op_gap(family, tol: float = NORM_TOL) -> float:
    """Worst |sup f - ||L_f||| / sup f at J = 0 over grid symbols f; the norms of the
    symbols of one grid and box run in one lockstep run."""
    family, grids, norms = list(family), {}, {}
    for i, f in enumerate(family):
        grids.setdefault((f.n, f.N, f.L, f.k), []).append(i)
    for (n, N, _, _), members in grids.items():
        lifts = [tilde_map(family[i], DeformationMatrix.zero(n)) for i in members]
        norms.update(zip(members, phase_norms(lifts, N, tol)))
    worst = 0.0
    for i, f in enumerate(family):
        sup = sup_norm(f)
        worst = max(worst, abs(sup - norms[i]) / sup)
    return worst


def interplay_residual(pairs, J: DeformationMatrix, h: ModuleVector,
                       tol: float = NORM_TOL) -> float:
    """Worst ||L_f L_g h - L_{f x_J g} h|| / (||L_f|| ||L_g|| ||h||) over pairs (f, g)."""
    pairs = list(pairs)
    lifts = [tilde_map(s, J) for pair in pairs for s in pair]
    norms = phase_norms(lifts, h.N, tol)
    hn = norm_L2(h)
    worst = 0.0
    for (f, g), lf, lg, nf, ng in zip(pairs, lifts[::2], lifts[1::2], norms[::2], norms[1::2]):
        Lf, Lg = op_from_phase_terms(lf, h.N), op_from_phase_terms(lg, h.N)
        Lfg = rieffel_operator(deformed_product_exact(f, g, J), J, N=h.N)
        lhs = Lf.forward(Lg.forward(h.values))
        rhs = Lfg.forward(h.values)
        # tightening the norm estimates only shrinks the denominator
        denom = nf * ng * hn
        err = float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) * h.weight))
        worst = max(worst, err / denom)
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


def _relative_gap(a, ref) -> float:
    """Sup distance max |a - ref| relative to max |ref|."""
    return float(np.abs(a - ref).max()) / max(float(np.abs(ref).max()), 1e-300)


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
        assert all(np.array_equal(back[name], sym.terms[name]) for name in ("m", "w"))
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
    """Run the named suites on cfg.workers threads; reports sorted by suite name."""

    def run_one(name: str) -> dict:
        start = time.monotonic()
        records = sorted(SUITES[name](cfg), key=lambda r: r["claim_id"])
        elapsed = time.monotonic() - start
        failures = sum(not r["passed"] for r in records)
        print(f"[{name}] {len(records)} checks, {failures} failed, "
              f"{elapsed:.1f}s", file=sys.stderr)
        return {"suite": name, "records": records, "checks": len(records),
                "failures": failures}

    names = sorted(names)
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


# ---------------------------------------------------------------------------
# Subcommands


def _deformation(n: int, theta: float) -> DeformationMatrix:
    """theta times the symplectic form; zero for n = 1, which has none."""
    return DeformationMatrix.zero(1) if n == 1 else DeformationMatrix.symplectic(theta, n)


def _emit(text: str, target: str) -> None:
    """Write text to the file target, or to stdout when target is empty."""
    if target:
        Path(target).write_text(text, encoding="utf-8")
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)


def _on_grid(f, N: int) -> GridSymbol:
    """f on the N-point grid, which holds the frequencies [-N/2, N/2) per axis: a plane wave
    with a frequency outside it would alias there, ValueError naming m and N."""
    if isinstance(f, GridSymbol):
        return f
    outside = [m for m in f.terms["m"].tolist() if not all(-N // 2 <= v < N // 2 for v in m)]
    if outside:
        raise ValueError(f"plane-wave frequency m = {tuple(outside[0])} lies outside "
                         f"[-{N // 2}, {N // 2}) of the N = {N} grid and would alias")
    return f.to_grid(N)


def cmd_product(cfg: RunConfig, f_path: str, g_path: str) -> int:
    """Write the deformed product of two symbol files to cfg.out."""
    f = read_symbol_file(f_path)
    g = read_symbol_file(g_path)
    if g.n != f.n:
        raise ValueError(f"dimension mismatch {f_path} is {f.n}-d, {g_path} is {g.n}-d")
    J = _deformation(f.n, cfg.theta)
    if isinstance(f, PlaneWaveSymbol) and isinstance(g, PlaneWaveSymbol):
        product = deformed_product_exact(f, g, J)
        fg = deformed_product_numeric(
            _on_grid(f, cfg.N), _on_grid(g, cfg.N), J,
            OscIntegralConfig(tol=cfg.tol, check_points=0),
        )
        disagreement = _relative_gap(fg.values, product.to_grid(cfg.N).values)
    else:
        N = g.N if isinstance(f, PlaneWaveSymbol) else f.N
        f, g = _on_grid(f, N), _on_grid(g, N)
        report: dict = {}
        product = deformed_product_numeric(
            f, g, J, OscIntegralConfig(tol=cfg.tol), report=report
        )
        disagreement = report.get("route_disagreement", float("nan"))
    write_symbol_file(product, cfg.out)
    print(f"route disagreement: {disagreement:.3e}", file=sys.stderr)
    print(f"wrote {cfg.out}")
    return EXIT_PASS


def cmd_norms(cfg: RunConfig, f_path: str, thetas) -> int:
    """Emit the CSV of norm functionals over the theta values thetas."""
    f = read_symbol_file(f_path)
    m = cfg.norm_order
    header = (["theta", "sup_norm", "op_norm"]
              + [f"T_{j}" for j in range(m + 1)]
              + [f"s_{j}" for j in range(m + 1)]
              + ["cv_ratio"])
    rows = [",".join(header)]
    n = f.n
    N = f.N if isinstance(f, GridSymbol) else cfg.N
    # at theta = 0 the operator multiplies by f on the N-point grid, so its
    # norm is the grid maximum of |f|, which a dense sup_norm can exceed
    grid_max = sup_norm(_on_grid(f, N))
    sup = grid_max if isinstance(f, GridSymbol) else sup_norm(f)
    # pi's sample grid: pts points per axis over [-L, L)^n x [-Xi, Xi)^n
    pts = 256 if n == 1 else 32
    status = EXIT_PASS
    for theta in thetas:
        sym = tilde_map(f, _deformation(n, theta))
        rep = differential_norms(sym, N, m)
        opn = rep.op_norm
        w_max = float(np.abs(sym.terms["w"]).max(initial=0.0))
        box_xi = max(2.0 * np.pi, 2.0 * w_max)
        pi = cv_functional(sym, pts, np.linspace(-box_xi, box_xi, pts, endpoint=False))
        ratio = opn / pi if pi > 0 else 0.0
        row = [f"{theta:g}", f"{sup:.12g}", f"{opn:.12g}"]
        row += [f"{v:.12g}" for v in rep.T]
        row += [f"{v:.12g}" for v in rep.s]
        row.append(f"{ratio:.12g}")
        rows.append(",".join(row))
        if abs(theta) < 1e-12 and abs(grid_max - opn) > 0.02 * grid_max:
            print(f"check failure: grid maximum {grid_max:.6g} and operator norm "
                  f"{opn:.6g} disagree beyond 2% at theta = 0", file=sys.stderr)
            status = EXIT_CHECK
    _emit("\n".join(rows) + "\n", cfg.out)
    return status


def cmd_verify(cfg: RunConfig) -> int:
    """Run the suites of cfg.suites (default all) and write the JSON report."""
    names = cfg.suites or sorted(SUITES)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        print(f"error: unknown suite(s): {', '.join(sorted(unknown))}; "
              f"available: {', '.join(sorted(SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    reports = run_suites(cfg, names)
    print(f"total wall-clock: {time.monotonic() - start:.1f}s", file=sys.stderr)
    _emit(_report_json(reports), cfg.out)
    for r in reports:
        status = "ok" if r["failures"] == 0 else f"{r['failures']} FAILED"
        print(f"{r['suite']}: {r['checks']} checks, {status}", file=sys.stderr)
    return EXIT_PASS if all(r["failures"] == 0 for r in reports) else EXIT_CHECK


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
    p_verify.add_argument("--suites", metavar="a,b,c", type=_names,
                          help="comma-separated suite names (default all)")
    p_verify.add_argument("--workers", type=int, metavar="INT",
                          help="concurrent suite count (at least 1)")
    p_verify.add_argument("--out", metavar="PATH",
                          help="JSON report path (default stdout)")

    sub.add_parser("info", help="print configuration and available suites")
    return parser


def _check_writable(path: str) -> None:
    """Raise OSError unless path names a file in a writable directory."""
    target = Path(path)
    if not target.parent.is_dir() or target.is_dir() or not os.access(target.parent, os.W_OK):
        raise OSError(f"cannot write {path}: not a file in a writable directory")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.command == "norms":
        try:
            thetas = parse_theta_sweep(args.theta_sweep or "0:0.1:1")
        except ValueError as exc:
            parser.error(f"--theta-sweep: {exc}")
    flags = {key: getattr(args, key) for key in ("out", "workers", "suites")
             if getattr(args, key, None) is not None}
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        cfg = dataclasses.replace(cfg, **flags)
        if args.command == "info":
            return cmd_info(cfg)
        if cfg.out:
            _check_writable(cfg.out)
        if args.command == "product":
            return cmd_product(cfg, args.f, args.g)
        if args.command == "norms":
            return cmd_norms(cfg, args.f, thetas)
        return cmd_verify(cfg)
    except (ConvergenceError, NoConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (OSError, ValueError, DeformkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
