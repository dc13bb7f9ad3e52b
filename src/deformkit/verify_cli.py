"""Command-line front end: products, norm sweeps, and verification suites.

Subcommands: ``product`` writes the deformed product of two symbol
files, ``norms`` sweeps theta and emits a CSV of norm functionals,
``verify`` runs named check suites and writes a JSON report, ``info``
prints the resolved configuration.  A flag overrides its config key.
Exit codes: 0 pass, 1 check failure or unsettled norm, 2 bad input or an
unwritable output (found before any work), 3 usage error.

Each command imports only the layers it runs: ``product`` needs
``deformation`` and ``symbols``, ``norms`` adds ``pseudodiff`` and
``heisenberg``, and ``verify`` and ``info`` load the suites (``suites``).
Wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .deformation import deformed_product_exact, deformed_product_numeric, tilde_map
from .errors import ConvergenceError, DeformkitError, NoConvergenceError
from .symbols import (
    MAX_DERIV_ORDER,
    DeformationMatrix,
    GridSymbol,
    PlaneWaveSymbol,
    _relative_gap,
    read_symbol_file,
    sup_norm,
    write_symbol_file,
)

__all__ = [
    "RunConfig", "parse_config", "parse_theta_sweep",
    "cmd_product", "cmd_norms", "cmd_verify", "cmd_info", "main",
]

EXIT_PASS = 0
EXIT_CHECK = 1
EXIT_IO = 2
EXIT_USAGE = 3

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
    norm_order: int = 2
    seed: int = 20260815
    workers: int = 1
    out: str = ""
    suites: tuple = ()

    def __post_init__(self):
        if self.N < 4 or self.N > MAX_GRID_N or self.N & (self.N - 1) != 0:
            raise ValueError(f"N must be a power of two in [4, {MAX_GRID_N}], got {self.N}")
        for name in ("L", "theta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
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


def __getattr__(name: str):
    """SUITES, loaded on first use: the dict that cmd_verify runs, so that a caller
    who wraps its entries in place wraps the suites verify runs."""
    if name == "SUITES":
        from .suites import SUITES
        return SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    J = _deformation(f.n, cfg.theta)
    if isinstance(f, PlaneWaveSymbol) and isinstance(g, PlaneWaveSymbol):
        product = deformed_product_exact(f, g, J)
        fg = deformed_product_numeric(_on_grid(f, cfg.N), _on_grid(g, cfg.N), J, True)
        disagreement = _relative_gap(fg.values, product.to_grid(cfg.N).values)
    else:
        N = g.N if isinstance(f, PlaneWaveSymbol) else f.N
        f, g = _on_grid(f, N), _on_grid(g, N)
        report: dict = {}
        product = deformed_product_numeric(f, g, J, report=report)
        disagreement = report["route_disagreement"]
    write_symbol_file(product, cfg.out)
    print(f"route disagreement: {disagreement:.3e}", file=sys.stderr)
    print(f"wrote {cfg.out}")
    return EXIT_PASS


def cmd_norms(cfg: RunConfig, f_path: str, thetas) -> int:
    """Emit the CSV of norm functionals over the theta values thetas."""
    from .heisenberg import differential_norms
    from .pseudodiff import cv_functional

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
    """Run each suite of cfg.suites (default all) once, by name; write the JSON report."""
    from .suites import SUITES, _report_json, run_suites

    names = sorted(set(cfg.suites or SUITES))
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        print(f"error: unknown suite(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    reports = run_suites(cfg, names)
    print(f"total wall-clock: {time.monotonic() - start:.1f}s", file=sys.stderr)
    _emit(_report_json(reports), cfg.out)
    return EXIT_PASS if all(r["failures"] == 0 for r in reports) else EXIT_CHECK


def cmd_info(cfg: RunConfig) -> int:
    """Print the resolved configuration and available suites."""
    from .suites import SUITES

    print(f"deformkit {__version__}")
    print(f"geometry: N = {cfg.N}, L = {cfg.L:g}")
    print(f"deformation: theta = {cfg.theta:g}")
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
