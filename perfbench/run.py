"""deformkit benchmark: closed-loop workloads over the CLI and the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a deformkit checkout; the program is imported from
``src/`` of that checkout.  NAME is one of WORKLOADS, or ``all`` to run
each in turn.  Every workload is a closed loop with one client: the next
operation starts when the previous one has exited.  Inputs are generated
from the seed into ``.perfbench_work/`` and the program sees only those
files.  Every child process runs with BLAS and OpenMP pinned to one
thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics of the traced pass.
See NOTES.md for the workloads, the seeds and the findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "deformkit"
WORK = ROOT / ".perfbench_work"

# Fixes the cost-relevant structure of every input (frequencies, widths,
# coefficient magnitudes).  It is the program's own default seed, not one
# picked for speed.  The --seed of a run only draws unit phases and
# amplitudes, which leave the work of every operation unchanged; see NOTES.md.
STRUCTURE_SEED = 20260815

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
RUN_BUDGET_S = 170.0
CLI = ["-m", "deformkit.verify_cli"]

L_BOX = 6.0
RSYM_HEADER = struct.Struct("<4sIBHId")

MODULES = ("symbols", "deformation", "pseudodiff", "heisenberg", "coeff_algebra",
           "verify_cli")
SUITES = ("associativity", "cv", "d-roundtrip", "derivatives", "fourier-inversion",
          "interplay", "inverse-cv", "kernel-identity", "norm-hierarchy",
          "plancherel", "product-oracle", "smoothing", "sup-op", "symbol-map",
          "unitization")

# Per-layer metrics: name -> (unit, source kind, trace key).  Kinds:
# calls / seconds / self (self time) read the trace's span aggregates,
# counter / maximum its counters, and "run" values the run computes itself.
LAYER_METRICS = {
    "pseudodiff.operator_norm.calls": ("count", "calls", "pseudodiff.operator_norm"),
    "pseudodiff.operator_norm.s": ("s", "seconds", "pseudodiff.operator_norm"),
    "pseudodiff.operator_norm.applications":
        ("count", "counter", "pseudodiff.operator_norm.applications"),
    "pseudodiff.operator_norm.sup_gap": ("ratio", "run", None),
    "pseudodiff.apply.s_per_application": ("s", "run", None),
    "pseudodiff.op_from_phase_terms.s": ("s", "self", "pseudodiff.op_from_phase_terms"),
    "heisenberg.differential_norms.s": ("s", "self", "heisenberg.differential_norms"),
    "deformation.tilde_map.terms": ("count", "counter", "deformation.tilde_map.terms"),
    "deformation.tilde_map.s": ("s", "seconds", "deformation.tilde_map"),
    "deformation.product_numeric.calls": ("count", "calls", "deformation.product_numeric"),
    "deformation.product_numeric.s": ("s", "seconds", "deformation.product_numeric"),
    "deformation.product_numeric.route_disagreement":
        ("ratio", "maximum", "deformation.product_numeric.route_disagreement"),
    "deformation.product_exact.s": ("s", "seconds", "deformation.product_exact"),
    "symbols.centered_dft.calls": ("count", "calls", "symbols.centered_dft"),
    "symbols.centered_dft.s": ("s", "seconds", "symbols.centered_dft"),
    "symbols.centered_dft.points": ("count", "counter", "symbols.centered_dft.points"),
    "symbols.evaluate.s": ("s", "seconds", "symbols.evaluate"),
    "symbols.evaluate.term_points": ("count", "counter", "symbols.evaluate.term_points"),
    "symbols.io.s": ("s", "seconds", "symbols.io"),
    "symbols.io.bytes": ("bytes", "counter", "symbols.io.bytes"),
    "symbols.sup_norm.s": ("s", "seconds", "symbols.sup_norm"),
    "heisenberg.symbol_map_S.s": ("s", "seconds", "heisenberg.symbol_map_S"),
    "heisenberg.inverse_cv_bound.s": ("s", "seconds", "heisenberg.inverse_cv_bound"),
    "heisenberg.d_inverse.s": ("s", "seconds", "heisenberg.d_inverse"),
    "heisenberg.kernel_identity_residual.s":
        ("s", "seconds", "heisenberg.kernel_identity_residual"),
    "coeff_algebra.s": ("s", "seconds", "coeff_algebra"),
    "verify_cli.import_s": ("s", "run", None),
    **{f"verify_cli.suite.{s}.s": ("s", "seconds", f"verify_cli.suite.{s}") for s in SUITES},
    **{f"{m}.src_lines": ("lines", "run", None) for m in MODULES},
    "trace.wall_s": ("s", "run", None),
    "trace.overhead_s": ("s", "run", None),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


class Runner:
    """Starts one child at a time, times it and reads its peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv, log: Path):
        """(exit code, wall seconds, peak RSS in MB); code None if killed."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return None, 0.0, 0.0
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if killed.is_set() else proc.returncode
        return code, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Input files (written here, so the program sees only generated files)


def gaussian(N: int, width: float, amplitude: complex) -> np.ndarray:
    ax = (np.arange(N) - N // 2) * (2.0 * L_BOX / N)
    x, y = np.meshgrid(ax, ax, indexing="ij")
    return amplitude * np.exp(-(x * x + y * y) / width)


def write_rsym(path: Path, values: np.ndarray):
    N = values.shape[0]
    header = RSYM_HEADER.pack(b"RSYM", 1, 2, 1, N, L_BOX)
    path.write_bytes(header + np.ascontiguousarray(values, dtype="<c16").tobytes())


def read_rsym(path: Path) -> tuple:
    """(N, values) of a 2-D scalar RSYM1 file on the benchmark's box."""
    raw = path.read_bytes()
    magic, version, n, k, N, L = RSYM_HEADER.unpack_from(raw, 0)
    if (magic, version, n, k, L) != (b"RSYM", 1, 2, 1, L_BOX):
        raise ValueError(f"unexpected RSYM header {(magic, version, n, k, N, L)}")
    if len(raw) != RSYM_HEADER.size + 16 * N * N:
        raise ValueError(f"RSYM payload of {len(raw)} bytes for N = {N}")
    return N, np.frombuffer(raw, dtype="<c16", offset=RSYM_HEADER.size).reshape(N, N)


def unit_amplitude(rng) -> complex:
    """Amplitude in [0.5, 2) with a uniform phase; scale-free work is unchanged."""
    return float(rng.uniform(0.5, 2.0)) * complex(np.exp(2j * np.pi * rng.random()))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A closed loop of CLI operations; subclasses define inputs and checks."""

    name = ""
    why = ""
    passes = 1

    def generate(self, seed: int, d: Path) -> dict:
        raise NotImplementedError

    def operations(self, ctx: dict, d: Path, tag: str) -> list:
        """One pass: [(cli argv, check(code) -> error or None)]."""
        raise NotImplementedError

    def run_pass(self, ctx, runner, d, tag, traced):
        """Run one pass; returns (wall per operation, peak RSS, attempted, errors, traces)."""
        walls, rss, attempted, errors, traces = [], 0.0, 0, [], []
        for i, (argv, check) in enumerate(self.operations(ctx, d, tag)):
            if traced:
                trace = d / f"trace-{tag}-{i}.json"
                cmd = [str(BENCH_DIR / "child.py"), "cli", str(trace), *argv]
                traces.append(trace)
            else:
                cmd = [*CLI, *argv]
            code, seconds, peak = runner.run(cmd, d / f"log-{tag}-{i}.txt")
            walls.append(seconds)
            rss = max(rss, peak)
            attempted += 1
            if code is None:
                errors.append(f"{argv[0]}: killed at the run's time budget")
                break
            error = check(code)
            if error:
                errors.append(f"{argv[0]} ({tag}): {error}")
        return walls, rss, attempted, errors, traces

    def timed(self, ctx, runner, d, seconds):
        """Closed loop of `passes` passes and at least `seconds` seconds.

        Returns (per pass, the wall time of each operation), peak RSS,
        attempted operations and errors.
        """
        passes, rss, attempted, errors = [], 0.0, 0, []
        start = time.perf_counter()
        while len(passes) < self.passes or time.perf_counter() - start < seconds:
            if passes and time.perf_counter() + sum(passes[-1]) > runner.deadline:
                break
            walls, peak, n, errs, _ = self.run_pass(ctx, runner, d, f"p{len(passes)}", False)
            passes.append(walls)
            rss, attempted = max(rss, peak), attempted + n
            errors += errs
            if errs:
                break
        return passes, rss, attempted, errors

    def traced(self, ctx, runner, d):
        """One untraced then one traced pass: (pass walls, attempted, errors, trace files)."""
        plain, _, n1, errors, _ = self.run_pass(ctx, runner, d, "plain", False)
        traced, _, n2, errs, traces = self.run_pass(ctx, runner, d, "traced", True)
        return (sum(plain), sum(traced)), n1 + n2, errors + errs, traces


class VerifyAll(Workload):
    name = "verify-all"
    why = ("deformkit verify over all suites with the default config: the broadest "
           "mix, and the only one with the symbol map and the suites")
    passes = 2

    def generate(self, seed, d):
        # The suites draw their families from the program's own default
        # seed; the report must be identical on every repetition of a run.
        return {"digest": None}

    def operations(self, ctx, d, tag):
        report = d / f"report-{tag}.json"

        def check(code):
            if code != 0:
                return f"exit code {code}"
            doc = json.loads(report.read_text(encoding="utf-8"))
            if doc.get("all_passed") is not True or not doc.get("suites"):
                return f"all_passed is {doc.get('all_passed')!r}"
            digest = sha256(report)
            if ctx["digest"] is None:
                ctx["digest"] = digest
            elif digest != ctx["digest"]:
                return "report differs from the first one of this run"
            for suite in doc["suites"]:
                for record in suite["records"]:
                    if record["claim_id"] == "sup-equals-op-norm-at-theta-zero":
                        ctx["sup_gap"] = float(record["measured"])
            return None

        return [(["verify", "--out", str(report)], check)]


NORMS_HEADER = "theta,sup_norm,op_norm,T_0,T_1,T_2,s_0,s_1,s_2,cv_ratio"


class NormsPlaneWave(Workload):
    name = "norms-planewave"
    why = ("deformkit norms on a 3-term plane wave over theta 0 and 0.25: "
           "iteration-bound operator norms with cheap applications")
    passes = 3
    sweep = "0:0.25:0.25"
    grid = 16

    def generate(self, seed, d):
        structure = np.random.default_rng(STRUCTURE_SEED)
        terms = []
        for _ in range(3):
            m = [int(v) for v in structure.integers(-2, 3, size=2)]
            terms.append((m, complex(structure.normal(), structure.normal())))
        phase = complex(np.exp(2j * np.pi * np.random.default_rng(seed).random()))
        doc = {"n": 2, "L": L_BOX, "terms": [
            {"m": m, "coeff": [[[(c * phase).real, (c * phase).imag]]]} for m, c in terms
        ]}
        symbol = d / "planewave.json"
        symbol.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        config = d / "norms.cfg"
        config.write_text(f"N = {self.grid}\n", encoding="utf-8")
        l1 = sum(abs(c) for _, c in terms)
        return {"symbol": symbol, "config": config, "l1": l1, "digest": None}

    def operations(self, ctx, d, tag):
        out = d / f"norms-{tag}.csv"

        def check(code):
            if code != 0:
                return f"exit code {code}"
            lines = out.read_text(encoding="utf-8").splitlines()
            if not lines or lines[0] != NORMS_HEADER:
                return f"CSV header {lines[:1]!r}"
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            if [r["theta"] for r in rows] != ["0", "0.25"]:
                return f"theta column {[r['theta'] for r in rows]!r}"
            for r in rows:
                values = {k: float(v) for k, v in r.items()}
                if not all(math.isfinite(v) for v in values.values()):
                    return f"non-finite value at theta {r['theta']}"
                if r["op_norm"] != r["T_0"]:
                    return f"op_norm {r['op_norm']} != T_0 {r['T_0']}"
                total = 0.0
                for j in range(3):
                    total += values[f"T_{j}"]
                    if not rel_close(values[f"s_{j}"], total, 1e-10):
                        return f"s_{j} = {r[f's_{j}']} is not the sum of T_0..T_{j}"
                if values["op_norm"] > ctx["l1"] * (1 + 1e-9):
                    return f"op_norm {r['op_norm']} above the l1 bound {ctx['l1']:.12g}"
            sup, op = float(rows[0]["sup_norm"]), float(rows[0]["op_norm"])
            ctx["sup_gap"] = abs(sup - op) / sup
            if ctx["sup_gap"] > 0.02:
                return f"sup/op gap {ctx['sup_gap']:.3g} > 0.02 at theta 0"
            digest = sha256(out)
            if ctx["digest"] is None:
                ctx["digest"] = digest
            elif digest != ctx["digest"]:
                return "CSV differs from the first pass of this run"
            return None

        argv = ["--config", str(ctx["config"]), "norms", str(ctx["symbol"]),
                "--theta-sweep", self.sweep, "--out", str(out)]
        return [(argv, check)]


class ProductGrid(Workload):
    name = "product-grid"
    why = ("deformkit product on Gaussian RSYM grid pairs at N = 64, 128, 256: "
           "deformation-bound, no operator norm, and CLI start-up")
    passes = 4
    sizes = (64, 128, 256)
    widths = (1.2, 0.9)

    def generate(self, seed, d):
        rng = np.random.default_rng(seed)
        pairs = {}
        for N in self.sizes:
            paths = []
            for name, width in zip("fg", self.widths):
                path = d / f"{name}{N}.rsym"
                write_rsym(path, gaussian(N, width, unit_amplitude(rng)))
                paths.append(path)
            pairs[N] = paths
        return {"pairs": pairs}

    def operations(self, ctx, d, tag):
        ops = []
        for N, (f, g) in ctx["pairs"].items():
            out = d / f"fg{N}-{tag}.rsym"

            def check(code, out=out, N=N):
                if code != 0:
                    return f"exit code {code} at N = {N}"
                got, values = read_rsym(out)
                if got != N:
                    return f"output grid N = {got}, expected {N}"
                if not np.isfinite(values).all():
                    return f"non-finite product values at N = {N}"
                return None

            ops.append((["product", str(f), str(g), "--out", str(out)], check))
        return ops


class OpnormGrid(Workload):
    name = "opnorm-grid"
    why = ("library operator_norm(rieffel_operator(f, J)) of a 32x32 Gaussian at "
           "theta 0 and 0.25: term-bound applications, few iterations")
    passes = 3
    grid = 32
    width = 1.2

    def generate(self, seed, d):
        values = gaussian(self.grid, self.width, unit_amplitude(np.random.default_rng(seed)))
        path = d / "gaussian32.rsym"
        write_rsym(path, values)
        l1 = float(np.abs(np.fft.fft2(values)).sum()) / values.size
        return {"input": path, "sup": float(np.abs(values).max()), "l1": l1}

    def _child(self, ctx, runner, d, tag, passes, seconds, trace):
        result = d / f"opnorm-{tag}.json"
        cmd = [str(BENCH_DIR / "child.py"), "opnorm", str(ctx["input"]), str(result),
               str(passes), repr(float(seconds)), "1" if trace else "0"]
        code, _, rss = runner.run(cmd, d / f"log-{tag}.txt")
        if code != 0:
            return None, rss, [f"library child exit code {code}"]
        doc = json.loads(result.read_text(encoding="utf-8"))
        errors = []
        first = doc["passes"][0]["norms"]
        for i, p in enumerate(doc["passes"]):
            norms = p["norms"]
            if norms != first:
                errors.append(f"pass {i} norms {norms} differ from pass 0 {first}")
            for theta, value in norms.items():
                if not (math.isfinite(value) and 0 < value <= ctx["l1"] * (1 + 1e-9)):
                    errors.append(f"norm {value!r} at theta {theta} outside (0, l1 bound]")
        ctx["sup_gap"] = abs(ctx["sup"] - first["0.0"]) / ctx["sup"]
        if ctx["sup_gap"] > 0.02:
            errors.append(f"sup/op gap {ctx['sup_gap']:.3g} > 0.02 at theta 0")
        return doc, rss, errors

    def timed(self, ctx, runner, d, seconds):
        doc, rss, errors = self._child(ctx, runner, d, "timed", self.passes, seconds, False)
        if doc is None:
            return [], rss, 1, errors
        passes = [list(p["seconds"].values()) for p in doc["passes"]]
        return passes, rss, sum(map(len, passes)), errors

    def traced(self, ctx, runner, d):
        doc, _, errors = self._child(ctx, runner, d, "traced", 1, 0.0, True)
        if doc is None:
            return (0.0, 0.0), 1, errors, []
        walls = tuple(sum(p["seconds"].values()) for p in doc["passes"])
        return walls, 2 * len(doc["passes"][0]["norms"]), errors, [Path(doc["trace"])]


WORKLOADS = {w.name: w for w in (VerifyAll(), NormsPlaneWave(), ProductGrid(), OpnormGrid())}


# ---------------------------------------------------------------------------
# Runs


def setup(workload, seed, runner, d):
    """Generate inputs and warm up an import; median over SETUP_ROUNDS rounds."""
    rounds, imports, ctx = [], [], None
    probe = ("import sys, deformkit.verify_cli as v; "
             "sys.stdout.write(v.__file__)")
    for r in range(SETUP_ROUNDS):
        start = time.perf_counter()
        ctx = workload.generate(seed, d)
        log = d / f"setup-{r}.txt"
        code, wall, _ = runner.run(["-c", probe], log)
        if code != 0:
            raise BenchError(f"cannot import deformkit from {ROOT / 'src'}:\n"
                             + log.read_text(errors="replace"))
        if not Path(log.read_text().strip()).resolve().is_relative_to(PACKAGE.resolve()):
            raise BenchError(f"deformkit imported from outside {PACKAGE}")
        rounds.append(time.perf_counter() - start)
        imports.append(wall)
    return ctx, statistics.median(rounds), statistics.median(imports)


def merge_traces(paths) -> dict:
    total = {"calls": {}, "seconds": {}, "self_seconds": {}, "counters": {}, "maxima": {}}
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for kind in ("calls", "seconds", "self_seconds", "counters"):
            for key, value in doc[kind].items():
                total[kind][key] = total[kind].get(key, 0) + value
        for key, value in doc["maxima"].items():
            total["maxima"][key] = max(total["maxima"].get(key, 0.0), value)
    return total


def layer_metrics(trace: dict, run_values: dict) -> dict:
    kinds = {"calls": "calls", "seconds": "seconds", "self": "self_seconds",
             "counter": "counters", "maximum": "maxima"}
    out = {}
    for name, (unit, kind, key) in LAYER_METRICS.items():
        if kind == "run":
            value = run_values[name]
        else:
            value = trace[kinds[kind]].get(key, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def src_lines() -> dict:
    return {f"{m}.src_lines": len((PACKAGE / f"{m}.py").read_text(encoding="utf-8").splitlines())
            for m in MODULES}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    d = WORK / workload.name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    runner = Runner(time.perf_counter() + RUN_BUDGET_S)
    ctx, setup_s, import_s = setup(workload, seed, runner, d)
    if not trace:
        passes, rss, attempted, errors = workload.timed(ctx, runner, d, seconds)
        # Each operation's fastest time in the run, summed over one pass.
        wall = sum(map(min, zip(*passes))) if passes else 0.0
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    else:
        (plain, traced), attempted, errors, traces = workload.traced(ctx, runner, d)
        data = merge_traces(traces) if not errors else merge_traces([])
        applications = data["counters"].get("pseudodiff.operator_norm.applications", 0)
        apply_s = data["seconds"].get("pseudodiff.apply", 0.0)
        metrics = layer_metrics(data, {
            # |sup - op|/sup at theta 0 as the output checks read it.
            "pseudodiff.operator_norm.sup_gap": ctx.get("sup_gap", 0.0),
            "pseudodiff.apply.s_per_application": apply_s / applications if applications else 0.0,
            "verify_cli.import_s": import_s,
            "trace.wall_s": traced,
            "trace.overhead_s": traced - plain,
            **src_lines(),
        })
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    failed = min(len(errors), attempted)
    return {"correct": not errors, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"threads": {var: THREADS for var in THREAD_VARS}, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=STRUCTURE_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no deformkit sources at {PACKAGE}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} attempted = {result['attempted']}, failed = {result['failed']}")
    print("host " + json.dumps(host_info(), sort_keys=True))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
