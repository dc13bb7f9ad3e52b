"""Command line interface tests: parsing, exit codes, formats, determinism."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deformkit.deformation import deformed_product_exact
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    PlaneWaveSymbol,
    read_symbol_file,
    significant_terms,
    write_symbol_file,
)
from deformkit.verify_cli import (
    SUITES,
    RunConfig,
    gaussian_values,
    main,
    parse_config,
    parse_theta_sweep,
)

FAST_SUITES = "plancherel,unitization"
REPO = Path(__file__).resolve().parents[1]


def wave_file(path, n, terms, L=6.0):
    sym = PlaneWaveSymbol(n, L, 1, tuple(terms))
    write_symbol_file(sym, str(path))
    return sym


# ---------------------------------------------------------------------------
# Config and sweep parsing


def test_parse_theta_sweep_inclusive_endpoints():
    assert parse_theta_sweep("0:0.25:1") == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_parse_theta_sweep_drops_unreachable_end():
    assert parse_theta_sweep("0:0.3:1") == (0.0, 0.3, 0.6, 0.9)


def test_parse_theta_sweep_single_point():
    assert parse_theta_sweep("0.5:1:0.5") == (0.5,)


@pytest.mark.parametrize("spec", ["0:0.1", "1:-0.1:0", "1:0.1:0", "a:b:c",
                                  "0:0.1:inf", "0:inf:1", "nan:0.1:1"])
def test_parse_theta_sweep_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_theta_sweep(spec)


def test_parse_config_reads_typed_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# geometry\n"
        "N = 64  # grid\n"
        "L = 4.0\n"
        "theta = 0.5\n"
        "seed = 7\n"
        "suites = plancherel, unitization\n",
        encoding="utf-8",
    )
    cfg = parse_config(str(path))
    assert cfg.N == 64
    assert cfg.L == 4.0
    assert cfg.theta == 0.5
    assert cfg.seed == 7
    assert cfg.suites == ("plancherel", "unitization")


def test_parse_config_rejects_unknown_key(tmp_path):
    # the dimension n and the fiber size k come from the symbol files
    path = tmp_path / "bad.cfg"
    for line in ("volume = 11", "n = 1", "k = 2"):
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.cfg:1: unknown config key"):
            parse_config(str(path))


def test_parse_config_rejects_missing_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "field,value",
    [("N", 48), ("N", 0), ("L", -1.0), ("tol", 0.0), ("norm_order", -1), ("workers", 0),
     ("L", float("nan")), ("L", float("inf")), ("theta", float("nan")),
     ("theta", float("inf")), ("tol", float("nan"))],
)
def test_run_config_rejects_invalid_fields(field, value):
    with pytest.raises(ValueError):
        RunConfig(**{field: value})


# ---------------------------------------------------------------------------
# product subcommand


def test_product_plane_wave_matches_exact_law(tmp_path):
    f = wave_file(tmp_path / "f.json", 2, (((1, 0), 1.0), ((0, 1), 0.5j)))
    g = wave_file(tmp_path / "g.json", 2, (((0, 1), 2.0),))
    out = tmp_path / "fg.json"
    code = main(["product", str(tmp_path / "f.json"), str(tmp_path / "g.json"),
                 "--out", str(out)])
    assert code == 0
    got = read_symbol_file(str(out))
    expected = deformed_product_exact(f, g, DeformationMatrix.symplectic(0.25, 2))
    assert np.array_equal(got.terms["m"], expected.terms["m"])
    assert_allclose(got.terms["c"], expected.terms["c"], atol=1e-12)


def test_product_grid_inputs_write_grid_output(tmp_path):
    vals = gaussian_values(1, 32, 6.0, 1.0)
    write_symbol_file(GridSymbol(1, 32, 6.0, vals), str(tmp_path / "a.rsym"))
    write_symbol_file(GridSymbol(1, 32, 6.0, 0.5 * vals), str(tmp_path / "b.rsym"))
    out = tmp_path / "ab.rsym"
    code = main(["product", str(tmp_path / "a.rsym"), str(tmp_path / "b.rsym"),
                 "--out", str(out)])
    assert code == 0
    got = read_symbol_file(str(out))
    assert got.N == 32
    assert np.abs(got.values).max() > 0.0


def test_product_missing_file_exits_2(tmp_path):
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),))
    code = main(["product", str(tmp_path / "f.json"), str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2


def _plane_wave_text(n, L, coeff=(1.0, 0.0)):
    term = {"m": [1] * n, "coeff": [[list(coeff)]]}
    return json.dumps({"n": n, "L": L, "terms": [term]})


# An RSYM1 file (n = 1, k = 1, N = 16, L = 6) whose payload is all NaN.
NAN_RSYM = (struct.pack("<4sIBHId", b"RSYM", 1, 1, 1, 16, 6.0)
            + np.full(16, np.nan, dtype="<c16").tobytes())


@pytest.mark.parametrize("content", [
    pytest.param("{not json", id="malformed-json"),
    pytest.param(_plane_wave_text(2, 0.0), id="L-zero"),
    pytest.param(_plane_wave_text(2, float("nan")), id="L-nan"),
    pytest.param(_plane_wave_text(2, -3.0), id="L-negative"),
    pytest.param(_plane_wave_text(3, 6.0), id="n-3"),
    pytest.param(_plane_wave_text(1, 6.0, (float("nan"), 0.0)), id="coeff-nan"),
    pytest.param(NAN_RSYM, id="rsym-nan"),
    pytest.param(_plane_wave_text(1, 6.0).replace("[1]", "[1e400]"), id="m-inf"),
    pytest.param(_plane_wave_text(1, 6.0).replace("[1]", f"[{'9' * 400}]"), id="m-400-digits"),
    pytest.param(_plane_wave_text(1, 6.0).replace("[1]", "[1.5]"), id="m-fraction"),
    pytest.param(json.dumps({"n": 1, "L": 6.0, "k": 0, "terms": []}), id="k-zero"),
    pytest.param(b'\xff\xfe{"n": 1}', id="not-utf8"),
])
def test_product_malformed_json_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    wave_file(tmp_path / "g.json", 1, (((1,), 1.0),))
    code = main(["product", str(bad), str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    message = capsys.readouterr().err.strip().splitlines()
    assert len(message) == 1 and message[0].startswith("error: ")
    assert str(bad) in message[0]


def test_product_nan_theta_config_exits_2(tmp_path, capsys):
    wave_file(tmp_path / "f.json", 2, (((1, 0), 1.0),))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = nan\n", encoding="utf-8")
    code = main(["--config", str(cfg), "product", str(tmp_path / "f.json"),
                 str(tmp_path / "f.json"), "--out", str(tmp_path / "o.json")])
    assert code == 2
    message = capsys.readouterr().err.strip().splitlines()
    assert len(message) == 1 and message[0].startswith("error: ")


def test_product_dimension_mismatch_exits_2(tmp_path):
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),))
    wave_file(tmp_path / "g.json", 2, (((1, 0), 1.0),))
    code = main(["product", str(tmp_path / "f.json"), str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2


# ---------------------------------------------------------------------------
# norms subcommand


def test_norms_csv_shape_and_agreement(tmp_path):
    wave_file(tmp_path / "f.json", 1, (((1,), 0.8), ((-2,), 0.3j)), L=4.0)
    out = tmp_path / "norms.csv"
    code = main(["norms", str(tmp_path / "f.json"),
                 "--theta-sweep", "0:0.5:1", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header == ["theta", "sup_norm", "op_norm", "T_0", "T_1", "T_2",
                      "s_0", "s_1", "s_2", "cv_ratio"]
    assert len(lines) == 4
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 0.5, 1.0]
    for row in rows:
        sup, op = row[1], row[2]
        assert abs(sup - op) <= 0.02 * sup

    # one dimensional symbols ignore theta, so all rows agree past column 0
    body = {tuple(r[1:]) for r in rows}
    assert len(body) == 1


def test_norms_default_sweep_runs(tmp_path):
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),), L=4.0)
    out = tmp_path / "norms.csv"
    code = main(["norms", str(tmp_path / "f.json"), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 12


def test_norms_missing_file_exits_2(tmp_path):
    code = main(["norms", str(tmp_path / "nope.json")])
    assert code == 2


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_report_schema_and_exit(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suites", FAST_SUITES, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema_version"] == 1
    assert report["all_passed"] is True
    names = [s["suite"] for s in report["suites"]]
    assert names == sorted(names) == ["plancherel", "unitization"]
    for suite in report["suites"]:
        ids = [r["claim_id"] for r in suite["records"]]
        assert ids == sorted(ids)
        for rec in suite["records"]:
            assert set(rec) == {"claim_id", "claim", "measured", "bound", "passed"}
            assert rec["passed"] is True
            assert rec["measured"] <= rec["bound"]
    assert report["checks"] == sum(s["checks"] for s in report["suites"])
    assert report["failures"] == 0


def test_verify_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suites", FAST_SUITES, "--out", str(a)]) == 0
    assert main(["verify", "--suites", FAST_SUITES, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_workers_do_not_change_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suites", FAST_SUITES, "--out", str(a)]) == 0
    assert main(["verify", "--suites", FAST_SUITES, "--workers", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_exits_3(tmp_path, workers):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suites", FAST_SUITES, "--workers", workers,
              "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 3


def test_verify_unknown_suite_exits_3(tmp_path):
    code = main(["verify", "--suites", "bogus", "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_verify_honors_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 11\nsuites = plancherel\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["--config", str(cfg), "verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [s["suite"] for s in report["suites"]] == ["plancherel"]


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n", encoding="utf-8")
    code = main(["--config", str(cfg), "info"])
    assert code == 2


# ---------------------------------------------------------------------------
# info and usage


def test_info_lists_suites(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "deformkit" in out
    for name in SUITES:
        assert name in out


def test_missing_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_unknown_flag_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 3


def test_benchmark_trace_installs(tmp_path):
    # The benchmark's tracer wraps package functions by name; a renamed or
    # deleted one breaks every traced run, which this catches.
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "cli", str(trace), "info"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert set(doc) >= {"calls", "seconds", "counters"}


def test_benchmark_trace_counts_lift_and_evaluation(tmp_path):
    # A traced product of two plane-wave files reaches tilde_map and the
    # evaluators; the counters the benchmark reports must match the library.
    f = wave_file(tmp_path / "a.json", 2, (((1, 0), 1.0), ((0, 1), 0.5j), ((-1, 2), 0.25)))
    g = wave_file(tmp_path / "b.json", 2, (((0, 1), 2.0), ((1, -1), -0.5)))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "cli", str(trace), "product",
         str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", str(tmp_path / "ab.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counters = json.loads(trace.read_text(encoding="utf-8"))["counters"]
    cfg = RunConfig()
    product = deformed_product_exact(f, g, DeformationMatrix.symplectic(cfg.theta, 2))
    # to_grid evaluates f, g and the exact product on the N x N grid
    evaluated = len(f.terms) + len(g.terms) + len(product.terms)
    assert counters["symbols.evaluate.term_points"] == evaluated * cfg.N ** 2
    # the lattice product lifts the factor with fewer significant terms
    lifted = min(len(significant_terms(s.to_grid(cfg.N)).terms) for s in (f, g))
    assert counters["deformation.tilde_map.terms"] == lifted == len(g.terms)


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    code = ("import sys, deformkit, deformkit.verify_cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_product_independent_of_blas_threads(tmp_path):
    # The lattice action multiplies k x k blocks per frequency with einsum,
    # never a BLAS call whose rounding depends on how many threads split it.
    rng = np.random.default_rng(23)
    paths = []
    for width in (1.2, 0.9):
        mix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        values = gaussian_values(2, 32, 6.0, width)[..., :1, :1] * mix
        paths.append(str(tmp_path / f"w{width}.rsym"))
        write_symbol_file(GridSymbol(2, 32, 6.0, values), paths[-1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"product-{threads}.rsym"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "deformkit.verify_cli", "product", *paths, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_report_independent_of_blas_threads(tmp_path):
    # The kernel-pairing and symbol-map records reduce long quadratures;
    # they are numpy sums and FFTs, never a BLAS call whose rounding
    # depends on how many threads split it.  The cv and product-oracle
    # suites cover the shared term evaluator and the exact product.
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "deformkit.verify_cli", "verify",
             "--suites", "cv,kernel-identity,product-oracle,symbol-map", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
