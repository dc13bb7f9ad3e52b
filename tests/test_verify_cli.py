"""Command line interface tests: parsing, exit codes, formats, determinism."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deformkit import deformation, heisenberg, pseudodiff, suites, verify_cli
from deformkit.deformation import deformed_product_exact
from deformkit.errors import ConvergenceError, NoConvergenceError, UnsupportedOperatorError
from deformkit.heisenberg import symbol_map_S
from deformkit.symbols import (
    DeformationMatrix,
    GridSymbol,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    eval_series,
    read_symbol_file,
    significant_terms,
    sup_norm,
    write_symbol_file,
)
from deformkit.suites import SUITES, gaussian_values
from deformkit.verify_cli import RunConfig, main, parse_config, parse_theta_sweep

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


# 0:5e-324:1 has infinitely many points, 0:1e-9:1 more than MAX_SWEEP_POINTS
@pytest.mark.parametrize("spec", ["0:0.1", "1:-0.1:0", "1:0.1:0", "a:b:c",
                                  "0:0.1:inf", "0:inf:1", "nan:0.1:1",
                                  "0:5e-324:1", "0:1e-9:1"])
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
        "norm_order = 3\n"
        "workers = 2\n"
        "out = report.json\n"
        "suites = plancherel, unitization\n",
        encoding="utf-8",
    )
    cfg = parse_config(str(path))
    assert cfg.N == 64
    assert cfg.L == 4.0
    assert cfg.theta == 0.5
    assert cfg.seed == 7
    assert cfg.norm_order == 3 and isinstance(cfg.norm_order, int)
    assert cfg.workers == 2 and isinstance(cfg.workers, int)
    assert cfg.out == "report.json"
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
    [("N", 48), ("N", 0), ("L", -1.0), ("norm_order", -1), ("workers", 0),
     ("L", float("nan")), ("L", float("inf")), ("theta", float("nan")),
     ("theta", float("inf")), ("seed", -1),
     ("N", 2048), ("N", 1099511627776), ("norm_order", 9), ("norm_order", 40),
     ("tol", 0.0), ("tol", float("nan"))],
)
def test_run_config_rejects_invalid_fields(tmp_path, field, value):
    # tol is no config key: the route check's gate is deformation.ROUTE_TOL
    path = tmp_path / "run.cfg"
    path.write_text(f"{field} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        parse_config(str(path))


def test_negative_seed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n", encoding="utf-8")
    code = main(["--config", str(cfg), "verify", "--suites", "plancherel"])
    assert code == 2
    message = capsys.readouterr().err.strip().splitlines()
    assert len(message) == 1 and message[0].startswith("error: ") and "seed" in message[0]


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


@pytest.mark.parametrize("m, code", [((16, 0), 2), ((0, -17), 2), ((15, 0), 0), ((-16, 0), 0)])
def test_product_plane_waves_refuse_a_factor_the_grid_aliases(tmp_path, capsys, m, code):
    # the route cross-check samples both factors on the N = 32 grid, which holds [-16, 16)
    # per axis; m = 16 sampled there is m = -16, and the check read 0.35 and exited 0
    wave_file(tmp_path / "f.json", 2, ((m, 1.0),))
    wave_file(tmp_path / "g.json", 2, (((0, 1), 1.0),))
    out = tmp_path / "fg.json"
    assert main(["product", str(tmp_path / "f.json"), str(tmp_path / "g.json"),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert f"m = {m}" in err and "N = 32" in err and not out.exists()
        return
    assert float(err.split("route disagreement:")[1].split()[0]) <= 1e-12


def test_product_plane_waves_check_an_aliased_product_on_both_sides(tmp_path, capsys):
    # m = 20 of the product lies outside the grid, but both routes alias it to -12 alike,
    # and the file holds the exact product
    wave_file(tmp_path / "f.json", 2, (((10, 0), 1.0),))
    out = tmp_path / "ff.json"
    assert main(["product", str(tmp_path / "f.json"), str(tmp_path / "f.json"),
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert float(err.split("route disagreement:")[1].split()[0]) <= 1e-12
    got = read_symbol_file(str(out))
    assert got.terms["m"].tolist() == [[20, 0]]


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


@pytest.mark.parametrize("wave_first", [True, False])
@pytest.mark.parametrize("m, code", [((16, 0), 2), ((3, -17), 2), ((15, 0), 0), ((-16, 2), 0)])
def test_product_mixed_refuses_plane_wave_the_grid_aliases(tmp_path, capsys, m, code,
                                                           wave_first):
    # the plane wave goes onto the grid file's N = 32 grid, which holds [-16, 16) per
    # axis; m = 16 sampled there is m = -16, and the product was 0.53 off
    wave = wave_file(tmp_path / "w.json", 2, ((m, 1.0),))
    grid = GridSymbol(2, 32, 6.0, gaussian_values(2, 32, 6.0, 1.2) * (1 + 0.5j))
    write_symbol_file(grid, str(tmp_path / "g.rsym"))
    files = [str(tmp_path / "w.json"), str(tmp_path / "g.rsym")]
    out = tmp_path / "fg.rsym"
    assert main(["product", *(files if wave_first else files[::-1]),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert f"m = {m}" in err and "N = 32" in err
        return
    # e_p x_J g (x) = e_p(x) g(x + Jp) and g x_J e_p (x) = g(x - Jp) e_p(x), J = 0.25 J_1
    Jp = DeformationMatrix.symplectic(0.25, 2).entries @ wave.frequency(m)
    x = np.stack(np.meshgrid(grid.axis, grid.axis, indexing="ij"), axis=-1).reshape(-1, 2)
    shifted = x + Jp if wave_first else x - Jp
    want = wave.evaluate(x)[:, 0, 0] * eval_series(significant_terms(grid).terms, 6.0,
                                                  shifted)[:, 0, 0]
    got = read_symbol_file(str(out)).values.reshape(-1)
    assert np.abs(got - want).max() <= 1e-7


def test_product_missing_file_exits_2(tmp_path):
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),))
    code = main(["product", str(tmp_path / "f.json"), str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2


def test_product_too_many_term_pairs_exits_2(tmp_path, capsys):
    # 2049 x 2049 pairs pass MAX_PRODUCT_VALUES = 2^22: refused before any pair
    # is formed, with one error line and no output file
    wave_file(tmp_path / "f.json", 1, (((m,), 1.0) for m in range(-1024, 1025)))
    out = tmp_path / "ff.json"
    code = main(["product", str(tmp_path / "f.json"), str(tmp_path / "f.json"),
                 "--out", str(out)])
    assert code == 2
    errors = capsys.readouterr().err.strip().splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:")
    assert not out.exists()


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


def test_product_theta_past_the_oracle_weight_exits_2(tmp_path, capsys):
    # the route check's f side weighs f's coefficients by (1 + theta'^2 |p|^2)^2, which
    # overflows at theta = 1e160: refused, where it raised OverflowError (a traceback)
    for name, width in (("f", 1.2), ("g", 0.9)):
        write_symbol_file(GridSymbol(2, 64, 6.0, gaussian_values(2, 64, 6.0, width)),
                          str(tmp_path / f"{name}.rsym"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 1e160\n", encoding="utf-8")
    code = main(["--config", str(cfg), "product", str(tmp_path / "f.rsym"),
                 str(tmp_path / "g.rsym"), "--out", str(tmp_path / "fg.rsym")])
    assert code == 2
    message = capsys.readouterr().err.strip().splitlines()
    assert message[-1].startswith("error: theta = 1e+160 is too large for the route check")
    assert not (tmp_path / "fg.rsym").exists()


def test_verify_box_past_the_cell_weight_exits_2(tmp_path, capsys):
    # a grid's cell weight (2L/N)^n overflows at L = 1e300, n = 2: refused where the grid
    # is built, where it raised OverflowError (a traceback)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 1e300\n", encoding="utf-8")
    assert main(["--config", str(cfg), "verify"]) == 2
    message = capsys.readouterr().err.strip().splitlines()
    assert message[-1] == "error: cell weight (2L/N)^n overflows for L = 1e+300, N = 32, n = 2"


def test_product_dimension_mismatch_exits_2(tmp_path, capsys):
    # both products check their boxes, dimension n with them, before any work
    wave_file(tmp_path / "w1.json", 1, (((1,), 1.0),))
    wave_file(tmp_path / "w2.json", 2, (((1, 0), 1.0),))
    for n in (1, 2):
        write_symbol_file(GridSymbol(n, 16, 6.0, gaussian_values(n, 16, 6.0, 1.0)),
                          str(tmp_path / f"g{n}.rsym"))
    for f_name, g_name in (("w1.json", "w2.json"), ("w2.json", "w1.json"),
                           ("g1.rsym", "g2.rsym"), ("g2.rsym", "g1.rsym"),
                           ("w1.json", "g2.rsym"), ("g2.rsym", "w1.json")):
        code = main(["product", str(tmp_path / f_name), str(tmp_path / g_name),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: symbols live on different boxes: (n={f_name[1]}, L=6.0, k=1) "
            f"vs (n={g_name[1]}, L=6.0, k=1)"]


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


def test_norms_honors_config_out(tmp_path, capsys):
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),), L=4.0)
    out = tmp_path / "norms.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {out}\n", encoding="utf-8")
    code = main(["--config", str(cfg), "norms", str(tmp_path / "f.json"),
                 "--theta-sweep", "0:1:0"])
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("theta,sup_norm,op_norm,")
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_norms_far_frequency_caps_sup_sampling(tmp_path, capsys):
    # a frequency far past the dense sup axis's point budget is refused, not sampled on a
    # 128 TiB axis nor undersampled: by norms, whose N = 32 grid would alias it, and by
    # sup_norm itself
    f = wave_file(tmp_path / "f.json", 1, (((1 << 40,), 1.0),))
    assert main(["norms", str(tmp_path / "f.json"), "--theta-sweep", "0:1:0"]) == 2
    assert f"m = ({1 << 40},)" in capsys.readouterr().err
    with pytest.raises(ValueError, match=str(1 << 40)):
        sup_norm(f)


@pytest.mark.parametrize("m, code", [((8, 0), 2), ((-9, 3), 2), ((7, -8), 0)])
def test_norms_refuses_plane_wave_the_grid_aliases(tmp_path, capsys, m, code):
    # norms runs a plane wave on the N-point grid, which holds the frequencies
    # [-N/2, N/2) per axis: m = 8 there is m = -8 on the N = 16 grid
    wave_file(tmp_path / "f.json", 2, ((m, 1.0), ((1, 0), 0.5)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 16\n", encoding="utf-8")
    assert main(["--config", str(cfg), "norms", str(tmp_path / "f.json"),
                 "--theta-sweep", "0:1:0", "--out", str(tmp_path / "n.csv")]) == code
    if code:
        err = capsys.readouterr().err
        assert f"m = {m}" in err and "N = 16" in err


def test_norms_missing_file_exits_2(tmp_path):
    code = main(["norms", str(tmp_path / "nope.json")])
    assert code == 2


def test_norms_malformed_sweep_exits_3_before_reading(tmp_path):
    # the sweep is a usage error, found in main before the missing file is opened
    with pytest.raises(SystemExit) as exc:
        main(["norms", str(tmp_path / "missing.json"), "--theta-sweep", "1:0:2"])
    assert exc.value.code == 3


@pytest.mark.parametrize("symbol", ["wave", "grid"])
def test_norms_builds_lattice_plans_only_for_norms(tmp_path, monkeypatch, symbol):
    # norms hands the lift of f to the norm hierarchy: no operator whose lattice
    # set-up is never applied, so every _LatticePlan comes from phase_norms
    callers = []

    class Recorded(deformation._LatticePlan):
        def __init__(self, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            super().__init__(*args, **kwargs)

    for module in (deformation, pseudodiff):
        monkeypatch.setattr(module, "_LatticePlan", Recorded)
    if symbol == "wave":
        wave_file(tmp_path / "f", 2, GRID_SAMPLED_WAVE)
    else:
        write_symbol_file(GridSymbol(2, 16, 6.0, gaussian_values(2, 16, 6.0, 1.2)),
                          str(tmp_path / "f"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 16\n", encoding="utf-8")
    assert main(["--config", str(cfg), "norms", str(tmp_path / "f"),
                 "--theta-sweep", "0:0.25:0.25", "--out", str(tmp_path / "n.csv")]) == 0
    assert callers and set(callers) == {"phase_norms"}


@pytest.mark.parametrize("error", [NoConvergenceError, ConvergenceError])
def test_norms_unsettled_norm_exits_1(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("norm did not settle")

    monkeypatch.setattr(heisenberg, "differential_norms", fail)
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),), L=4.0)
    code = main(["norms", str(tmp_path / "f.json"), "--theta-sweep", "0:1:0"])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: norm did not settle"]


# A smooth 2-D plane wave whose dense sup norm (3.0719) lies 2.6% above its
# maximum on the 16-point grid (2.9925), which the theta = 0 operator norm meets.
GRID_SAMPLED_WAVE = (((-2, -2), 1.3597 + 1.2247j), ((1, -2), -0.2980 - 0.5274j),
                     ((0, -2), -0.0561 + 0.7469j))


@pytest.mark.parametrize("skew,code", [(1.0, 0), (1.05, 1)])
def test_norms_theta0_check_compares_grid_maximum(tmp_path, capsys, monkeypatch, skew, code):
    real = heisenberg.differential_norms

    def skewed(sym, N, m):
        rep = real(sym, N, m)
        return dataclasses.replace(rep, T=(skew * rep.T[0],) + rep.T[1:])

    monkeypatch.setattr(heisenberg, "differential_norms", skewed)
    wave_file(tmp_path / "f.json", 2, GRID_SAMPLED_WAVE, L=6.0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 16\n", encoding="utf-8")
    assert main(["--config", str(cfg), "norms", str(tmp_path / "f.json"),
                 "--theta-sweep", "0:1:0"]) == code
    out = capsys.readouterr()
    row = [float(v) for v in out.out.splitlines()[1].split(",")]
    assert abs(row[1] - 3.0719) < 1e-4  # the sup_norm column stays the dense sup
    assert ("check failure: grid maximum" in out.err) == bool(code)


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_report_schema_and_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suites", FAST_SUITES, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
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
    # operator norms, the lattice plans that keep their kernel spectra while they run,
    # and the symbol map on concurrent threads
    suites = FAST_SUITES + ",sup-op,norm-hierarchy,symbol-map,interplay,cv"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suites", suites, "--out", str(a)]) == 0
    assert main(["verify", "--suites", suites, "--workers", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _scaled_product(f, g, J):
    """The exact product with every coefficient scaled by 1 + 1e-3."""
    t = deformed_product_exact(f, g, J).terms.copy()
    t["c"] = t["c"] * (1 + 1e-3)
    return PlaneWaveSymbol(f.n, f.L, f.k, t)


@pytest.mark.parametrize("defect", [None, "minus-J", "scaled"])
def test_interplay_record_fails_on_a_seeded_defect(monkeypatch, defect):
    # L_{f x_J g} built from the product at -J, or from the product scaled by
    # 1 + 1e-3, must push the record past its 1e-4 bound
    mutants = {
        "minus-J": lambda f, g, J: deformed_product_exact(f, g, DeformationMatrix(-J.entries)),
        "scaled": _scaled_product,
    }
    if defect is not None:
        monkeypatch.setattr(suites, "deformed_product_exact", mutants[defect])
    [record] = SUITES["interplay"](RunConfig())
    assert record["bound"] == 1e-4
    assert record["passed"] is (defect is None)
    assert (record["measured"] > record["bound"]) is (defect is not None)


@pytest.mark.parametrize("tol, t0, sup_op", [(1e-4, 4.41e-8, 3.16e-8),
                                              (1e-3, 1.66e-4, 2.83e-6)])
def test_a_loose_norm_stop_fails_t0_but_not_sup_op(monkeypatch, tol, t0, sup_op):
    # Lanczos stopped at NORM_TOL = 1e-4 or 1e-3 instead of 1e-8: the Lanczos-free
    # reference of t0-equals-operator-norm sees the early stop (bound 1e-9; 4.4e-16 at
    # 1e-8), while the sup/op agreement stays inside its 0.02 bound (3.4e-16 at 1e-8), so
    # that record cannot see the stop rule.  Both norm entry points read NORM_TOL per call.
    sym = PlaneWavePhaseSymbol(1, 4.0, 1, (((1,), (0.5,), 1.0), ((0,), (0.0,), 0.5),
                                            ((-2,), (1.25,), 0.3j)))
    exact = pseudodiff.operator_norm(pseudodiff.op_from_phase_terms(sym, 16))
    monkeypatch.setattr(pseudodiff, "NORM_TOL", tol)
    records = {r["claim_id"]: r for name in ("norm-hierarchy", "sup-op")
               for r in SUITES[name](RunConfig())}
    t0_record = records["t0-equals-operator-norm"]
    sup_op_record = records["sup-equals-op-norm-at-theta-zero"]
    assert not t0_record["passed"] and t0_record["measured"] == pytest.approx(t0, rel=0.01)
    assert sup_op_record["passed"] and sup_op_record["measured"] == pytest.approx(sup_op,
                                                                                  rel=0.01)
    loose = pseudodiff.operator_norm(pseudodiff.op_from_phase_terms(sym, 16))
    assert loose != exact and pseudodiff.phase_norms([sym], 16) == [loose]


def test_plane_wave_product_records_fail_when_the_lattice_route_flips_j(monkeypatch):
    # the grid route run at -J reads 0.164 at theta = 0.25 and 0.449 at theta = 1 against
    # the exact phase law (bound 1e-6; 5.8e-16 and 4.5e-16 unmutated).  At theta = 0, -J is
    # J, so that record checks the pointwise product and cannot see the sign
    real = deformation._twisted_lattice_product
    monkeypatch.setattr(deformation, "_twisted_lattice_product",
                        lambda f, g, J, fhat, ghat: real(f, g, DeformationMatrix(-J.entries),
                                                         fhat, ghat))
    records = {r["claim_id"]: r for r in SUITES["product-oracle"](RunConfig())}
    assert [r["passed"] for r in records.values()] == [True, False, False, True]
    assert records["plane-wave-product-theta-0.25"]["measured"] > 0.1
    assert records["plane-wave-product-theta-1"]["measured"] > 0.1


def _warm_traced_peak(run) -> int:
    """Peak traced bytes of the second of two calls of run (the first warms caches)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_symbol_map_suite_streams_its_kernel_pairing():
    # symbol_map_S adds each eta block into one s row per distinct w, so it
    # holds one eta block at a time: no sigma x eta or s x eta table
    assert _warm_traced_peak(lambda: SUITES["symbol-map"](RunConfig())) <= 4 * 2 ** 20


def test_symbol_map_memory_does_not_grow_with_shifts():
    # the pairing keeps one s row per distinct w, so nine w cost about what three do
    sym = PlaneWavePhaseSymbol(1, 4.0, 1, tuple(
        ((j % 3 - 1,), (float(w),), 0.5 + 0.1j * j)
        for j, w in enumerate(np.linspace(-0.8, 0.8, 9))))
    assert len(np.unique(sym.terms["w"])) == 9
    peak = _warm_traced_peak(
        lambda: symbol_map_S(sym, np.array([0.0, 1.0]), np.array([0.0, 0.5])))
    assert peak <= 4 * 2 ** 20


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_exits_3(tmp_path, workers):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suites", FAST_SUITES, "--workers", workers,
              "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 3


def test_verify_unknown_suite_exits_3(tmp_path):
    code = main(["verify", "--suites", "bogus", "--out", str(tmp_path / "r.json")])
    assert code == 3


@pytest.mark.parametrize("error", [NoConvergenceError, ConvergenceError])
def test_verify_unsettled_norm_exits_1(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("norm did not settle")

    # the sup-op suite takes its norms in one lockstep run
    monkeypatch.setattr(suites, "phase_norms", fail)
    out = tmp_path / "r.json"
    code = main(["verify", "--suites", "sup-op", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: norm did not settle"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["norms", "verify"])
def test_package_error_inside_command_exits_2(tmp_path, capsys, monkeypatch, command):
    # a package error that is not a failed check is bad input: one error
    # line and exit 2, never a traceback
    def fail(*args, **kwargs):
        raise UnsupportedOperatorError("operator carries no lattice symbol")

    monkeypatch.setattr(heisenberg, "differential_norms", fail)
    monkeypatch.setattr(suites, "phase_norms", fail)
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),), L=4.0)
    argv = {
        "norms": ["norms", str(tmp_path / "f.json"), "--theta-sweep", "0:1:0"],
        "verify": ["verify", "--suites", "sup-op"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: operator carries no lattice symbol"]


@pytest.mark.parametrize("via_config", [False, True])
def test_verify_runs_a_repeated_suite_once(tmp_path, capsys, via_config):
    out = tmp_path / "report.json"
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suites = plancherel, plancherel\n", encoding="utf-8")
        argv = ["--config", str(cfg), "verify", "--out", str(out)]
    else:
        argv = ["verify", "--suites", "plancherel,plancherel", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [s["suite"] for s in report["suites"]] == ["plancherel"]
    assert report["checks"] == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in err] == ["[plancherel]", "total"]


def test_verify_d_roundtrip_fails_on_moved_terms(monkeypatch):
    # the roundtrip compares coefficients term by term, so a D inverse that moves
    # a frequency fails the record, also under python -O
    def moved(sym):
        t = sym.terms.copy()
        t["m"] = t["m"] + 1
        return dataclasses.replace(sym, terms=t)

    monkeypatch.setattr(suites, "d_inverse", moved)
    [record] = SUITES["d-roundtrip"](RunConfig())
    assert record["measured"] == np.inf and record["passed"] is False


def test_src_holds_no_assert():
    # an assert vanishes under python -O and ends in a traceback when it fires
    for path in sorted((REPO / "src" / "deformkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


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


def test_config_key_tol_is_unknown(tmp_path, capsys):
    # the route check's gate is deformation.ROUTE_TOL, which no config key sets
    cfg = tmp_path / "c.cfg"
    cfg.write_text("tol = 1e-6\n", encoding="utf-8")
    assert main(["--config", str(cfg), "info"]) == 2
    assert "unknown config key 'tol'" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing-dir", "directory", "parent-is-file"])
@pytest.mark.parametrize("command", ["product", "norms", "verify"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command, target):
    # an --out path that cannot be written is an I/O error with one error
    # line naming the path, not a traceback, found before any work
    def work(*args, **kwargs):
        raise AssertionError("the command worked before it checked its output")

    for module, name in ((suites, "run_suites"), (heisenberg, "differential_norms"),
                         (verify_cli, "deformed_product_numeric")):
        monkeypatch.setattr(module, name, work)
    wave_file(tmp_path / "f.json", 1, (((1,), 1.0),), L=4.0)
    out = {"missing-dir": tmp_path / "missing" / "out", "directory": tmp_path,
           "parent-is-file": tmp_path / "f.json" / "r.json"}[target]
    argv = {
        "product": ["product", str(tmp_path / "f.json"), str(tmp_path / "f.json")],
        "norms": ["norms", str(tmp_path / "f.json"), "--theta-sweep", "0:1:0"],
        "verify": ["verify", "--suites", "plancherel"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and str(out) in errors[0]


# ---------------------------------------------------------------------------
# info and usage


def test_info_ignores_config_out(tmp_path):
    # info writes no file, so an output path it cannot write is no error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'missing' / 'r.json'}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "info"]) == 0


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
    # A traced product of two plane-wave files reaches tilde_map; the counters
    # the benchmark reports must match the library.
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
    # to_grid samples f, g and the exact product on the N x N grid by one fold
    # each (symbols._LatticeFold), not by the term-by-term evaluators it counts
    assert len(product.terms) and counters.get("symbols.evaluate.term_points", 0) == 0
    # the lattice product lifts the factor with fewer significant terms
    lifted = min(len(significant_terms(s.to_grid(cfg.N)).terms) for s in (f, g))
    assert counters["deformation.tilde_map.terms"] == lifted == len(g.terms)


def test_benchmark_trace_runs_the_route_check(tmp_path):
    # The tracer's wrapper passes the 4th argument of deformed_product_numeric by position,
    # None when the caller leaves it out: a traced grid product must still run its oracle.
    for name, width in (("a", 1.2), ("b", 0.9)):
        write_symbol_file(GridSymbol(2, 16, 6.0, gaussian_values(2, 16, 6.0, width)),
                          str(tmp_path / f"{name}.rsym"))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "cli", str(trace), "product",
         str(tmp_path / "a.rsym"), str(tmp_path / "b.rsym"), "--out", str(tmp_path / "ab.rsym")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    maxima = json.loads(trace.read_text(encoding="utf-8"))["maxima"]
    assert 0.0 < maxima["deformation.product_numeric.route_disagreement"] < deformation.ROUTE_TOL


MODULES = ["deformkit"] + sorted(
    m.name for m in pkgutil.iter_modules(importlib.import_module("deformkit").__path__,
                                         "deformkit."))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # a stale __all__ entry breaks `import *`, and the benchmark's tracer
    # wraps every name in coeff_algebra.__all__
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
    exec(f"from {module} import *", {})


def test_product_and_norms_import_only_their_layers(tmp_path):
    # product loads no norm layer and no suite; norms loads no suite
    for name, width in (("f", 1.2), ("g", 0.9)):
        write_symbol_file(GridSymbol(2, 16, 6.0, gaussian_values(2, 16, 6.0, width)),
                          str(tmp_path / f"{name}.rsym"))
    wave_file(tmp_path / "w.json", 2, (((1, 0), 1.0), ((0, -1), 0.5j)))
    config = tmp_path / "run.cfg"
    config.write_text("N = 16\n", encoding="utf-8")
    code = ("import json, sys; from deformkit.verify_cli import main; "
            "status = main(json.loads(sys.argv[1])); "
            "loaded = sorted(m for m in sys.modules if m.startswith('deformkit')); "
            "open(sys.argv[2], 'w').write(json.dumps([status, loaded]))")
    runs = {
        "product": ["product", str(tmp_path / "f.rsym"), str(tmp_path / "g.rsym"),
                    "--out", str(tmp_path / "fg.rsym")],
        "norms": ["--config", str(config), "norms", str(tmp_path / "w.json"),
                  "--theta-sweep", "0:0.25:0.25", "--out", str(tmp_path / "w.csv")],
    }
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    loaded = {}
    for command, argv in runs.items():
        result = tmp_path / f"{command}-modules.json"
        done = subprocess.run([sys.executable, "-c", code, json.dumps(argv), str(result)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        status, loaded[command] = json.loads(result.read_text(encoding="utf-8"))
        assert status == 0
    assert {"deformkit.deformation", "deformkit.symbols"} <= set(loaded["product"])
    assert not {"deformkit.heisenberg", "deformkit.pseudodiff",
                "deformkit.suites"} & set(loaded["product"])
    assert {"deformkit.heisenberg", "deformkit.pseudodiff"} <= set(loaded["norms"])
    assert "deformkit.suites" not in loaded["norms"]


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    code = ("import sys, deformkit, deformkit.verify_cli, deformkit.suites; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_product_independent_of_blas_threads(tmp_path):
    # The lattice action multiplies k x k blocks per frequency with einsum,
    # never a BLAS call whose rounding depends on how many threads split it.
    # The RSYM bytes come from the lattice route; the printed disagreement,
    # and its full repr from the library, pin the quadrature oracle as well.
    rng = np.random.default_rng(23)
    paths = []
    for width in (1.2, 0.9):
        mix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        values = gaussian_values(2, 32, 6.0, width)[..., :1, :1] * mix
        paths.append(str(tmp_path / f"w{width}.rsym"))
        write_symbol_file(GridSymbol(2, 32, 6.0, values), paths[-1])
    oracle = ("import sys; from deformkit.deformation import deformed_product_numeric as p; "
              "from deformkit.symbols import DeformationMatrix as D, read_symbol_file as r; "
              "rep = {}; p(r(sys.argv[1]), r(sys.argv[2]), D.symplectic(0.25, 2), report=rep); "
              "print(repr(rep['route_disagreement']))")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"product-{threads}.rsym"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "deformkit.verify_cli", "product", *paths, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        route = [line for line in done.stderr.splitlines() if line.startswith("route disagreement:")]
        assert len(route) == 1, done.stderr
        exact = subprocess.run([sys.executable, "-c", oracle, *paths], env=env,
                               capture_output=True, text=True, timeout=300)
        assert exact.returncode == 0, exact.stderr
        outputs.append((out.read_bytes(), route[0], exact.stdout))
    assert outputs[0] == outputs[1]


def test_norms_independent_of_blas_threads(tmp_path):
    # The pi functional folds its terms with np.bincount and samples them by FFTs,
    # and the plane-wave sup samples the same way: no BLAS call whose rounding
    # depends on how many threads split it.  A grid file lifts to many terms.
    rng = np.random.default_rng(29)
    grid = GridSymbol(2, 16, 6.0, gaussian_values(2, 16, 6.0, 1.2) * complex(rng.normal(), 1.0))
    write_symbol_file(grid, str(tmp_path / "grid.rsym"))
    wave_file(tmp_path / "wave.json", 2, GRID_SAMPLED_WAVE)
    config = tmp_path / "run.cfg"
    config.write_text("N = 16\n", encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        for name in ("grid.rsym", "wave.json"):
            out = tmp_path / f"{name}-{threads}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "deformkit.verify_cli", "--config", str(config), "norms",
                 str(tmp_path / name), "--theta-sweep", "0:0.25:0.25", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
    assert outputs[:2] == outputs[2:]


def test_report_independent_of_blas_threads(tmp_path):
    # The kernel-pairing and symbol-map records reduce long quadratures;
    # they are numpy sums and FFTs, never a BLAS call whose rounding
    # depends on how many threads split it.  The cv and product-oracle
    # suites cover the shared term evaluator and the exact product; the
    # norm suites cover the Lanczos inner products and the Ritz solve.
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "deformkit.verify_cli", "verify",
             "--suites", "cv,interplay,inverse-cv,kernel-identity,norm-hierarchy,"
             "product-oracle,sup-op,symbol-map", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
