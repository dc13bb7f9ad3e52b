"""Every function in src/ is run by a command or kept on purpose.

A fresh interpreter runs ``product`` (a plane-wave pair, a grid pair and a
mixed pair on a box where the product oracle's scale s is not 1),
``norms`` (a plane wave and a grid file), ``verify`` over every suite and
``info`` with a config file under ``sys.setprofile``, and records the code
objects it enters.  Every ``def`` in ``src/deformkit`` must be among them
or be named in the README's list of names kept on purpose.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from deformkit.symbols import GridSymbol, PlaneWaveSymbol, write_symbol_file
from deformkit.suites import gaussian_values

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "deformkit"

# Runs each argv of sys.argv[2] (a JSON list) through main under the profile
# hook and writes the entered (file, first line) pairs of the package to sys.argv[1].
DRIVER = """
import json, sys
from pathlib import Path
import deformkit.verify_cli as cli
root = str(Path(cli.__file__).resolve().parent)
seen = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(root):
            seen.add((Path(code.co_filename).name, code.co_firstlineno))

codes = []
sys.setprofile(hook)
try:
    for argv in json.loads(sys.argv[2]):
        codes.append(cli.main(argv))
finally:
    sys.setprofile(None)
Path(sys.argv[1]).write_text(json.dumps({"codes": codes, "seen": sorted(seen)}))
"""


def package_defs() -> dict:
    """{(file name, first line of the code object): dotted name} of every def."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(path.name, first)] = f"{prefix}.{child.name}"
                    visit(child, f"{prefix}.{child.name}")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return defs


def kept_on_purpose() -> set:
    """The names module.Class.function in backticks in the README's list of names
    kept on purpose."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("to this list:\n\n", 1)[1].split("\n\n", 1)[0]
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    return {name for name in re.findall(r"`(\w+\.[\w.]+)`", section)
            if name.split(".")[0] in modules}


def test_every_def_is_reached_or_kept(tmp_path):
    rng = np.random.default_rng(5)
    wave = PlaneWaveSymbol(2, 6.0, 1, (((1, 0), 0.5), ((0, 2), -0.25j), ((-1, 1), 0.3)))
    write_symbol_file(wave, str(tmp_path / "f.json"))
    write_symbol_file(PlaneWaveSymbol(2, 6.0, 1, (((0, 1), 1.0),)), str(tmp_path / "g.json"))
    # at L = 5.5 the oracle scales v by s = 11 / (120 h) < 1 to fit a period in M = 120 steps
    write_symbol_file(PlaneWaveSymbol(2, 5.5, 1, (((1, 1), 0.7),)), str(tmp_path / "h.json"))
    for name, width, L in (("a", 1.2, 6.0), ("b", 0.9, 6.0), ("c", 1.0, 5.5)):
        values = gaussian_values(2, 16, L, width) * complex(rng.normal(), 1.0)
        write_symbol_file(GridSymbol(2, 16, L, values), str(tmp_path / f"{name}.rsym"))
    config = tmp_path / "run.cfg"
    config.write_text("N = 16\nsuites = plancherel, cv\n", encoding="utf-8")
    files = {name: str(tmp_path / name)
             for name in ("f.json", "g.json", "h.json", "a.rsym", "b.rsym", "c.rsym")}
    out = str(tmp_path / "out")
    runs = [
        ["product", files["f.json"], files["g.json"], "--out", out + ".json"],
        ["product", files["a.rsym"], files["b.rsym"], "--out", out + ".rsym"],
        ["product", files["h.json"], files["c.rsym"], "--out", out + "-mixed.rsym"],
        ["--config", str(config), "norms", files["f.json"], "--theta-sweep", "0:0.25:0.25",
         "--out", out + "-f.csv"],
        ["--config", str(config), "norms", files["a.rsym"], "--theta-sweep", "0.25:1:0.25",
         "--out", out + "-a.csv"],
        ["verify", "--out", out + "-report.json"],
        ["--config", str(config), "info"],
    ]
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", DRIVER, str(trace), json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["codes"] == [0] * len(runs)

    defs, kept = package_defs(), kept_on_purpose()
    assert kept <= set(defs.values()), "the README keeps a name that is no def"
    seen = {tuple(key) for key in doc["seen"]}
    unreached = sorted(name for key, name in defs.items() if key not in seen)
    assert [name for name in unreached if name not in kept] == []
