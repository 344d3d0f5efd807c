"""Smoke tests for the scripts under scripts/, and the benchmark's contract
with the library: perfbench/ names solver functions and config fields that
must keep existing, or its metrics silently read 0."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import lwirange
from lwirange.hyperspectral import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_rho_eps_prints_one_row_per_weight(capsys):
    sweep = load_script("sweep_rho_eps")
    code = sweep.main(["--rows", "2", "--cols", "3", "--bands", "8", "--q", "2",
                       "--weights", "0,1e5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("scene 2x3x8  q=2")
    assert lines[1].split() == ["rho_eps", "d_rmse_m", "d_bias_m", "eps_rough", "secs"]
    rows = [line.split() for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [0.0, 1e5]
    assert all(len(r) == 5 for r in rows)


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def traced_tree():
    return ast.parse((PERFBENCH / "traced.py").read_text(encoding="utf-8"))


def test_traced_profile_names_library_functions():
    (profile,) = [ast.literal_eval(node.value) for node in traced_tree().body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["PROFILE"]]
    modules = [importlib.import_module(f"lwirange.{info.name}")
               for info in pkgutil.iter_modules(lwirange.__path__)]
    defined = {name for mod in modules
               for name, obj in vars(mod).items() if inspect.isfunction(obj)}
    missing = sorted({func for _, func, _ in profile} - defined)
    assert not missing, f"traced.PROFILE names no lwirange function: {missing}"


def test_traced_config_keywords_are_solver_fields():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    used = set()
    for node in ast.walk(traced_tree()):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("replace", "SolverConfig"):
                used.update(kw.arg for kw in node.keywords)
    assert used, "traced.py no longer configures the solver"
    assert used <= fields, f"not SolverConfig fields: {sorted(used - fields)}"
