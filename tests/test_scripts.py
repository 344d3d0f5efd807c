"""Smoke tests for the scripts under scripts/, and the benchmark's contract
with the library: perfbench/ names solver functions, config and estimate
fields, and saved files that must keep existing, or its metrics silently
read 0."""

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
from lwirange import cube_io
from lwirange.hyperspectral import EstimateMaps, SolverConfig

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


def perfbench_function(module, name):
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return func


def attributes_read_from(tree, var):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == var}


def string_constants(tree):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


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


def test_traced_config_reads_are_solver_fields():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    used = attributes_read_from(traced_tree(), "cfg")
    assert used, "traced.py no longer reads the solver config"
    assert used <= fields, f"not SolverConfig fields: {sorted(used - fields)}"


def test_traced_estimate_reads_are_estimate_fields():
    fields = {f.name for f in dataclasses.fields(EstimateMaps)}
    used = attributes_read_from(traced_tree(), "est")
    assert used, "traced.py no longer reads the solver estimate"
    assert used <= fields, f"not EstimateMaps fields: {sorted(used - fields)}"


def test_checks_read_estimates_opens_saved_files():
    # read_estimates opens f"{name}.lwc" for each name in its tuple
    func = perfbench_function("checks", "read_estimates")
    opened = {f"{name}.lwc" for node in ast.walk(func) if isinstance(node, ast.Tuple)
              for name in string_constants(node)}
    saved = {entry[1] for entry in cube_io._EST_FILES}
    assert opened, "read_estimates no longer lists estimate files"
    assert opened <= saved, f"not estimate files: {sorted(opened - saved)}"


def test_reference_read_truth_opens_saved_files():
    func = perfbench_function("reference", "read_truth")
    opened = {name for name in string_constants(func) if name.endswith(".lwc")}
    saved = {entry[1] for entry in cube_io._TRUTH_FILES}
    assert opened, "read_truth no longer lists truth files"
    assert opened <= saved, f"not truth files: {sorted(opened - saved)}"
