"""Smoke tests for the scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
