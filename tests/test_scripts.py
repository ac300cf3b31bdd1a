import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_mu_sweep_script_runs(tmp_path):
    # toy levels outside the speed law's range: the script's plumbing
    # (eps_of_mu, build_eta_star, eval_J, minimize and the fit), not its
    # numbers
    out = tmp_path / "sweep"
    run_script("mu_sweep.py", "--mus", "9e-3,8e-3,7e-3", "--n", "2048",
               "--out", str(out))
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"k0", "nu0", "i_nls", "fitted", "predicted",
                            "rows"}
    assert [row[0] for row in summary["rows"]] == [9e-3, 8e-3, 7e-3]
    assert len(list(out.glob("minimizer_mu*.csv"))) == 3


def test_dispersion_regimes_script_runs(tmp_path):
    run_script("dispersion_regimes.py", "--out", str(tmp_path))
    for name, verdict in (("valid", "Valid"),
                          ("double_minimum", "DoubleMinimum"),
                          ("degenerate", "Degenerate")):
        summary = json.loads((tmp_path / f"{name}.json").read_text())
        assert summary["verdict"] == verdict
        assert (tmp_path / f"{name}.csv").exists()
