import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mu_sweep_script_runs(tmp_path):
    # toy levels outside the speed law's range: the script's plumbing
    # (eps_of_mu, build_eta_star, eval_J, minimize and the fit), not its
    # numbers
    out = tmp_path / "sweep"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mu_sweep.py"),
         "--mus", "9e-3,8e-3,7e-3", "--n", "2048", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"k0", "nu0", "i_nls", "fitted", "predicted",
                            "rows"}
    assert [row[0] for row in summary["rows"]] == [9e-3, 8e-3, 7e-3]
    assert len(list(out.glob("minimizer_mu*.csv"))) == 3
