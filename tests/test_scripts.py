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


def test_dispersion_regimes_script_runs(tmp_path):
    run_script("dispersion_regimes.py", "--out", str(tmp_path))
    for name, verdict in (("valid", "Valid"),
                          ("double_minimum", "DoubleMinimum"),
                          ("degenerate", "Degenerate")):
        summary = json.loads((tmp_path / f"{name}.json").read_text())
        assert summary["verdict"] == verdict
        assert (tmp_path / f"{name}.csv").exists()
