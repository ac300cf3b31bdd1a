"""The package runs on numpy alone."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_package_imports_no_scipy():
    # a stray module-level scipy import would add its load time to every
    # CLI start; scipy is a test and bench dependency only
    code = ("import sys, gcwaves, gcwaves.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_imports_neither_fractions_nor_decimal():
    # the CSV and JSON writers format every float with Python's own
    # "%.17g", so no output needs exact decimal or rational arithmetic,
    # and neither module should add its load time to a CLI start
    code = ("import sys, gcwaves.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
