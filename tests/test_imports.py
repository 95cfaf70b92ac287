import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_scipy():
    # scipy costs over a second to import; only tabulated drives/masses and
    # the dense displacement operators load it, on first use
    code = ("import kerrosc.cli, sys; print(' '.join(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
