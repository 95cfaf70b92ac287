import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under any of the prefixes loaded by a fresh interpreter."""
    code += ("; import sys; print(' '.join(sorted(m for m in sys.modules if "
             f"any(m == p or m.startswith(p + '.') for p in {prefixes!r}))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_loads_no_scipy():
    # scipy costs over a second to import; only tabulated drives/masses and
    # the dense displacement operators load it, on first use.  The Legendre
    # rule of the quadrature kernel loads numpy.polynomial on first use too.
    assert loaded("import kerrosc.cli", ("scipy", "numpy.polynomial")) == []


def test_package_import_loads_no_optional_module():
    # the benchmark's setup_s times `python -c "import kerrosc"`: the
    # package import stays at numpy's own, loading no config reader, scipy,
    # Legendre rule or masked arrays
    assert loaded("import kerrosc", ("yaml", "scipy", "numpy.polynomial",
                                     "numpy.ma")) == []


def test_autocorr_run_loads_no_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma, 16-19 ms in a fresh
    # interpreter; the revival filter takes its medians by np.partition
    cfg = tmp_path / "autocorr.yaml"
    cfg.write_text("model: {omega0: 1.0, chi: 0.25, alpha: 1.0}\n"
                   "drive: cos\ntime: {t_end: 3.0, samples: 121}\n")
    code = ("import os, sys; from kerrosc.cli import main; "
            "sys.stdout = open(os.devnull, 'w'); "
            f"code = main(['autocorr', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "sys.stdout = sys.__stdout__; assert code == 0")
    assert loaded(code, ("numpy.ma",)) == []
    assert (tmp_path / "out" / "autocorr.csv").exists()


def test_timemap_loads_scipy_only_for_a_tabulated_mass():
    assert loaded("import kerrosc.timemap", ("scipy",)) == []
    tabulated = loaded("import kerrosc.timemap as tm; "
                       "tm.MassSpec.tabulated([0.0, 1.0], [1.0, 2.0])",
                       ("scipy",))
    assert "scipy.interpolate" in tabulated


def test_block_schrodinger_run_loads_no_scipy():
    # check 5's route: the parity blocks of its oscillator are found with
    # numpy alone, and the exponential mass map needs no interpolation
    code = ("import math; import numpy as np; "
            "from kerrosc import fock, oracle, timemap; "
            "q = fock.position_operator(12).matrix; "
            "p = fock.momentum_operator(12).matrix; "
            "mass = timemap.MassSpec.exponential(1.0, 0.3); "
            "w = lambda s: math.exp(0.3 * timemap.physical_time(mass, s)); "
            "oracle.integrate_schrodinger("
            "lambda s: 0.5 * p @ p + 0.5 * w(s) ** 2 * q @ q, "
            "fock.number_state(0, 12), 1.0)")
    assert loaded(code, ("scipy",)) == []


def test_exact_run_loads_no_scipy():
    # the oracle's route: the chiral form of the coupling comes from one
    # numpy SVD, on an odd basis here, so its padding row runs too
    code = ("import numpy as np; "
            "from kerrosc import driven, evolution, fock, oracle; "
            "p = evolution.ModelParams(omega0=1.0, chi=0.25, "
            "drive=driven.DriveSpec.cosine(1.0, 1.0), alpha=1.0); "
            "oracle.integrate_exact(p, fock.coherent_state(1.0, 31), 1.0, "
            "sample_times=np.linspace(0.0, 1.0, 11))")
    assert loaded(code, ("scipy",)) == []


@pytest.mark.parametrize("module", ["kerrosc"] + [
    f"kerrosc.{info.name}"
    for info in pkgutil.iter_modules([str(SRC / "kerrosc")])])
def test_star_import_finds_every_exported_name(module):
    # a name deleted from a module but left in its __all__ fails here
    exec(f"from {module} import *", {})
