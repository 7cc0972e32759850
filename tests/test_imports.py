"""Import graph: importing the package loads neither sympy nor scipy.

sympy is never loaded: the non-degeneracy rows come from closed-form
Taylor coefficients.  Only the coercivity refinement (``scipy.optimize``)
and the Lyapunov oracle (``scipy.linalg``) need scipy, and each loads it
when first called.  The slow-mode start and the decay fit read the linear
drift and its spectrum, not the Lyapunov solve, so a ``simulate`` run from
a slow-mode start and a ``decay-fit`` run load none.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import oscnet

SCRIPT = """
import json, sys
import numpy as np
import oscnet, oscnet.config, oscnet.cli

def heavy():
    return sorted(k for k in sys.modules if k.split(".")[0] in ("sympy", "scipy"))

after_import = heavy()
from oscnet import EvenPower, Quadratic, chain_model, check_coercive_limit, check_nondegenerate
from oscnet.diagnostics import gaussian_stationary_covariance

oracle = gaussian_stationary_covariance(chain_model(3, 1))
print(json.dumps({
    "after_import": after_import,
    "quartic_nondegenerate": check_nondegenerate(EvenPower(4, 1), [[0.0], [1.0]], 3).overall,
    "flat_direction_nondegenerate": check_nondegenerate(
        Quadratic(((1.0, 0.0), (0.0, 0.0)), 2), [[0.5, 0.5]], 2).overall,
    "coercive": check_coercive_limit(Quadratic.isotropic(2.0, 2)).coercive,
    "oracle_matches_gibbs": bool(np.allclose(oracle.sigma_inf, oracle.gibbs_covariance(1.0))),
    "after_calls": sorted({k.split(".")[0] for k in heavy()}),
}))
"""


CHECK_SCRIPT = """
import json, sys
from oscnet import cli

code = cli.main(["check", "--config", sys.argv[1], "--out", sys.argv[2]])
sympy = sorted(k for k in sys.modules if k.split(".")[0] == "sympy")
print(json.dumps({"exit": code, "sympy": sympy}))
"""


RUN_SCRIPT = """
import json, sys
from oscnet import cli

code = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
scipy = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
print(json.dumps({"exit": code, "scipy": scipy}))
"""


def fresh_interpreter(script, *args):
    """Last line of ``script``'s output, as JSON, from a new interpreter."""
    src = str(Path(oscnet.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_sympy_or_scipy():
    out = fresh_interpreter(SCRIPT)
    assert out["after_import"] == []
    # The functions that need scipy still load and use it.
    assert out["quartic_nondegenerate"] is True
    assert out["flat_direction_nondegenerate"] is False
    assert out["coercive"] is True
    assert out["oracle_matches_gibbs"] is True
    assert out["after_calls"] == ["scipy"]


def test_check_command_loads_no_sympy(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "check_chain11.json"
    out = fresh_interpreter(CHECK_SCRIPT, str(config), str(tmp_path / "out"))
    assert out == {"exit": 0, "sympy": []}


def run_scaled_config(tmp_path, name, **experiment):
    """``fresh_interpreter(RUN_SCRIPT)`` on the bundled config ``name``
    with ``experiment`` overriding its experiment section."""
    config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    doc = json.loads(config.read_text())
    doc["experiment"].update(experiment)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return fresh_interpreter(RUN_SCRIPT, doc["experiment"]["kind"], str(path), str(tmp_path / "out"))


def test_slow_mode_simulate_loads_no_scipy(tmp_path):
    # The slow-mode start needs the linear drift, not the Lyapunov solve.
    out = run_scaled_config(tmp_path, "simulate_chain3", t_end=0.1, initial={"kind": "slow-mode"})
    assert out == {"exit": 0, "scipy": []}


def test_decay_fit_loads_no_scipy(tmp_path):
    # The burn-in and the oracle rate come from the drift's eigenvalues.
    out = run_scaled_config(tmp_path, "decay_quadratic3",
                            ensemble=200, horizon=10.0, stationary_samples=800)
    assert out == {"exit": 0, "scipy": []}


def test_every_exported_name_resolves():
    modules = [oscnet] + [importlib.import_module(f"oscnet.{info.name}")
                          for info in pkgutil.iter_modules(oscnet.__path__)]
    assert len(modules) > 10
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
    namespace = {}
    exec("from oscnet import *", namespace)
    assert set(oscnet.__all__) <= set(namespace)
