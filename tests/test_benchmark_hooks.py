"""The benchmark's instrument installs on the package and restores it.

``perfbench/instrument.py`` wraps oscnet's layer boundaries from outside
the program.  Its traced install reads ``gradient`` and ``value`` from the
class dicts of the analytic potential families, every function named in
its ``DIAGNOSTICS_ENTRY_POINTS``, and ``BatchIntegrator.__init__`` and
``run``.  Untraced benchmark runs read only some of these, so this test
loads the instrument as it is, by path, and installs it traced.
"""

import importlib.util
import sys
from pathlib import Path

# Every module the install imports is loaded before the first snapshot.
from oscnet import conditions, config, diagnostics, dynamics, potentials, rng, runner  # noqa: F401

INSTRUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"
FAMILIES = (potentials.SoftPower, potentials.EvenPower, potentials.Quadratic)


def load_instrument():
    spec = importlib.util.spec_from_file_location("oscnet_bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    """Every attribute of the namespaces the install may patch: the loaded
    oscnet modules and the classes whose dicts it edits."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "oscnet" or name.startswith("oscnet."))]
    namespaces += [dynamics.BatchIntegrator, dynamics.PrecomputedNoise, *FAMILIES]
    return {(ns, attr): value for ns in namespaces for attr, value in list(vars(ns).items())}


def test_traced_instrument_installs_and_restores_every_attribute():
    instrument = load_instrument()
    before = snapshot()
    inst = instrument.Instrument(trace=True)
    inst.install()
    try:
        installed = snapshot()
    finally:
        inst.uninstall()
    after = snapshot()

    patched = {key for key, value in installed.items() if before.get(key) is not value}
    want = {(dynamics.BatchIntegrator, "__init__"), (dynamics.BatchIntegrator, "run"),
            (dynamics.PrecomputedNoise, "standard_normal")}
    want |= {(cls, kind) for cls in FAMILIES for kind in ("gradient", "value")}
    want |= {(diagnostics, name) for name in instrument.DIAGNOSTICS_ENTRY_POINTS}
    want |= {(dynamics, name) for name in ("integrate", "integrate_deterministic")}
    assert want <= patched
    assert installed.keys() == before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)
