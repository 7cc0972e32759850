"""oscnet: simulation and verification toolkit for oscillator networks
driven by Langevin heat baths at (possibly different) temperatures.

The package covers:

* network topologies and the bath-controllability calculus (``topology``),
* a closed family of pinning/interaction potentials with analytic
  gradients, limiting forms, and structural checkers (``potentials``,
  ``conditions``),
* the Hamiltonian dynamics and a splitting integrator with pathwise
  energy-budget accounting (``model``, ``dynamics``),
* Monte Carlo and Lyapunov-equation diagnostics of stationary behavior,
  energy drift, dissipation rates, and convergence (``diagnostics``),
* a config-driven CLI with deterministic, seeded artifacts (``cli``).
"""

__version__ = "0.1.0"

from .conditions import ConditionReport, check_conditions
from .dynamics import (
    State,
    Trace,
    forces,
    hamiltonian,
    integrate,
    integrate_deterministic,
    tau,
)
from .errors import BlowupError, ConfigError, OracleError, OscnetError, ValidityRegionError
from .model import BathSpec, Model, chain_model
from .potentials import (
    EvenPower,
    LocalPiece,
    Quadratic,
    SoftPower,
    check_coercive_limit,
    check_nondegenerate,
)
from .rng import seed_stream
from .topology import (
    ControlReport,
    Edge,
    NetworkTopology,
    builtin_fixture,
    controls,
    is_connected,
    nicely_connected_step,
)

__all__ = [
    "__version__",
    "BathSpec",
    "BlowupError",
    "ConditionReport",
    "ConfigError",
    "ControlReport",
    "Edge",
    "EvenPower",
    "LocalPiece",
    "Model",
    "NetworkTopology",
    "OracleError",
    "OscnetError",
    "Quadratic",
    "SoftPower",
    "State",
    "Trace",
    "ValidityRegionError",
    "builtin_fixture",
    "chain_model",
    "check_coercive_limit",
    "check_conditions",
    "check_nondegenerate",
    "controls",
    "forces",
    "hamiltonian",
    "integrate",
    "integrate_deterministic",
    "is_connected",
    "nicely_connected_step",
    "seed_stream",
    "tau",
]
