"""Bundled models: standard chains and the locally-flat-force counterexample.

The counterexample is a two-mass system in three dimensions whose
interaction force is constant along a line segment, which defeats the
local-injectivity condition on the limiting forces.  All polynomial pieces
are valid only near the initial configuration; ``c4_guard`` pins the
integration to that region.

Geometry (everything happens in the xy-plane; z exists only so the
interaction can be non-degenerate):

* mass 1 starts at rest at (0, 1, 0) with pinning (x^4 + y^4 + z^4)/4,
* mass 2 starts at rest at (4, 2, 0) with pinning x^4/64 - y^4/32 + z^4/4,
* the spring potential in dq = q2 - q1 is y^4/4 + x^2 z^2 / 2 near (4,1,0).

The spring force on mass 1 stays (0, 1, 0) and cancels its pinning force,
so mass 1 never moves while x2 oscillates in a quartic well.
"""

from __future__ import annotations

import numpy as np

from .dynamics import State
from .model import BathSpec, Model
from .potentials import LocalPiece
from .topology import Edge, NetworkTopology

__all__ = [
    "c4_counterexample_model",
    "c4_initial_state",
    "c4_guard",
    "C4_VALIDITY_BOX",
    "c4_naive_pinning_piece",
]

# All three pieces are non-negative on the validity box below (the mixed-
# sign piece has minimum ~0.53 there), so the documented normalization
# offset is zero for this fixture.
_PIN1 = LocalPiece(
    terms=((0.25, (4, 0, 0)), (0.25, (0, 4, 0)), (0.25, (0, 0, 4))),
    dim=3,
)
_PIN2 = LocalPiece(
    terms=((1.0 / 64.0, (4, 0, 0)), (-1.0 / 32.0, (0, 4, 0)), (0.25, (0, 0, 4))),
    dim=3,
)
_SPRING = LocalPiece(
    terms=((0.25, (0, 4, 0)), (0.5, (2, 0, 2))),
    dim=3,
)

# Per-coordinate half-widths of the region where the polynomial pieces
# stand in for the (never constructed) global potentials.
C4_VALIDITY_BOX = {
    "q1_center": (0.0, 1.0, 0.0),
    "q1_halfwidth": (0.2, 0.2, 0.2),
    "q2_center": (4.0, 2.0, 0.0),
    "q2_halfwidth": (1.0, 0.2, 0.2),
}


def c4_naive_pinning_piece() -> LocalPiece:
    """The second pinning piece extended naively (no offset): its limiting
    form is negative at (0, 1, 0), so it fails the coercivity check."""
    return LocalPiece(
        terms=((1.0 / 64.0, (4, 0, 0)), (-1.0 / 32.0, (0, 4, 0)), (0.25, (0, 0, 4))),
        dim=3,
    )


def c4_counterexample_model(gamma: float = 1.0, temperature: float = 1.0) -> Model:
    """Two masses, one bath on mass 1, spring with locally constant force."""
    topo = NetworkTopology(vertex_count=2, edges=frozenset({Edge(0, 1)}), baths=frozenset({0}))
    return Model(
        topology=topo,
        dim=3,
        pinning={0: _PIN1, 1: _PIN2},
        interaction={Edge(0, 1): _SPRING},
        baths={0: BathSpec(gamma=gamma, temperature=temperature)},
    )


def c4_initial_state() -> State:
    p = np.zeros((2, 3))
    q = np.array([[0.0, 1.0, 0.0], [4.0, 2.0, 0.0]])
    return State(p, q)


# The box as (mass, coordinate) arrays, built once: the guard runs after
# every integration step.
_BOX_CENTER = np.array([C4_VALIDITY_BOX["q1_center"], C4_VALIDITY_BOX["q2_center"]])
_BOX_HALFWIDTH = np.array([C4_VALIDITY_BOX["q1_halfwidth"], C4_VALIDITY_BOX["q2_halfwidth"]])


def c4_guard(state: State) -> bool:
    """True while both masses remain inside the documented validity box."""
    return bool((np.abs(state.q - _BOX_CENTER) <= _BOX_HALFWIDTH).all())
