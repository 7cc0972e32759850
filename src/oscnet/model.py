"""The complete SDE definition: topology + potentials + heat baths.

Each vertex ``v`` carries momentum/position in R^n, a pinning potential
``U_v``, and (if it is a bath vertex) a friction ``gamma_b > 0`` and a
temperature ``T_b > 0``.  Each edge ``e = (a, b)`` carries an interaction
potential ``V_e`` evaluated at ``dq_e = q_b - q_a``.  Non-bath vertices
implicitly have ``gamma = T = 0``.  Masses are fixed at one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .potentials import PotentialSpec, Quadratic
from .topology import Edge, NetworkTopology

__all__ = ["BathSpec", "Model"]


@dataclass(frozen=True)
class BathSpec:
    """Friction and temperature of one Langevin heat bath."""

    gamma: float
    temperature: float

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError("bath gamma must be > 0")
        if not (self.temperature >= 0):
            raise ValueError("bath temperature must be >= 0")


@dataclass(frozen=True)
class Model:
    """Oscillator network with Langevin baths; immutable and shareable."""

    topology: NetworkTopology
    dim: int
    pinning: Mapping[int, PotentialSpec]
    interaction: Mapping[Edge, PotentialSpec]
    baths: Mapping[int, BathSpec]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("spatial dimension must be >= 1")
        topo = self.topology
        if set(self.pinning) != set(topo.vertices):
            raise ValueError("pinning must assign a potential to every vertex")
        if set(self.interaction) != set(topo.edges):
            raise ValueError("interaction must assign a potential to every edge")
        if set(self.baths) != set(topo.baths):
            raise ValueError("baths must assign (gamma, T) to exactly the bath vertices")
        for v, spec in self.pinning.items():
            if spec.dim != self.dim:
                raise ValueError(f"pinning potential at vertex {v} has dimension {spec.dim} != {self.dim}")
        for e, spec in self.interaction.items():
            if spec.dim != self.dim:
                raise ValueError(f"interaction potential on edge {e} has dimension {spec.dim} != {self.dim}")

    @property
    def vertex_count(self) -> int:
        return self.topology.vertex_count

    def gamma_of(self, v: int) -> float:
        bath = self.baths.get(v)
        return bath.gamma if bath is not None else 0.0

    def temperature_of(self, v: int) -> float:
        bath = self.baths.get(v)
        return bath.temperature if bath is not None else 0.0

    @property
    def t_max(self) -> float:
        if not self.baths:
            return 0.0
        return max(b.temperature for b in self.baths.values())

    @property
    def noise_work_rate(self) -> float:
        """Mean rate n * sum_b gamma_b T_b at which the baths inject energy."""
        return self.dim * sum(b.gamma * b.temperature for b in self.baths.values())

    def interaction_degrees(self) -> tuple[float, ...]:
        return tuple(sorted({float(s.degree) for s in self.interaction.values()}))

    def pinning_degrees(self) -> tuple[float, ...]:
        return tuple(sorted({float(s.degree) for s in self.pinning.values()}))


def chain_model(
    n_masses: int,
    dim: int = 1,
    pinning: PotentialSpec | None = None,
    interaction: PotentialSpec | None = None,
    gamma: float = 1.0,
    temperatures: tuple[float, float] = (1.0, 1.0),
) -> Model:
    """Open chain with baths at both ends; the workhorse test system."""
    if n_masses < 1:
        raise ValueError("need at least one mass")
    if pinning is None:
        pinning = Quadratic.isotropic(1.0, dim)
    if interaction is None:
        interaction = Quadratic.isotropic(1.0, dim)
    edges = frozenset(Edge(i, i + 1) for i in range(n_masses - 1))
    bath_ids = (0, n_masses - 1) if n_masses > 1 else (0,)
    topo = NetworkTopology(vertex_count=n_masses, edges=edges, baths=frozenset(bath_ids))
    baths = {b: BathSpec(gamma=gamma, temperature=T) for b, T in zip(bath_ids, temperatures)}
    return Model(
        topology=topo,
        dim=dim,
        pinning={v: pinning for v in range(n_masses)},
        interaction={e: interaction for e in edges},
        baths=baths,
    )
