"""Aggregated structural checks on a model (conditions C1-C5 and CA).

* C1: the graph is connected and the bath set controls it.
* C2: every interaction potential passes the sampled derivative-rank test.
* C3: every limiting potential is strictly positive on the unit sphere.
* C4: the limiting interaction forces are locally injective; decided per
  family by an analytic flag (strictly convex limiting form), with
  ``None`` = unknown for explicit polynomial pieces.
* C5: all interaction degrees agree, all pinning degrees agree, and the
  interaction degree is at least the pinning degree.
* CA: compact level sets / integrability; implied by C3.

The numeric checks are sampled, never proofs, and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import Model
from .potentials import (
    MAX_NONDEGENERACY_ORDER,
    CoercivityReport,
    NondegeneracyReport,
    check_coercive_limit,
    check_nondegenerate,
    default_nondegeneracy_samples,
)
from .topology import ControlReport, Edge, controls

__all__ = ["ConditionReport", "check_conditions"]


@dataclass(frozen=True)
class ConditionReport:
    c1: ControlReport
    c2: Mapping[Edge, NondegeneracyReport]
    c2_overall: bool
    c3: Mapping[str, CoercivityReport]
    c3_overall: bool
    c4: Mapping[Edge, bool | None]
    c4_overall: bool | None
    c5: bool
    c5_message: str
    ca: bool
    interaction_degrees: tuple[float, ...]
    pinning_degrees: tuple[float, ...]

    @property
    def c1_ok(self) -> bool:
        return self.c1.controlled and self.c1.connected

    @property
    def all_pass(self) -> bool:
        return bool(
            self.c1_ok
            and self.c2_overall
            and self.c3_overall
            and self.c4_overall is True
            and self.c5
            and self.ca
        )

    def as_dict(self) -> dict:
        return {
            "c1": {"ok": self.c1_ok, **self.c1.as_dict()},
            "c2": {
                "ok": self.c2_overall,
                "per_edge": {f"{e.a}-{e.b}": r.as_dict() for e, r in sorted(self.c2.items())},
            },
            "c3": {
                "ok": self.c3_overall,
                "per_potential": {k: r.as_dict() for k, r in sorted(self.c3.items())},
            },
            "c4": {
                "ok": self.c4_overall,
                "per_edge": {f"{e.a}-{e.b}": v for e, v in sorted(self.c4.items())},
            },
            "c5": {"ok": self.c5, "message": self.c5_message},
            "ca": {"ok": self.ca, "implied_by": "c3"},
            "interaction_degrees": list(self.interaction_degrees),
            "pinning_degrees": list(self.pinning_degrees),
            "all_pass": self.all_pass,
        }


def _rank_order(degree: float) -> int:
    # The known examples need derivatives up to degree - 1; capped for cost.
    return max(1, min(MAX_NONDEGENERACY_ORDER, int(round(degree)) - 1))


def check_conditions(
    model: Model,
    nondegeneracy_samples: int = 20,
    sphere_samples: int = 256,
) -> ConditionReport:
    """Run C1-C5 and CA against a model and aggregate the outcomes."""
    c1 = controls(model.topology)

    # Each check is a pure function of its spec, so it runs once per
    # distinct spec and its report is shared by every key that uses it.
    interactions = {e: model.interaction[e] for e in model.topology.edge_list}
    ranks = {
        spec: check_nondegenerate(
            spec,
            default_nondegeneracy_samples(spec.dim, extra=nondegeneracy_samples),
            ell=_rank_order(spec.degree),
        )
        for spec in dict.fromkeys(interactions.values())
    }
    c2: dict[Edge, NondegeneracyReport] = {e: ranks[spec] for e, spec in interactions.items()}
    c2_overall = all(r.overall for r in c2.values()) if c2 else True

    c3_specs = {f"pinning:{v}": model.pinning[v] for v in model.topology.vertices}
    c3_specs.update((f"interaction:{e.a}-{e.b}", spec) for e, spec in interactions.items())
    limits = {spec: check_coercive_limit(spec, sphere_samples) for spec in dict.fromkeys(c3_specs.values())}
    c3: dict[str, CoercivityReport] = {k: limits[spec] for k, spec in c3_specs.items()}
    c3_overall = all(r.coercive for r in c3.values())

    c4: dict[Edge, bool | None] = {}
    for e in model.topology.edge_list:
        flag = model.interaction[e].limiting_strictly_convex
        c4[e] = bool(flag) if flag is not None else None
    if any(v is None for v in c4.values()):
        c4_overall: bool | None = None
    else:
        c4_overall = all(c4.values()) if c4 else True

    li = model.interaction_degrees()
    lp = model.pinning_degrees()
    if len(li) > 1:
        c5, msg = False, f"interaction degrees are mixed: {li}; a common degree is required"
    elif len(lp) > 1:
        c5, msg = False, f"pinning degrees are mixed: {lp}; a common degree is required"
    elif not li:
        c5, msg = True, "no interactions; nothing to compare"
    elif li[0] >= lp[0]:
        c5, msg = True, f"interaction degree {li[0]} >= pinning degree {lp[0]}"
    else:
        c5, msg = False, f"interaction degree {li[0]} < pinning degree {lp[0]}"

    return ConditionReport(
        c1=c1,
        c2=c2,
        c2_overall=c2_overall,
        c3=c3,
        c3_overall=c3_overall,
        c4=c4,
        c4_overall=c4_overall,
        c5=c5,
        c5_message=msg,
        ca=c3_overall,
        interaction_degrees=li,
        pinning_degrees=lp,
    )
