"""Aggregated structural checks (C1-C5, CA) on whole models."""

import pytest

from oscnet import conditions
from oscnet.conditions import check_conditions
from oscnet.dynamics import _scan_degrees
from oscnet.fixtures import c4_counterexample_model
from oscnet.model import BathSpec, Model, chain_model
from oscnet.potentials import (
    Quadratic,
    SoftPower,
    check_coercive_limit,
    check_nondegenerate,
    default_nondegeneracy_samples,
)
from oscnet.topology import Edge, NetworkTopology, builtin_fixture


def test_harmonic_five_chain_passes_everything():
    report = check_conditions(chain_model(5, 1, temperatures=(1.0, 2.0)))
    assert report.c1_ok
    assert report.c2_overall
    assert report.c3_overall
    assert report.c4_overall is True
    assert report.c5
    assert report.ca
    assert report.all_pass
    doc = report.as_dict()
    assert doc["all_pass"] is True
    assert doc["interaction_degrees"] == [2.0]
    assert doc["pinning_degrees"] == [2.0]


def test_mixed_pinning_degree_fails_c5_with_message():
    m = chain_model(5, 1, temperatures=(1.0, 2.0))
    pinning = dict(m.pinning)
    pinning[2] = SoftPower(degree=4, dim=1)
    mixed = Model(m.topology, 1, pinning, dict(m.interaction), dict(m.baths))
    report = check_conditions(mixed)
    assert not report.c5
    assert report.c5_message.startswith("pinning degrees are mixed")
    assert not report.all_pass
    # The same for interactions.
    interaction = dict(m.interaction)
    interaction[Edge(1, 2)] = SoftPower(degree=4, dim=1)
    mixed = Model(m.topology, 1, dict(m.pinning), interaction, dict(m.baths))
    report = check_conditions(mixed)
    assert not report.c5
    assert report.c5_message.startswith("interaction degrees are mixed")


def test_model_without_edges_has_only_the_pinning_scale():
    topo = NetworkTopology(2, frozenset(), frozenset({0, 1}))
    spec = SoftPower(degree=4, dim=1)
    model = Model(topo, 1, {0: spec, 1: spec}, {}, {0: BathSpec(1.0, 1.0), 1: BathSpec(1.0, 1.0)})
    assert _scan_degrees(model) == (4.0, 4.0)
    report = check_conditions(model)
    assert report.c5
    assert report.c5_message.startswith("no interactions")


def test_faster_pinning_than_interaction_fails_c5():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=Quadratic.isotropic(1.0, 1), temperatures=(1.0, 1.0))
    report = check_conditions(m)
    assert not report.c5
    assert "2.0" in report.c5_message and "4.0" in report.c5_message


def test_interaction_degree_above_pinning_passes_c5():
    m = chain_model(3, 1, pinning=Quadratic.isotropic(1.0, 1),
                    interaction=SoftPower(degree=4, dim=1), temperatures=(1.0, 1.0))
    report = check_conditions(m)
    assert report.c5


def test_counterexample_model_reports_unknown_c4():
    report = check_conditions(c4_counterexample_model())
    assert report.c4_overall is None
    # The mixed-sign pinning piece fails limiting coercivity.
    assert not report.c3_overall
    assert not report.all_pass


def test_uncontrolled_fixture_fails_c1_only():
    topo = builtin_fixture("fig2_square4")
    spec = Quadratic.isotropic(1.0, 1)
    m = Model(topo, 1, {v: spec for v in topo.vertices},
              {e: spec for e in topo.edges},
              {b: BathSpec(1.0, 1.0) for b in topo.baths})
    report = check_conditions(m)
    assert not report.c1_ok
    assert report.c2_overall and report.c3_overall and report.c5
    assert not report.all_pass


def test_ca_follows_coercivity():
    good = check_conditions(chain_model(3, 1))
    assert good.ca is good.c3_overall is True
    zero_pin = chain_model(3, 1, pinning=Quadratic.isotropic(0.0, 1))
    report = check_conditions(zero_pin)
    assert not report.c3_overall
    assert not report.ca


@pytest.mark.parametrize("pinning, coercive_calls", [
    (None, 1),  # the default pinning equals the default interaction spec
    (Quadratic.isotropic(2.0, 2), 2),
])
def test_each_distinct_spec_is_checked_once(pinning, coercive_calls, monkeypatch):
    # 11 vertices and 10 edges ran 21 coercivity checks and 10 rank checks,
    # one per key, though the model has at most two distinct specs.
    model = chain_model(11, 2, pinning=pinning)
    calls = {"coercive": 0, "rank": 0}

    def counted(name, check):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(conditions, "check_coercive_limit", counted("coercive", check_coercive_limit))
    monkeypatch.setattr(conditions, "check_nondegenerate", counted("rank", check_nondegenerate))
    report = check_conditions(model, nondegeneracy_samples=20, sphere_samples=256)
    assert calls == {"coercive": coercive_calls, "rank": 1}

    for v in model.topology.vertices:
        assert report.c3[f"pinning:{v}"] == check_coercive_limit(model.pinning[v], 256)
    for e in model.topology.edge_list:
        spec = model.interaction[e]
        assert report.c3[f"interaction:{e.a}-{e.b}"] == check_coercive_limit(spec, 256)
        samples = default_nondegeneracy_samples(spec.dim, extra=20)
        assert report.c2[e] == check_nondegenerate(spec, samples, ell=conditions._rank_order(spec.degree))
