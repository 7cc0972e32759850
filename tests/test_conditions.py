"""Aggregated structural checks (C1-C5, CA) on whole models."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscnet import conditions
from oscnet.conditions import check_conditions
from oscnet.diagnostics import _linear_drift, _spectral_abscissa
from oscnet.dynamics import _scan_degrees
from oscnet.errors import OracleError
from oscnet.fixtures import (
    c1_counterexample_model,
    c2_counterexample_model,
    c4_counterexample_model,
)
from oscnet.model import BathSpec, Model, chain_model
from oscnet.potentials import (
    Quadratic,
    SoftPower,
    check_coercive_limit,
    check_nondegenerate,
    default_nondegeneracy_samples,
)
from oscnet.topology import Edge, NetworkTopology, builtin_fixture, controls, random_topology


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


# --- C1 and C2 against the linear drift ------------------------------------------
# For a harmonic network C1 (controllability) and C2 (non-degeneracy) are
# sufficient for a Hurwitz drift, whose stationary law is then unique.

def verdicts(model):
    report = check_conditions(model)
    return report.c1_ok, report.c2_overall


def test_star_with_the_bath_at_the_hub_fails_c1():
    # Identical leaves: their antisymmetric mode is dark.
    assert verdicts(c1_counterexample_model()) == (False, True)
    with pytest.raises(OracleError, match="not Hurwitz"):
        _linear_drift(c1_counterexample_model())
    # C1 is not necessary: unequal leaves are Hurwitz, if barely.
    detuned = c1_counterexample_model(leaf_pinning=1.3)
    assert verdicts(detuned) == (False, True)
    assert _spectral_abscissa(_linear_drift(detuned)[0]) == pytest.approx(-0.00556, rel=1e-3)


def test_chain_with_a_rank_one_spring_fails_c2():
    assert verdicts(c2_counterexample_model()) == (True, False)
    with pytest.raises(OracleError, match="not Hurwitz"):
        _linear_drift(c2_counterexample_model())
    full = c2_counterexample_model(((1.0, 0.3), (0.3, 0.5)))
    assert verdicts(full) == (True, True)
    assert _spectral_abscissa(_linear_drift(full)[0]) == pytest.approx(-0.0162, rel=1e-3)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3))
def test_c1_and_c2_imply_a_hurwitz_drift(seed, dim):
    # A positive-definite stiffness on every vertex and edge, each its own.
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, max_vertices=8)
    assume(controls(topo).controlled)

    def stiffness():
        A = rng.standard_normal((dim, dim))
        return Quadratic(tuple(map(tuple, A @ A.T + 0.5 * np.eye(dim))), dim)

    model = Model(topo, dim, {v: stiffness() for v in topo.vertices},
                  {e: stiffness() for e in topo.edge_list},
                  {b: BathSpec(1.0, 1.0) for b in topo.baths})
    samples = default_nondegeneracy_samples(dim)
    assert all(check_nondegenerate(spec, samples, 1).overall for spec in model.interaction.values())
    A, _, _ = _linear_drift(model)  # OracleError unless Hurwitz
    assert _spectral_abscissa(A) < 0
