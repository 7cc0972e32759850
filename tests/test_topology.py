"""Controllability calculus: growth step, depth labels, fixture verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnet.topology import (
    Edge,
    NetworkTopology,
    builtin_fixture,
    controls,
    fixture_names,
    fixture_table,
    is_connected,
    nicely_connected_step,
    random_topology,
)


def path_topology(n, baths=(0,)):
    return NetworkTopology(
        vertex_count=n,
        edges=frozenset(Edge(i, i + 1) for i in range(n - 1)),
        baths=frozenset(baths),
    )


# --- Edge / topology construction ------------------------------------------

def test_edge_is_unordered():
    assert Edge(3, 1) == Edge(1, 3)
    assert len({Edge(0, 1), Edge(1, 0)}) == 1


def test_edge_rejects_loops():
    with pytest.raises(ValueError):
        Edge(2, 2)


def test_topology_rejects_empty_graph():
    with pytest.raises(ValueError):
        NetworkTopology(vertex_count=0, edges=frozenset(), baths=frozenset())


def test_topology_rejects_out_of_range():
    with pytest.raises(ValueError):
        NetworkTopology(vertex_count=2, edges=frozenset({Edge(0, 5)}), baths=frozenset())
    with pytest.raises(ValueError):
        NetworkTopology(vertex_count=2, edges=frozenset(), baths=frozenset({7}))


# --- Growth step -------------------------------------------------------------

def test_growth_step_matches_drawn_example():
    # From the reference drawing: growing {a, b, c} absorbs exactly d and e.
    topo = builtin_fixture("fig1")
    names, _, bath_names = fixture_table("fig1")
    ids = {nm: i for i, nm in enumerate(names)}
    grown = nicely_connected_step(topo, topo.baths)
    assert grown == frozenset(ids[x] for x in "abcde")


def test_growth_step_full_set_is_fixpoint():
    topo = builtin_fixture("fig2_braced3x5")
    full = frozenset(topo.vertices)
    assert nicely_connected_step(topo, full) == full


def test_growth_step_on_path():
    topo = path_topology(3)
    first = nicely_connected_step(topo, {0})
    assert first == frozenset({0, 1})
    assert nicely_connected_step(topo, first) == frozenset({0, 1, 2})


def test_growth_step_rejects_bad_vertex():
    with pytest.raises(ValueError):
        nicely_connected_step(path_topology(3), {0, 9})


# --- controls(): frozen fixture reports --------------------------------------

# Transcribed expected depth labels, keyed by vertex name.  These freeze
# the one-time transcription of the drawings.
FIXTURE_EXPECTATIONS = {
    "fig1": (False, {
        "a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "i": 2,
        "f": None, "g": None, "h": None,
    }),
    "fig2_chain11": (True, {f"v{i}": d for i, d in enumerate([0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0])}),
    "fig2_ladder3x5": (True, {
        f"r{r}c{c}": {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}[c]
        for r in range(3) for c in range(5)
    }),
    "fig2_braced3x5": (True, {
        "r0c0": 0, "r1c0": 0, "r2c0": 0,
        "r1c1": 1, "r0c1": 2, "r2c1": 2, "r1c2": 3, "r0c2": 4, "r2c2": 4,
        "r0c3": 5, "r1c3": 5, "r2c3": 5, "r0c4": 6, "r1c4": 6, "r2c4": 6,
    }),
    "fig2_triangular": (True, {
        "t1": 0, "t2": 0, "t3": 0, "t4": 1, "t5": 2, "t6": 3,
        "t9": 4, "t8": 5, "t7": 6, "t10": 7, "t11": 8, "t12": 9,
        "t15": 10, "t14": 11, "t13": 12,
    }),
    "fig2_hexcolumns": (True, {
        "a1": 0, "a4": 0, "a5": 0, "a2": 1, "a3": 1, "a6": 1,
        "b1": 2, "b4": 2, "b5": 2, "b2": 3, "b3": 3, "b6": 3,
        "c1": 4, "c4": 4, "c5": 4, "c2": 5, "c3": 5, "c6": 5,
        "d1": 6, "d4": 6, "d5": 6, "d2": 7, "d3": 7, "d6": 7,
    }),
    "fig2_square4": (False, {"s0": 0, "s2": 0, "s1": None, "s3": None}),
    "fig2_braced2x5": (False, {
        "r0c0": 0, "r0c4": 0, "r1c0": 0, "r1c4": 0,
        "r0c3": 1, "r1c3": 1,
        "r0c1": None, "r0c2": None, "r1c1": None, "r1c2": None,
    }),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_EXPECTATIONS))
def test_fixture_control_reports(name):
    expected_controlled, expected_depth = FIXTURE_EXPECTATIONS[name]
    topo = builtin_fixture(name)
    names, _, _ = fixture_table(name)
    report = controls(topo)
    assert report.controlled is expected_controlled
    assert report.connected is True
    got = {names[v]: report.depth[v] for v in topo.vertices}
    assert got == expected_depth


def test_fixture_square4_shape():
    topo = builtin_fixture("fig2_square4")
    assert topo.vertex_count == 4
    assert len(topo.edges) == 4
    assert len(topo.baths) == 2


def test_fixture_fig1_shape():
    # The drawing has nine vertices (three of them bath-marked) and ten springs.
    topo = builtin_fixture("fig1")
    assert topo.vertex_count == 9
    assert len(topo.edges) == 10
    assert len(topo.baths) == 3
    assert is_connected(topo)


def test_unknown_fixture_lists_names():
    with pytest.raises(ValueError) as err:
        builtin_fixture("nope")
    for name in fixture_names():
        assert name in str(err.value)


def test_single_vertex_with_bath():
    topo = NetworkTopology(vertex_count=1, edges=frozenset(), baths=frozenset({0}))
    report = controls(topo)
    assert report.controlled and report.depth == {0: 0}


def test_empty_bath_set_is_not_controlled():
    report = controls(path_topology(3, baths=()))
    assert not report.controlled
    assert all(d is None for d in report.depth.values())


def test_bracing_can_destroy_controllability():
    # More relative bracing is not better: the full 3x5 ladder is controlled
    # while the small braced square is not.
    assert controls(builtin_fixture("fig2_ladder3x5")).controlled
    assert not controls(builtin_fixture("fig2_square4")).controlled


# --- is_connected -------------------------------------------------------------

def test_connectivity():
    assert is_connected(path_topology(3))
    assert not is_connected(NetworkTopology(vertex_count=2, edges=frozenset(), baths=frozenset()))
    assert is_connected(builtin_fixture("fig1"))


# --- Properties ----------------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_growth_is_monotone_and_terminates(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    current = frozenset(topo.baths)
    for _ in range(topo.vertex_count + 1):
        grown = nicely_connected_step(topo, current)
        assert grown >= current
        if grown == current:
            break
        current = grown
    else:
        pytest.fail("growth step did not reach a fixpoint in |V| iterations")


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_controllability_monotone_in_bath_set(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    if not controls(topo).controlled:
        return
    extra = int(rng.integers(0, topo.vertex_count))
    bigger = NetworkTopology(
        vertex_count=topo.vertex_count,
        edges=topo.edges,
        baths=topo.baths | {extra},
    )
    assert controls(bigger).controlled


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_depth_bound_and_frontier_inequality(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    report = controls(topo)
    if report.controlled and topo.baths:
        assert report.max_depth <= topo.vertex_count - len(topo.baths)
    # Each sweep can add at most one vertex per bath.
    sizes = [len(topo.baths)]
    current = frozenset(topo.baths)
    while True:
        grown = nicely_connected_step(topo, current)
        if grown == current:
            break
        sizes.append(len(grown))
        current = grown
    for prev, nxt in zip(sizes, sizes[1:]):
        assert nxt <= prev + len(topo.baths)


def test_controls_independent_of_edge_iteration_order():
    names, edges, baths = fixture_table("fig2_braced3x5")
    index = {nm: i for i, nm in enumerate(names)}
    forward = NetworkTopology(
        vertex_count=len(names),
        edges=frozenset(Edge(index[u], index[v]) for u, v in edges),
        baths=frozenset(index[b] for b in baths),
    )
    backward = NetworkTopology(
        vertex_count=len(names),
        edges=frozenset(Edge(index[v], index[u]) for u, v in reversed(list(edges))),
        baths=frozenset(index[b] for b in reversed(list(baths))),
    )
    assert controls(forward) == controls(backward)
