"""Oscillator network graphs and the bath-controllability calculus.

A network is an undirected, loop-free graph on vertices ``0..N-1`` with a
distinguished subset of *bath* vertices.  The central operation is the
growth step ``T``: starting from a vertex set ``B``, a vertex ``v`` outside
``B`` is absorbed whenever some ``b`` in ``B`` is linked to ``v`` and ``b``
has no other edge leaving ``B``.  The bath set *controls* the network when
iterating ``T`` from the baths eventually covers every vertex; the number
of iterations needed to absorb a vertex is its *depth*.

The eight built-in fixtures transcribe the drawn reference networks into
adjacency tables (see ``_FIXTURE_TABLE``); their expected control reports
are frozen in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Edge",
    "NetworkTopology",
    "ControlReport",
    "nicely_connected_step",
    "controls",
    "is_connected",
    "builtin_fixture",
    "fixture_names",
    "fixture_table",
    "random_topology",
]

VertexId = int


@dataclass(frozen=True, order=True)
class Edge:
    """Unordered pair of distinct vertices; (a, b) and (b, a) are the same edge."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"loop edge ({self.a}, {self.a}) is not allowed")
        if self.a < 0 or self.b < 0:
            raise ValueError(f"negative vertex id in edge ({self.a}, {self.b})")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected loop-free graph with a distinguished bath-vertex set."""

    vertex_count: int
    edges: frozenset[Edge]
    baths: frozenset[int]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("a topology needs at least one vertex")
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "baths", frozenset(self.baths))
        for e in self.edges:
            if not (0 <= e.a < self.vertex_count and 0 <= e.b < self.vertex_count):
                raise ValueError(f"edge {e} references a vertex outside 0..{self.vertex_count - 1}")
        for b in self.baths:
            if not (0 <= b < self.vertex_count):
                raise ValueError(f"bath vertex {b} outside 0..{self.vertex_count - 1}")

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    @property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in a canonical (sorted) order; the order used for all arrays."""
        return tuple(sorted(self.edges))

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}


@dataclass(frozen=True)
class ControlReport:
    """Outcome of iterating the growth step from the bath set.

    ``depth[v]`` is the iteration at which ``v`` was absorbed (baths are at
    depth 0); vertices never absorbed carry the sentinel ``None``.
    """

    controlled: bool
    connected: bool
    depth: Mapping[int, int | None]

    @property
    def max_depth(self) -> int | None:
        finite = [d for d in self.depth.values() if d is not None]
        return max(finite) if finite else None

    def as_dict(self) -> dict:
        return {
            "controlled": self.controlled,
            "connected": self.connected,
            "max_depth": self.max_depth,
            "depth": {str(v): self.depth[v] for v in sorted(self.depth)},
        }


def _check_vertex_set(topology: NetworkTopology, B: Iterable[int]) -> set[int]:
    Bs = set(B)
    for v in Bs:
        if not (0 <= v < topology.vertex_count):
            raise ValueError(f"vertex {v} outside 0..{topology.vertex_count - 1}")
    return Bs


def nicely_connected_step(topology: NetworkTopology, B: Iterable[int]) -> frozenset[int]:
    """One application of the growth step ``T`` to the vertex set ``B``.

    Returns ``B`` together with every outside vertex ``v`` reachable through
    some ``b`` in ``B`` whose single edge out of ``B`` is ``(b, v)``.
    """
    Bs = _check_vertex_set(topology, B)
    adj = topology.adjacency()
    grown = set(Bs)
    for b in sorted(Bs):
        outside = [w for w in adj[b] if w not in Bs]
        if len(outside) == 1:
            grown.add(outside[0])
    return frozenset(grown)


def controls(topology: NetworkTopology) -> ControlReport:
    """Iterate the growth step from the bath set to a fixpoint.

    The result does not depend on vertex or edge iteration order: each
    sweep applies the step to the whole current set at once.
    """
    depth: dict[int, int | None] = {v: None for v in topology.vertices}
    current = frozenset(topology.baths)
    for b in current:
        depth[b] = 0
    k = 0
    while True:
        grown = nicely_connected_step(topology, current)
        if grown == current:
            break
        k += 1
        for v in grown - current:
            depth[v] = k
        current = grown
    controlled = len(current) == topology.vertex_count
    return ControlReport(controlled=controlled, connected=is_connected(topology), depth=depth)


def is_connected(topology: NetworkTopology) -> bool:
    """Whether the graph is connected as an undirected graph."""
    adj = topology.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == topology.vertex_count


# ---------------------------------------------------------------------------
# Built-in fixtures
#
# Each entry: (vertex names, edge name pairs, bath names).  The tables are
# one-time transcriptions of the drawn reference networks; the control
# reports they produce are frozen in tests/test_topology.py.
# ---------------------------------------------------------------------------

def _grid_names(rows: int, cols: int) -> list[str]:
    return [f"r{r}c{c}" for r in range(rows) for c in range(cols)]


def _grid_edges(rows: int, cols: int) -> list[tuple[str, str]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                out.append((f"r{r}c{c}", f"r{r}c{c + 1}"))
            if r + 1 < rows:
                out.append((f"r{r}c{c}", f"r{r + 1}c{c}"))
    return out


def _chain_fixture(n: int) -> tuple[list[str], list[tuple[str, str]], list[str]]:
    names = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    return names, edges, [names[0], names[-1]]


def _hex_columns_fixture() -> tuple[list[str], list[tuple[str, str]], list[str]]:
    names = [f"{col}{i}" for col in "abcd" for i in range(1, 7)]
    edges = []
    for col, nxt in zip("abc", "bcd"):
        edges += [
            (f"{col}1", f"{col}2"), (f"{col}2", f"{col}3"), (f"{col}2", f"{nxt}1"),
            (f"{col}3", f"{nxt}4"), (f"{col}4", f"{col}3"), (f"{col}4", f"{col}5"),
            (f"{col}5", f"{col}6"), (f"{col}6", f"{nxt}5"),
        ]
    edges += [("d1", "d2"), ("d2", "d3"), ("d4", "d3"), ("d4", "d5"), ("d5", "d6")]
    return names, edges, ["a1", "a4", "a5"]


def _triangular_fixture() -> tuple[list[str], list[tuple[str, str]], list[str]]:
    names = [f"t{i}" for i in range(1, 16)]
    pairs = [
        (1, 2), (2, 3),
        (1, 4), (2, 4), (2, 5), (3, 5), (3, 6),
        (4, 5), (5, 6),
        (4, 7), (5, 8), (6, 9), (5, 9), (4, 8),
        (7, 8), (8, 9),
        (7, 10), (8, 10), (8, 11), (9, 11), (9, 12),
        (10, 11), (11, 12),
        (10, 13), (11, 14), (12, 15), (11, 15), (10, 14),
        (14, 13), (15, 14),
    ]
    edges = [(f"t{i}", f"t{j}") for i, j in pairs]
    return names, edges, ["t1", "t2", "t3"]


def _fixture_fig1() -> tuple[list[str], list[tuple[str, str]], list[str]]:
    names = list("abcdefghi")
    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "f"), ("b", "g"), ("b", "h"), ("g", "h"),
        ("c", "e"),
        ("d", "i"), ("e", "i"),
    ]
    return names, edges, ["a", "b", "c"]


def _fixture_ladder3x5():
    names = _grid_names(3, 5)
    edges = _grid_edges(3, 5)
    baths = [f"r{r}c{c}" for r in range(3) for c in (0, 4)]
    return names, edges, baths


def _fixture_braced3x5():
    names = _grid_names(3, 5)
    edges = _grid_edges(3, 5)
    edges += [("r2c0", "r1c1"), ("r2c1", "r1c2"), ("r0c0", "r1c1"), ("r0c1", "r1c2")]
    return names, edges, ["r0c0", "r1c0", "r2c0"]


def _fixture_square4():
    names = ["s0", "s1", "s2", "s3"]
    edges = [("s0", "s1"), ("s1", "s2"), ("s0", "s3"), ("s3", "s2")]
    return names, edges, ["s0", "s2"]


def _fixture_braced2x5():
    names = _grid_names(2, 5)
    edges = _grid_edges(2, 5)
    edges += [("r0c0", "r1c1"), ("r0c2", "r1c3"), ("r0c1", "r1c0"), ("r0c3", "r1c2")]
    baths = [f"r{r}c{c}" for r in range(2) for c in (0, 4)]
    return names, edges, baths


_FIXTURE_TABLE: dict[str, tuple[list[str], list[tuple[str, str]], list[str]]] = {
    "fig1": _fixture_fig1(),
    "fig2_chain11": _chain_fixture(11),
    "fig2_ladder3x5": _fixture_ladder3x5(),
    "fig2_braced3x5": _fixture_braced3x5(),
    "fig2_triangular": _triangular_fixture(),
    "fig2_hexcolumns": _hex_columns_fixture(),
    "fig2_square4": _fixture_square4(),
    "fig2_braced2x5": _fixture_braced2x5(),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(_FIXTURE_TABLE)


def fixture_table(name: str) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...], tuple[str, ...]]:
    """The (vertex names, edge name pairs, bath names) table behind a fixture."""
    try:
        names, edges, baths = _FIXTURE_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; valid names: {', '.join(fixture_names())}"
        ) from None
    return tuple(names), tuple(edges), tuple(baths)


def builtin_fixture(name: str) -> NetworkTopology:
    """Build one of the documented reference topologies by name."""
    names, edges, baths = fixture_table(name)
    index = {nm: i for i, nm in enumerate(names)}
    return NetworkTopology(
        vertex_count=len(names),
        edges=frozenset(Edge(index[u], index[v]) for u, v in edges),
        baths=frozenset(index[b] for b in baths),
    )


def random_topology(rng, max_vertices: int = 12, p: float | None = None) -> NetworkTopology:
    """Erdos-Renyi topology with a uniform non-empty bath subset.

    Used by property tests; small sizes keep exhaustive cross-checks cheap.
    """
    n = int(rng.integers(1, max_vertices + 1))
    if p is None:
        p = float(rng.choice([0.1, 0.3, 0.5]))
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.add(Edge(a, b))
    n_baths = int(rng.integers(1, n + 1))
    baths = rng.choice(n, size=n_baths, replace=False)
    return NetworkTopology(vertex_count=n, edges=frozenset(edges), baths=frozenset(int(b) for b in baths))
