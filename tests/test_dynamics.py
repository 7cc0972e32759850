"""Dynamics: Hamiltonian split, forces, integrators, energy accounting."""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnet import dynamics
from oscnet.config import parse_config
from oscnet.diagnostics import initial_state_at_energy
from oscnet.dynamics import (
    NOISE_CHUNK,
    BatchIntegrator,
    PrecomputedNoise,
    State,
    forces,
    hamiltonian,
    integrate,
    integrate_deterministic,
    scaled_step,
    tau,
    _BUDGET_BLOCK,
    _NOISE_TILE,
)
from oscnet.errors import BlowupError, ValidityRegionError
from oscnet.fixtures import (
    C4_VALIDITY_BOX,
    c4_counterexample_model,
    c4_guard,
    c4_initial_state,
)
from oscnet.model import BathSpec, Model, chain_model
from oscnet.potentials import EvenPower, LocalPiece, Quadratic, SoftPower
from oscnet.rng import seed_stream
from oscnet.runner import run
from oscnet.topology import Edge, NetworkTopology, random_topology


def two_mass_model():
    topo = NetworkTopology(2, frozenset({Edge(0, 1)}), frozenset())
    spec = Quadratic(((2.0,),), 1)
    return Model(topo, 1, {0: spec, 1: spec}, {Edge(0, 1): spec}, {})


def single_mass_model(k=1.0, bath=None):
    baths = frozenset() if bath is None else frozenset({0})
    topo = NetworkTopology(1, frozenset(), baths)
    bspec = {} if bath is None else {0: BathSpec(*bath)}
    return Model(topo, 1, {0: Quadratic(((k,),), 1)}, {}, bspec)


FAMILIES = {
    "quadratic": lambda dim: Quadratic.isotropic(1.5, dim),
    "softpower": lambda dim: SoftPower(degree=3.0, dim=dim),
    "evenpower": lambda dim: EvenPower(degree=4, dim=dim),
}


def full_matrix_family(name, rng, dim):
    """A potential of the named family; quadratics get a full stiffness,
    and "local" is a polynomial piece like the c4 model's: a quartic in
    each component and the mixed term x_0^2 x_last^2 / 2."""
    if name == "quadratic":
        A = rng.standard_normal((dim, dim))
        return Quadratic(tuple(map(tuple, A @ A.T + 0.5 * np.eye(dim))), dim)
    if name == "local":
        quartics = [(float(rng.uniform(0.1, 0.5)), tuple(4 * (i == j) for i in range(dim)))
                    for j in range(dim)]
        mixed = (0.5, tuple(2 * (i in (0, dim - 1)) for i in range(dim)))
        return LocalPiece(terms=(*quartics, mixed), dim=dim)
    return FAMILIES[name](dim)


# A random topology of up to 8 vertices in dim 1-3, with one pinning and
# one interaction spec drawn from the families and the polynomial piece.
random_kernel_case = given(
    seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 3),
    pinning=st.sampled_from(sorted(FAMILIES) + ["local"]),
    interaction=st.sampled_from(sorted(FAMILIES) + ["local"]),
)


def random_kernel_model(seed, dim, pinning, interaction):
    """The model of a ``random_kernel_case`` and a random state on it."""
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, max_vertices=8)
    pin, inter = full_matrix_family(pinning, rng, dim), full_matrix_family(interaction, rng, dim)
    model = Model(topo, dim, {v: pin for v in topo.vertices}, {e: inter for e in topo.edge_list},
                  {b: BathSpec(1.0, 1.0) for b in topo.baths})
    N = topo.vertex_count
    return model, State(rng.standard_normal((N, dim)), rng.standard_normal((N, dim)))


# --- Hamiltonian and the center-of-mass split ---------------------------------

def test_hamiltonian_split_kinetic_only():
    m = two_mass_model()
    H, Hc, Hi = hamiltonian(m, State([[1.0], [1.0]], [[0.0], [0.0]]))
    assert (H, Hc, Hi) == pytest.approx((1.0, 1.0, 0.0))
    H, Hc, Hi = hamiltonian(m, State([[1.0], [-1.0]], [[0.0], [0.0]]))
    assert (H, Hc, Hi) == pytest.approx((1.0, 0.0, 1.0))


@settings(max_examples=40)
@random_kernel_case
def test_split_identity_on_random_states(seed, dim, pinning, interaction):
    m, z = random_kernel_model(seed, dim, pinning, interaction)
    H, Hc, Hi = hamiltonian(m, z)
    assert Hc + Hi == H  # assembled exactly from the split
    # And the split agrees with the direct formula to rounding.
    direct = float(0.5 * np.sum(z.p ** 2)
                   + sum(m.pinning[v].value(z.q[v]) for v in m.topology.vertices)
                   + sum(m.interaction[e].value(z.q[e.b] - z.q[e.a])
                         for e in m.topology.edge_list))
    assert H == pytest.approx(direct, rel=1e-12)


def test_hamiltonian_dimension_mismatch():
    with pytest.raises(ValueError):
        hamiltonian(two_mass_model(), State([[1.0, 0.0]], [[0.0, 0.0]]))


# --- Forces --------------------------------------------------------------------

def test_force_single_mass_quadratic():
    m = single_mass_model()
    m2 = Model(m.topology, 2,
               {0: Quadratic.isotropic(1.0, 2)}, {}, {})
    F = forces(m2, State(np.zeros((1, 2)), np.array([[1.0, 0.0]])))
    assert F[0] == pytest.approx([-1.0, 0.0])


def test_counterexample_initial_forces():
    m = c4_counterexample_model()
    F = forces(m, c4_initial_state())
    assert F[0] == pytest.approx([0.0, 0.0, 0.0], abs=0.0)
    assert F[1] == pytest.approx([-4.0, 0.0, 0.0])


def test_chain_scatters_its_edge_forces_in_two_slices():
    # b ends first, then a ends: the middle vertices still take -g[j-1]
    # before +g[j], and no slab of a 3-chain is a single vertex.
    for n in (3, 5, 11):
        (_, _, plan, _), = dynamics._Kernel(chain_model(n, 1)).edge_groups
        assert plan == [(slice(1, n, 1), slice(0, n - 1, 1), False),
                        (slice(0, n - 1, 1), slice(0, n - 1, 1), True)]


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_scatter_plan_keeps_each_vertex_in_edge_list_order(seed):
    topo = random_topology(np.random.default_rng(seed), max_vertices=12)
    if not topo.edge_list:
        return
    plan = dynamics._scatter_plan(topo.edge_list)
    applied: dict[int, list] = {}
    for v, j, add in plan:
        vs, js = (np.arange(topo.vertex_count)[v], np.arange(len(topo.edge_list))[j])
        assert len(set(vs.tolist())) == len(vs)
        for vertex, edge in zip(vs.tolist(), js.tolist()):
            applied.setdefault(vertex, []).append((edge, add))
    for vertex in topo.vertices:
        want = [(j, e.a == vertex) for j, e in enumerate(topo.edge_list) if vertex in (e.a, e.b)]
        assert applied.get(vertex, []) == want
    degree = max(len(terms) for terms in applied.values())
    assert len(plan) <= 2 * degree


@settings(max_examples=40)
@random_kernel_case
def test_forces_match_energy_gradient(seed, dim, pinning, interaction):
    # The slab scatter plan of each random incidence pattern adds every
    # edge force to both ends.
    m, z = random_kernel_model(seed, dim, pinning, interaction)
    F = forces(m, z)
    eps = 1e-6
    for v in m.topology.vertices:
        for i in range(dim):
            qp = z.q.copy(); qp[v, i] += eps
            qm = z.q.copy(); qm[v, i] -= eps
            dH = (hamiltonian(m, State(z.p, qp))[0] - hamiltonian(m, State(z.p, qm))[0]) / (2 * eps)
            assert F[v, i] == pytest.approx(-dH, rel=1e-5, abs=1e-7)


# --- One step / deterministic limit ---------------------------------------------

def test_verlet_energy_error_single_mass():
    m = single_mass_model()
    tr = integrate_deterministic(m, State([[1.0]], [[0.0]]), 100.0, 1e-3, record_every=50)
    assert np.max(np.abs(tr.H - tr.H[0])) <= 1e-4


def one_step(model, state, h, draws):
    """One B-A-O-A-B step of ``integrate`` with the given (baths, dim) draws."""
    noise = PrecomputedNoise(np.asarray(draws, dtype=float)[None])
    return integrate(model, state, h, h, noise, record_states=True).states[-1]


def test_one_step_integrate_without_baths_equals_deterministic_bitwise():
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    nb_topo = NetworkTopology(3, m.topology.edges, frozenset())
    nogamma = Model(nb_topo, 1, dict(m.pinning), dict(m.interaction), {})
    rng = np.random.default_rng(1)
    st0 = State(rng.standard_normal((3, 1)), rng.standard_normal((3, 1)))
    h = 1e-2
    # 50 one-step integrate calls against one deterministic run
    st = st0
    for _ in range(50):
        st = one_step(nogamma, st, h, np.zeros((0, 1)))
    tr = integrate_deterministic(nogamma, st0, 50 * h, h, record_every=50, record_states=True)
    final = tr.states[-1]
    assert np.array_equal(st.p, final.p)
    assert np.array_equal(st.q, final.q)


def test_integrate_rejects_precomputed_draws_of_the_wrong_shape():
    m = chain_model(3, 1)  # two baths
    with pytest.raises(ValueError, match="stored draws"):
        one_step(m, State.zero(3, 1), 1e-2, np.zeros((1, 1)))


def test_ou_stationary_variance():
    # Pure bath, no forces: p equilibrates to variance T.
    m = single_mass_model(k=0.0, bath=(1.0, 2.0))
    streams = [seed_stream(100, i) for i in range(600)]
    bi = BatchIntegrator(m, np.zeros((600, 1, 1)), np.zeros((600, 1, 1)), 0.01, streams)
    bi.run(1500)
    var = float(np.mean(bi.p ** 2))
    assert var == pytest.approx(2.0, rel=0.1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30)
@given(
    topo_seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 3),
    pinning=st.sampled_from(sorted(FAMILIES)),
    interaction=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 2 ** 63 - 1),
)
def test_integrate_is_one_member_of_the_batch(topo_seed, dim, pinning, interaction, seed):
    rng = np.random.default_rng(topo_seed)
    topo = random_topology(rng, max_vertices=6)
    N = topo.vertex_count
    # Vertex 0 and the first edge get a spec of their own (a distinct one
    # for quadratics), so a potential sees one-row stacks for m = 1 and
    # many-row stacks in the batch, and must give each point the same bits.
    pin_specs = [full_matrix_family(pinning, rng, dim) for _ in range(2)]
    int_specs = [full_matrix_family(interaction, rng, dim) for _ in range(2)]
    model = Model(topo, dim,
                  {v: pin_specs[v == 0] for v in topo.vertices},
                  {e: int_specs[j == 0] for j, e in enumerate(topo.edge_list)},
                  {b: BathSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
                   for b in topo.baths})
    members, h, n_steps = 3, 0.01, 60
    p0 = rng.standard_normal((members, N, dim))
    q0 = 0.5 * rng.standard_normal((members, N, dim))

    bi = BatchIntegrator(model, p0, q0, h, [seed_stream(seed, i) for i in range(members)])
    bi.run(n_steps, record_stride=n_steps)
    H, _, _ = bi.energies
    for i in range(members):
        tr = integrate(model, State(p0[i], q0[i]), n_steps * h, h, seed_stream(seed, i),
                       record_every=n_steps, record_states=True)
        assert same_bits(tr.states[-1].p, bi.p[i]) and same_bits(tr.states[-1].q, bi.q[i])
        assert same_bits(tr.H[-1], H[i])
        assert same_bits(tr.Gamma[-1], bi.gamma_acc[i]) and same_bits(tr.M[-1], bi.m_acc[i])

    # Without baths the SDE is the Hamiltonian flow that
    # integrate_deterministic follows (it ignores the baths).
    bare = Model(NetworkTopology(N, topo.edges, frozenset()), dim,
                 dict(model.pinning), dict(model.interaction), {})
    z0 = State(p0[0], q0[0])
    a = integrate(bare, z0, n_steps * h, h, seed_stream(seed, 0),
                  record_every=7, record_states=True)
    b = integrate_deterministic(model, z0, n_steps * h, h, record_every=7, record_states=True)
    for field in ("times", "H", "Hc", "Hi", "Gamma", "M"):
        assert same_bits(getattr(a, field), getattr(b, field)), field
    assert all(same_bits(x.p, y.p) and same_bits(x.q, y.q) for x, y in zip(a.states, b.states))


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 3),
    pinning=st.sampled_from(sorted(FAMILIES) + ["local"]),
    interaction=st.sampled_from(sorted(FAMILIES) + ["local"]),
)
def test_baoab_without_baths_is_velocity_verlet(seed, dim, pinning, interaction):
    # Without baths the B-A-O-A-B step is velocity Verlet.  Compare
    # integrate_deterministic with a direct Verlet loop on the public
    # forces(); vertex 0 and the first edge get specs of their own, so the
    # force plans hold index-array groups and slabs.
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, max_vertices=8)
    N = topo.vertex_count
    pin_specs = [full_matrix_family(pinning, rng, dim) for _ in range(2)]
    int_specs = [full_matrix_family(interaction, rng, dim) for _ in range(2)]
    model = Model(topo, dim,
                  {v: pin_specs[v == 0] for v in topo.vertices},
                  {e: int_specs[j == 0] for j, e in enumerate(topo.edge_list)},
                  {b: BathSpec(1.0, 1.0) for b in topo.baths})
    # Near the origin, where a polynomial piece is meant to be used.
    z0 = State(0.5 * rng.standard_normal((N, dim)), 0.2 * rng.standard_normal((N, dim)))
    h, n_steps = 0.01, 50
    tr = integrate_deterministic(model, z0, n_steps * h, h, record_every=n_steps,
                                 record_states=True)

    p, q = z0.p.copy(), z0.q.copy()
    F = forces(model, State(p, q))
    for _ in range(n_steps):
        p = p + 0.5 * h * F
        q = q + h * p
        F = forces(model, State(p, q))
        p = p + 0.5 * h * F
    assert np.allclose(tr.states[-1].p, p, rtol=1e-12, atol=1e-12)
    assert np.allclose(tr.states[-1].q, q, rtol=1e-12, atol=1e-12)


def test_batch_energies_are_the_single_state_energies_bitwise():
    # 11 edges of one spec form one group selected by index arrays; numpy
    # sums 8 or more terms pairwise, so the group must be summed in the
    # same memory order for one state and for a batch.  In dim 2 and 3
    # the kinetic energy sums 8 or more vertex components as well, and a
    # full stiffness makes the quadratic values matrix products.  The
    # member-minor read must give the member-major formula's bits.
    for family, dim in [("evenpower", 1), ("quadratic", 2), ("quadratic", 3),
                        ("softpower", 1), ("softpower", 3)]:
        rng = np.random.default_rng(146)
        topo = random_topology(rng, max_vertices=6)
        spec = EvenPower(4, dim) if family == "evenpower" else full_matrix_family(family, rng, dim)
        model = Model(topo, dim, {v: spec for v in topo.vertices},
                      {e: spec for e in topo.edge_list},
                      {b: BathSpec(1.0, 1.0) for b in topo.baths})
        assert len(topo.edge_list) == 11
        members, N = 3, topo.vertex_count
        for _ in range(20):
            p = rng.standard_normal((members, N, dim))
            q = rng.standard_normal((members, N, dim))
            bi = BatchIntegrator(model, p, q, 0.01, [seed_stream(0, i) for i in range(members)])
            H, Hc, Hi = bi.energies
            assert same_bits(np.stack(reference_energies(model, p, q)), np.stack(bi.energies))
            for i in range(members):
                assert same_bits(hamiltonian(model, State(p[i], q[i])), (H[i], Hc[i], Hi[i]))


# --- The member-minor kernel against the member-major loop it replaced ----------

def reference_forces(model, q):
    """The per-edge force loop on member-major (members, vertices, dim)
    positions: each vertex adds its edge terms in edge-list order."""
    F = np.zeros_like(q)
    pins = {}
    for v in model.topology.vertices:
        pins.setdefault(model.pinning[v], []).append(v)
    for spec, idx in pins.items():
        F[..., idx, :] -= spec.gradient(q[..., idx, :])
    groups = {}
    for e in model.topology.edge_list:
        groups.setdefault(model.interaction[e], []).append(e)
    for spec, edges in groups.items():
        g = spec.gradient(q[..., [e.b for e in edges], :] - q[..., [e.a for e in edges], :])
        for j, e in enumerate(edges):
            F[..., e.a, :] += g[..., j, :]
            F[..., e.b, :] -= g[..., j, :]
    return F


def reference_energies(model, p, q):
    """(H, Hc, Hi) by the member-major formula on (..., vertices, dim)
    arrays, the read the member-minor one replaced: each potential group's
    values are summed over the group in member-major memory order, as numpy
    sums a (members, vertices, dim) batch (pairwise from 8 terms on)."""
    pins, edges = {}, {}
    for v in model.topology.vertices:
        pins.setdefault(model.pinning[v], []).append(v)
    for e in model.topology.edge_list:
        edges.setdefault(model.interaction[e], []).append(e)
    pin = np.zeros(q.shape[:-2])
    for spec, idx in pins.items():
        pin = pin + np.add.reduce(np.ascontiguousarray(spec.value(q[..., idx, :])), axis=-1)
    inter = np.zeros(q.shape[:-2])
    for spec, group in edges.items():
        x = q[..., [e.b for e in group], :] - q[..., [e.a for e in group], :]
        inter = inter + np.add.reduce(np.ascontiguousarray(spec.value(x)), axis=-1)
    kinetic = 0.5 * np.sum(p * p, axis=(-2, -1))
    P = np.sum(p, axis=-2)
    com = 0.5 * np.sum(P * P, axis=-1) / model.vertex_count
    hc = com + pin
    hi = (kinetic - com) + inter
    return hc + hi, hc, hi


def reference_run(model, p, q, h, streams, n_steps, record_stride):
    """The member-major B-A-O-A-B loop with its budget increments added
    every step: final (p, q, Gamma, M) and (H, Gamma, M) at every record."""
    p, q = p.copy(), q.copy()
    m, n = p.shape[0], model.dim
    baths = sorted(model.topology.baths)
    gam = np.array([model.gamma_of(b) for b in baths])
    temp = np.array([model.temperature_of(b) for b in baths])
    a = np.exp(-gam * h)
    b = np.sqrt(temp * (1.0 - a * a))
    a, b = a[:, None], b[:, None]
    amp, power = np.sqrt(2.0 * gam * temp), gam * temp
    xi_all = np.stack([s.standard_normal((n_steps, len(baths), n)) for s in streams], axis=1)
    gamma_acc, m_acc, records = np.zeros(m), np.zeros(m), []
    F = reference_forces(model, q)
    for step in range(1, n_steps + 1):
        xi = xi_all[step - 1]
        p += 0.5 * h * F
        q += 0.5 * h * p
        p_pre = p[:, baths].copy()
        p_post = a * p_pre + b * xi
        p[:, baths] = p_post
        q += 0.5 * h * p
        F = reference_forces(model, q)
        p += 0.5 * h * F
        p2 = 0.5 * (np.sum(p_pre * p_pre, axis=-1) + np.sum(p_post * p_post, axis=-1))
        gamma_acc += h * np.sum(gam * p2, axis=-1)
        dm = np.sqrt(h) * np.sum(amp * np.sum(p_pre * xi, axis=-1), axis=-1)
        m_acc += dm + h * np.sum(power * (np.sum(xi * xi, axis=-1) - n), axis=-1)
        if step % record_stride == 0 or step == n_steps:
            records.append((reference_energies(model, p, q)[0], gamma_acc.copy(), m_acc.copy()))
    return p, q, gamma_acc, m_acc, records


@settings(max_examples=30)
@given(
    topo_seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 3),
    pinning=st.sampled_from(sorted(FAMILIES) + ["local"]),
    interaction=st.sampled_from(sorted(FAMILIES) + ["local"]),
    seed=st.integers(0, 2 ** 63 - 1),
)
# random_topology(max_vertices=12) gives 10, 10 and 11 baths for these
# seeds: the bath sums are numpy's pairwise sums there.
@example(topo_seed=0, dim=3, pinning="quadratic", interaction="softpower", seed=5)
@example(topo_seed=26, dim=2, pinning="evenpower", interaction="quadratic", seed=6)
@example(topo_seed=32, dim=1, pinning="softpower", interaction="evenpower", seed=7)
# Polynomial pins and springs like the c4 model's.
@example(topo_seed=3, dim=3, pinning="local", interaction="local", seed=8)
# One bath vertex in dim 1: at one member the O map's slot is a
# one-element array, and without a budget it is the bath row itself.
@example(topo_seed=6, dim=1, pinning="quadratic", interaction="quadratic", seed=9)
def test_member_minor_kernel_matches_member_major_reference(topo_seed, dim, pinning,
                                                          interaction, seed):
    rng = np.random.default_rng(topo_seed)
    topo = random_topology(rng, max_vertices=12)
    N = topo.vertex_count
    # Vertices 1, 2, 5, 6, 9, 10 and edges 1, 2, 5, 6, ... get the second
    # spec: neither set is evenly spaced, so the groups, and in general
    # their slabs, are selected by index arrays rather than slices.
    pin_specs = [full_matrix_family(pinning, rng, dim), SoftPower(degree=2.5, dim=dim)]
    int_specs = [full_matrix_family(interaction, rng, dim), SoftPower(degree=2.5, dim=dim)]
    model = Model(topo, dim, {v: pin_specs[v % 4 in (1, 2)] for v in topo.vertices},
                  {e: int_specs[j % 4 in (1, 2)] for j, e in enumerate(topo.edge_list)},
                  {b: BathSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
                   for b in topo.baths})
    h, stride = 0.01, 50
    n_steps = NOISE_CHUNK + 4  # one noise buffer refill
    p0 = rng.standard_normal((3, N, dim))
    q0 = 0.5 * rng.standard_normal((3, N, dim))
    assert same_bits(forces(model, State(p0[0], q0[0])), reference_forces(model, q0[0]))

    for members in (1, 3):
        bi = BatchIntegrator(model, p0[:members], q0[:members], h,
                             [seed_stream(seed, i) for i in range(members)])
        records = []
        bi.run(n_steps, record_stride=stride, on_record=lambda *args: records.append(args))
        p, q, gamma_acc, m_acc, ref_records = reference_run(
            model, p0[:members], q0[:members], h,
            [seed_stream(seed, i) for i in range(members)], n_steps, stride)
        assert same_bits(bi.p, p) and same_bits(bi.q, q)
        assert same_bits(bi.energies[0], ref_records[-1][0])
        assert same_bits(bi.gamma_acc, gamma_acc) and same_bits(bi.m_acc, m_acc)
        assert len(records) == len(ref_records)
        for (_step, H, _Hc, _Hi, rec_p, rec_q), (ref_H, _, _) in zip(records, ref_records):
            assert same_bits(H, ref_H) and rec_p.shape == rec_q.shape == (members, N, dim)
        quiet = BatchIntegrator(model, p0[:members], q0[:members], h,
                                [seed_stream(seed, i) for i in range(members)], budget=False)
        quiet.run(n_steps, record_stride=stride)
        assert same_bits(quiet.p, p) and same_bits(quiet.q, q)


def test_one_step_integrate_with_baths_is_one_reference_step_bitwise():
    model = chain_model(4, 2, interaction=SoftPower(degree=3.0, dim=2), temperatures=(1.0, 2.0))
    rng = np.random.default_rng(12)
    p0 = rng.standard_normal((1, 4, 2))
    q0 = 0.5 * rng.standard_normal((1, 4, 2))
    draws = seed_stream(5, 0).standard_normal((2, 2))
    st = one_step(model, State(p0[0], q0[0]), 0.01, draws)
    p, q, _, _, _ = reference_run(model, p0, q0, 0.01, [seed_stream(5, 0)], 1, 1)
    assert same_bits(st.p, p[0]) and same_bits(st.q, q[0])


class ForwardingStream:
    """A noise source that only forwards ``standard_normal``, as the
    benchmark's counting proxy does, and keeps the step count of each
    request."""

    def __init__(self, gen):
        self._gen = gen
        self.requests = []

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self.requests.append(out.shape[0])
        return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("source", ["forwarding", "precomputed"])
def test_noise_tiles_and_refills_keep_the_bits(monkeypatch, source, dim):
    # Two full member tiles and a partial one, and a run of one full noise
    # chunk and a short one: the tile fill and the refill must give every
    # member the draws of its own stream, step by step.  Then a member-step
    # cap of 100 steps a member shortens the chunk to 100 steps, as a batch
    # wider than 4096 members has it, and the run refills three times.
    model = chain_model(5, dim, temperatures=(1.0, 2.0))
    members, h, stride = 2 * _NOISE_TILE + 3, 0.01, 100
    n_steps = NOISE_CHUNK + 37
    rng = np.random.default_rng(dim)
    p0 = rng.standard_normal((members, 5, dim))
    q0 = 0.5 * rng.standard_normal((members, 5, dim))
    p, q, gamma_acc, m_acc, ref_records = reference_run(
        model, p0, q0, h, [seed_stream(11, i) for i in range(members)], n_steps, stride)

    for cap, chunks in [(None, [NOISE_CHUNK, 37]), (100 * members, [100, 100, 93])]:
        if cap is not None:
            monkeypatch.setattr(dynamics, "_NOISE_MEMBER_STEPS", cap)
        if source == "forwarding":
            streams = [ForwardingStream(seed_stream(11, i)) for i in range(members)]
        else:
            streams = [PrecomputedNoise(seed_stream(11, i).standard_normal((n_steps, 2, dim)))
                       for i in range(members)]
        bi = BatchIntegrator(model, p0, q0, h, streams)
        records = []
        bi.run(n_steps, record_stride=stride, on_record=lambda step, H, *rest: records.append(H))
        if source == "forwarding":
            assert all(stream.requests == chunks for stream in streams), cap
        assert same_bits(bi.p, p) and same_bits(bi.q, q)
        assert same_bits(bi.gamma_acc, gamma_acc) and same_bits(bi.m_acc, m_acc)
        assert len(records) == len(ref_records) == 3
        assert all(same_bits(H, ref_H) for H, (ref_H, _, _) in zip(records, ref_records))


def nine_bath_chain():
    """A 10-chain with baths at every vertex but 4: each member's budget
    increments sum over the baths pairwise, as numpy does from 8 terms on."""
    chain10 = chain_model(10, 1)
    baths = {b: BathSpec(1.0, 1.0 + 0.2 * b) for b in range(10) if b != 4}
    return Model(NetworkTopology(10, chain10.topology.edges, frozenset(baths)), 1,
                 dict(chain10.pinning), dict(chain10.interaction), baths)


BUDGET_MODELS = {
    "dim1": lambda: chain_model(5, 1, temperatures=(1.0, 2.0)),
    "dim2": lambda: chain_model(5, 2, interaction=SoftPower(degree=3.0, dim=2),
                                temperatures=(1.0, 2.0)),
    # Eight components: the component sums are numpy's pairwise sums.
    "dim8": lambda: chain_model(3, 8, temperatures=(1.0, 2.0)),
    "nine_baths": nine_bath_chain,
}


@pytest.mark.parametrize("stride", [7, 100])
@pytest.mark.parametrize("case, members", [
    # One member takes the cumulative-sum branch of the block totals.
    ("dim1", 1), ("dim1", 3), ("dim2", 3), ("dim8", 3), ("nine_baths", 3),
    # Enough members that a budget block holds 4 steps, fewer than either
    # stride: blocks also end at the working-set cap between records.
    ("dim1", _BUDGET_BLOCK // 5 + 1),
])
def test_budget_is_the_step_by_step_sum_at_every_read(case, members, stride):
    # Gamma and M are added up once per block of steps; at every record,
    # and after the run, they must be the bits of adding each step's
    # increments in turn.
    model = BUDGET_MODELS[case]()
    N, dim = model.vertex_count, model.dim
    n_steps = NOISE_CHUNK + 37
    rng = np.random.default_rng(members + stride)
    p0 = rng.standard_normal((members, N, dim))
    q0 = 0.5 * rng.standard_normal((members, N, dim))
    bi = BatchIntegrator(model, p0, q0, 0.01, [seed_stream(12, i) for i in range(members)])
    reads = []
    bi.run(n_steps, record_stride=stride,
           on_record=lambda step, H, *rest: reads.append((H, bi.gamma_acc.copy(), bi.m_acc.copy())))
    _, _, gamma_acc, m_acc, ref_records = reference_run(
        model, p0, q0, 0.01, [seed_stream(12, i) for i in range(members)], n_steps, stride)
    assert len(reads) == len(ref_records) == n_steps // stride + (n_steps % stride > 0)
    for read, ref in zip(reads, ref_records):
        assert all(same_bits(a, b) for a, b in zip(read, ref))
    assert same_bits(bi.gamma_acc, gamma_acc) and same_bits(bi.m_acc, m_acc)


def test_budget_of_a_run_stopped_by_on_record_holds_the_steps_taken():
    model = chain_model(5, 2, temperatures=(1.0, 2.0))
    members, stride = 4, 30
    rng = np.random.default_rng(9)
    p0 = rng.standard_normal((members, 5, 2))
    q0 = 0.5 * rng.standard_normal((members, 5, 2))
    bi = BatchIntegrator(model, p0, q0, 0.01, [seed_stream(13, i) for i in range(members)])
    reads = []

    def stop_at_second_record(step, H, *rest):
        reads.append((step, bi.gamma_acc.copy(), bi.m_acc.copy()))
        return len(reads) == 2

    bi.run(NOISE_CHUNK + 37, record_stride=stride, on_record=stop_at_second_record)
    p, q, gamma_acc, m_acc, ref_records = reference_run(
        model, p0, q0, 0.01, [seed_stream(13, i) for i in range(members)], 2 * stride, stride)
    assert [step for step, _, _ in reads] == [stride, 2 * stride]
    for (_, g, m), (_, ref_g, ref_m) in zip(reads, ref_records):
        assert same_bits(g, ref_g) and same_bits(m, ref_m)
    assert same_bits(bi.p, p) and same_bits(bi.q, q)
    assert same_bits(bi.gamma_acc, gamma_acc) and same_bits(bi.m_acc, m_acc)


def test_per_member_thresholds_give_the_crossings_of_separate_runs():
    # Two levels of 20 members in one batch, each with its own band, give
    # each member the first crossings it has in a run of its level alone.
    model = chain_model(3, 1, temperatures=(1.0, 2.0))
    energies, size = (25.0, 50.0), 20
    starts = []
    for H0 in energies:
        z0 = initial_state_at_energy(model, H0, "interaction")
        starts.append((np.repeat(z0.p[None], size, axis=0), np.repeat(z0.q[None], size, axis=0)))
    bands = [(0.9 * H0, 1.02 * H0) for H0 in energies]

    def run(p0, q0, first, thresholds):
        bi = BatchIntegrator(model, p0, q0, 1e-3, [seed_stream(6, first + i) for i in range(len(p0))],
                             thresholds=thresholds)
        bi.run(500, record_stride=10)
        return bi.first_low, bi.first_high

    whole_low, whole_high = run(
        np.concatenate([p for p, _ in starts]), np.concatenate([q for _, q in starts]), 0,
        tuple(np.repeat([band[j] for band in bands], size) for j in (0, 1)))
    for k, ((p0, q0), band) in enumerate(zip(starts, bands)):
        low, high = run(p0, q0, k * size, band)
        assert np.any(low > 0) and np.any(high > 0)
        assert same_bits(whole_low[k * size:(k + 1) * size], low)
        assert same_bits(whole_high[k * size:(k + 1) * size], high)


@pytest.mark.parametrize("thresholds", [
    (np.zeros(2), 1.0), (0.0, np.ones(4)), (np.zeros((3, 1)), 1.0), (np.zeros((1, 3)), 1.0)])
def test_thresholds_of_another_shape_are_rejected(thresholds):
    model = chain_model(3, 1)
    with pytest.raises(ValueError, match="thresholds"):
        BatchIntegrator(model, np.zeros((3, 3, 1)), np.zeros((3, 3, 1)), 0.01,
                        [seed_stream(1, i) for i in range(3)], thresholds=thresholds)


def test_non_finite_start_is_blown_without_a_warning():
    # Step 0's forces, half-kick and read run under the stepping loop's
    # error state: a member started at p = inf is blown, and the finite
    # member beside it keeps the bits of a batch of its own.
    model = chain_model(3, 1, temperatures=(1.0, 2.0))
    rng = np.random.default_rng(4)
    p0, q0 = rng.standard_normal((2, 3, 1)), rng.standard_normal((2, 3, 1))
    p0[0, 1, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bi = BatchIntegrator(model, p0, q0, 0.01, [seed_stream(1, i) for i in range(2)])
    alone = BatchIntegrator(model, p0[1:], q0[1:], 0.01, [seed_stream(1, 1)])
    assert bi.blown.tolist() == [True, False]
    assert same_bits(bi.H0[1:], alone.H0)


def test_zero_members_are_rejected():
    with pytest.raises(ValueError, match="at least one ensemble member"):
        BatchIntegrator(chain_model(3, 1), np.zeros((0, 3, 1)), np.zeros((0, 3, 1)), 0.01, [])


@pytest.mark.parametrize("with_baths", [True, False])
def test_consecutive_runs_continue_one_path_bitwise(with_baths):
    # run(a) then run(b) equals run(a + b), with a + b crossing a noise
    # chunk refill: every run draws a new noise chunk, and its first step
    # opens with the half-kick of the force the previous run left behind.
    # Without baths the step is velocity Verlet.
    model = chain_model(4, 2, interaction=SoftPower(degree=3.0, dim=2), temperatures=(1.0, 2.0))
    if not with_baths:
        model = Model(NetworkTopology(4, model.topology.edges, frozenset()), 2,
                      dict(model.pinning), dict(model.interaction), {})
    members = 5
    rng = np.random.default_rng(8)
    p0 = rng.standard_normal((members, 4, 2))
    q0 = 0.5 * rng.standard_normal((members, 4, 2))

    def batch():
        return BatchIntegrator(model, p0, q0, 0.01, [seed_stream(3, i) for i in range(members)])

    a, b = NOISE_CHUNK - 10, 30
    split, whole = batch(), batch()
    split.run(a)
    split.run(b)
    whole.run(a + b)
    assert same_bits(split.p, whole.p) and same_bits(split.q, whole.q)
    assert same_bits(split.gamma_acc, whole.gamma_acc) and same_bits(split.m_acc, whole.m_acc)
    assert np.all(whole.gamma_acc > 0) == with_baths


def test_batch_integrator_keeps_what_the_benchmark_instrument_uses(monkeypatch):
    # perfbench/instrument.py patches these in the class bodies, reads
    # m, blown, H0 and the member-major state, and counts member-steps in
    # run() and in integrate/integrate_deterministic separately.
    import inspect

    assert {"__init__", "run"} <= set(vars(BatchIntegrator))
    assert "standard_normal" in vars(PrecomputedNoise)
    params = inspect.signature(BatchIntegrator.run).parameters
    assert [(k, v.default) for k, v in params.items()] == [
        ("self", inspect.Parameter.empty), ("n_steps", inspect.Parameter.empty),
        ("record_stride", 1), ("on_record", None)]

    model = chain_model(4, 2, temperatures=(1.0, 2.0))
    bi = BatchIntegrator(model, np.zeros((5, 4, 2)), np.ones((5, 4, 2)), 0.01,
                         [seed_stream(1, i) for i in range(5)])
    shapes = []
    bi.run(6, record_stride=3, on_record=lambda step, H, Hc, Hi, p, q: shapes.append((p.shape, q.shape)))
    assert bi.m == 5 and bi.blown.shape == bi.H0.shape == (5,)
    assert bi.p.shape == bi.q.shape == (5, 4, 2)
    assert shapes == [((5, 4, 2), (5, 4, 2))] * 2

    def refuse(*args, **kwargs):
        raise AssertionError("the path integrators must not call the public run")

    monkeypatch.setattr(BatchIntegrator, "run", refuse)
    z0 = State(np.ones((4, 2)), np.zeros((4, 2)))
    assert len(integrate(model, z0, 0.05, 0.01, seed_stream(2)).times) == 6
    assert len(integrate_deterministic(model, z0, 0.05, 0.01).times) == 6


def test_self_consistency_deterministic_is_second_order():
    # Against a 10x finer reference, halving h shrinks the error >= 3x on
    # the noise-free 3-mass chain (the scheme is then plain Verlet).
    m = chain_model(3, 1)
    no_bath = Model(NetworkTopology(3, m.topology.edges, frozenset()),
                    1, dict(m.pinning), dict(m.interaction), {})
    z0 = State(np.array([[1.0], [0.3], [-1.0]]), np.array([[0.2], [0.0], [-0.4]]))
    t_end = 1.0

    def final_state(h):
        tr = integrate_deterministic(no_bath, z0, t_end, h,
                                     record_every=10 ** 9, record_states=True)
        return tr.states[-1]

    ref = final_state(1e-4)
    errs = {}
    for h in (2e-3, 1e-3):
        z = final_state(h)
        errs[h] = np.linalg.norm(z.p - ref.p) + np.linalg.norm(z.q - ref.q)
    assert errs[2e-3] / errs[1e-3] >= 3.0


def run_paths(model, z0, t_end, h, xis, h_fine):
    """Run one member per fine Brownian path in ``xis``, aggregated to step
    h, as one batch from z0 to t_end.  Each member is bit for bit the path
    ``integrate`` gives (test_integrate_is_one_member_of_the_batch)."""
    n_steps = int(round(t_end / h))
    m = len(xis)
    bi = BatchIntegrator(model, np.broadcast_to(z0.p, (m,) + z0.p.shape),
                         np.broadcast_to(z0.q, (m,) + z0.q.shape), h,
                         [PrecomputedNoise.from_brownian(xi, h_fine, h) for xi in xis])
    bi.run(n_steps, record_stride=n_steps)
    return bi


def test_self_consistency_with_noise_is_first_order():
    # With a common driving path, the pathwise error of the splitting is
    # first order in h for additive noise: halving h halves the error.
    # (The per-step O(h^{3/2}) noise-placement mismatches have zero mean and
    # accumulate diffusively, which caps the strong order at one.)
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = State(np.array([[1.0], [0.0], [-1.0]]), np.zeros((3, 1)))
    t_end = 1.0
    h_coarse = 2e-3
    h_fine = h_coarse / 20
    n_fine = int(round(t_end / h_fine))
    xis = [seed_stream(7, path).standard_normal((n_fine, 2, 1)) for path in range(16)]
    ref = run_paths(m, z0, t_end, h_fine, xis, h_fine)
    rms = {}
    for h in (h_coarse, h_coarse / 2):
        bi = run_paths(m, z0, t_end, h, xis, h_fine)
        errs = [np.linalg.norm(bi.p[i] - ref.p[i]) + np.linalg.norm(bi.q[i] - ref.q[i])
                for i in range(len(xis))]
        rms[h] = np.sqrt(np.mean(np.square(errs)))
    assert 1.7 <= rms[h_coarse] / rms[h_coarse / 2] <= 2.7


# --- integrate(): budget accounting -----------------------------------------------

def test_deterministic_trace_has_zero_budget_terms():
    m = chain_model(3, 1)
    no_bath = Model(NetworkTopology(3, m.topology.edges, frozenset()),
                    1, dict(m.pinning), dict(m.interaction), {})
    z0 = State(np.array([[1.0], [0.0], [-1.0]]), np.zeros((3, 1)))
    tr = integrate(no_bath, z0, 5.0, 1e-3, seed_stream(0, 0), record_every=100)
    assert np.all(tr.Gamma == 0.0)
    assert np.all(tr.M == 0.0)
    assert np.max(np.abs(tr.H - tr.H[0])) <= 1e-6 * tr.H[0]


def test_gamma_is_nondecreasing():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = State(np.array([[1.0], [0.0], [-1.0]]), np.zeros((3, 1)))
    tr = integrate(m, z0, 5.0, 1e-3, seed_stream(3, 0), record_every=7)
    assert np.all(np.diff(tr.Gamma) >= 0)
    assert tr.Gamma[0] == 0.0 and tr.M[0] == 0.0


def test_budget_residual_is_small_and_refines():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=SoftPower(degree=4, dim=1), temperatures=(1.0, 2.0))
    z0 = State(np.array([[1.0], [0.0], [-1.0]]), np.zeros((3, 1)))
    t_end = 1.0
    hs = (1e-3, 5e-4)
    h_fine = hs[-1]
    n_fine = int(round(t_end / h_fine))
    xis = [seed_stream(2024, path).standard_normal((n_fine, 2, 1)) for path in range(24)]
    rms = {}
    for h in hs:
        bi = run_paths(m, z0, t_end, h, xis, h_fine)
        H, _, _ = bi.energies
        # Trace.residual's arithmetic on each member's final values.
        acc = H - bi.H0 + bi.gamma_acc - m.noise_work_rate * (int(round(t_end / h)) * h) - bi.m_acc
        rms[h] = float(np.sqrt(np.mean(np.square(acc))))
    assert rms[1e-3] < 5e-3
    assert 1.4 <= rms[1e-3] / rms[5e-4] <= 2.6


def test_trace_csv_round_trips(tmp_path):
    # The runner's trace_main.csv gives back every recorded value exactly.
    doc = {
        "seed": 9,
        "model": {"topology": {"vertices": ["a", "b"], "edges": [["a", "b"]], "baths": ["a", "b"]},
                  "bath_overrides": {"b": {"temperature": 2.0}}},
        "experiment": {"kind": "simulate", "t_end": 0.5, "h": 1e-3, "record_every": 50,
                       "initial": {"kind": "explicit", "p": [[1.0], [-1.0]], "q": [[0.0], [0.0]]}},
    }
    cfg = parse_config(json.dumps(doc))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rows = (tmp_path / "trace_main.csv").read_text().strip().split("\n")
    assert rows[0] == "t,H,Hc,Hi,Gamma,M,residual"
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    z0 = State(np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
    tr = integrate(cfg.model, z0, 0.5, 1e-3, seed_stream(9, 0), record_every=50)
    for column, values in enumerate((tr.times, tr.H, tr.Hc, tr.Hi, tr.Gamma, tr.M, tr.residual())):
        assert np.array_equal(parsed[:, column], values)


def test_blowup_raises_with_partial_trace():
    # A huge step on a quartic pinning makes the kick explode immediately.
    m = chain_model(2, 1, pinning=EvenPower(degree=4, dim=1),
                    interaction=EvenPower(degree=4, dim=1), temperatures=(1.0, 1.0))
    z0 = State(np.array([[50.0], [-50.0]]), np.array([[30.0], [-30.0]]))
    with pytest.raises(BlowupError) as err:
        integrate(m, z0, 10.0, 0.5, seed_stream(1, 0), record_every=1)
    assert err.value.step >= 1
    assert err.value.partial_trace is not None
    assert len(err.value.partial_trace.H) >= 1


# --- Time scales -----------------------------------------------------------------

def mixed_degree_chain():
    """A SoftPower(4) 3-chain with one quadratic spring: no common
    interaction degree."""
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=SoftPower(degree=4, dim=1))
    return Model(m.topology, 1, dict(m.pinning),
                 {**m.interaction, Edge(0, 1): Quadratic.isotropic(1.0, 1)}, dict(m.baths))


def test_tau_examples():
    # The exponents are the model's degrees.
    harmonic = chain_model(3, 1)
    quartic = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                          interaction=SoftPower(degree=4, dim=1))
    assert tau(harmonic, 0.4, 123.0, 61.5, 61.5) == pytest.approx(0.4)
    assert tau(quartic, 1.0, 16.0, 0.0, 16.0) == pytest.approx(0.5)
    # Pinning-dominated branch with degree 2: exponent vanishes.
    soft_springs = chain_model(3, 1, interaction=SoftPower(degree=4, dim=1))
    assert tau(soft_springs, 1.0, 16.0, 16.0, 0.0) == pytest.approx(1.0)
    assert tau(soft_springs, 1.0, 16.0, 0.0, 16.0) == pytest.approx(0.5)


def test_tau_requires_positive_energy():
    with pytest.raises(ValueError):
        tau(chain_model(3, 1), 1.0, 0.0, 0.0, 0.0)


def test_timescale_rule_validation():
    with pytest.raises(ValueError, match="lam must be > 0"):
        tau(chain_model(3, 1), 0.0, 16.0, 8.0, 8.0)
    with pytest.raises(ValueError, match="common interaction and pinning degrees"):
        tau(mixed_degree_chain(), 0.5, 16.0, 8.0, 8.0)


def test_scaled_step_policy():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=SoftPower(degree=4, dim=1))
    assert scaled_step(m, 1e-3, 16.0) == pytest.approx(1e-3 * 16 ** -0.25)
    mh = chain_model(3, 1)
    assert scaled_step(mh, 1e-3, 1e6) == pytest.approx(1e-3)
    # Mixed interaction degrees have no common time scale, so no energy
    # scan accepts the model and it has no scaled step.
    with pytest.raises(ValueError, match="common interaction and pinning degrees >= 2"):
        scaled_step(mixed_degree_chain(), 1e-3, 16.0)


# --- Translation equivariance without pinning ----------------------------------------

def test_translation_equivariance_without_pinning():
    zerok = Quadratic.isotropic(0.0, 1)
    m = chain_model(3, 1, pinning=zerok, interaction=SoftPower(degree=4, dim=1),
                    temperatures=(1.0, 2.0))
    rng = np.random.default_rng(4)
    p0 = rng.standard_normal((3, 1))
    q0 = rng.standard_normal((3, 1))
    rho = 2.5
    h = 1e-3
    tr1 = integrate(m, State(p0, q0), 1.0, h, seed_stream(8, 0),
                    record_every=1000, record_states=True)
    tr2 = integrate(m, State(p0, q0 + rho), 1.0, h, seed_stream(8, 0),
                    record_every=1000, record_states=True)
    assert np.allclose(tr2.states[-1].q, tr1.states[-1].q + rho, atol=1e-10)
    assert np.allclose(tr2.states[-1].p, tr1.states[-1].p, atol=1e-10)


# --- The locally-constant-force counterexample ----------------------------------------

def test_counterexample_dynamics():
    m = c4_counterexample_model()
    z0 = c4_initial_state()
    tr = integrate_deterministic(
        m, z0, t_end=5.0, h=1e-4, record_every=10, record_states=True,
        guard=c4_guard, stop_when=lambda s: s.q[1, 0] <= 3.5,
    )
    p1 = np.array([s.p[0] for s in tr.states])
    q1 = np.array([s.q[0] for s in tr.states])
    x2 = np.array([s.q[1, 0] for s in tr.states])
    assert np.max(np.abs(p1)) <= 1e-6
    assert np.max(np.abs(q1 - q1[0])) <= 1e-6
    assert x2[0] == pytest.approx(4.0)
    assert x2[-1] <= 3.5
    assert np.all(np.diff(x2) < 0)
    # Spring force on the still mass stays pinned at (0, 1, 0).
    edge = next(iter(m.topology.edges))
    for s in tr.states[:: max(1, len(tr.states) // 50)]:
        f1 = m.interaction[edge].gradient(s.q[1] - s.q[0])
        assert np.max(np.abs(f1 - np.array([0.0, 1.0, 0.0]))) <= 1e-8
    # Hamiltonian flow: energy conserved.
    assert np.max(np.abs(tr.H - tr.H[0])) <= 1e-6 * tr.H[0]


def test_counterexample_guard_trips_outside_region():
    m = c4_counterexample_model()
    bad = State(np.zeros((2, 3)), np.array([[0.0, 1.0, 0.0], [6.5, 2.0, 0.0]]))
    assert not c4_guard(bad.q)
    with pytest.raises(ValidityRegionError):
        integrate_deterministic(m, bad, 1.0, 1e-3, guard=c4_guard)


def box_test(q):
    """The validity box as the numpy expression ``c4_guard`` replaced."""
    center = np.array([C4_VALIDITY_BOX["q1_center"], C4_VALIDITY_BOX["q2_center"]])
    halfwidth = np.array([C4_VALIDITY_BOX["q1_halfwidth"], C4_VALIDITY_BOX["q2_halfwidth"]])
    with np.errstate(invalid="ignore"):
        return bool((np.abs(q - center) <= halfwidth).all())


def test_c4_guard_agrees_with_the_box_expression():
    center = np.array([C4_VALIDITY_BOX["q1_center"], C4_VALIDITY_BOX["q2_center"]])
    halfwidth = np.array([C4_VALIDITY_BOX["q1_halfwidth"], C4_VALIDITY_BOX["q2_halfwidth"]])
    cases = [center + halfwidth * np.array(signs).reshape(2, 3)
             for signs in itertools.product((-1.0, 1.0), repeat=6)]  # every corner
    for i in range(6):
        for side in (-1.0, 1.0):
            face = (center + side * halfwidth).ravel()[i]
            for x in (face, np.nextafter(face, side * np.inf), np.nextafter(face, -side * np.inf),
                      np.nan, np.inf, -np.inf):
                q = center.copy().ravel()
                q[i] = x
                cases.append(q.reshape(2, 3))
    answers = [box_test(q) for q in cases]
    assert True in answers and False in answers
    for q, want in zip(cases, answers):
        assert c4_guard(q) is want
        assert c4_guard(q[..., None][..., 0]) is want  # a view, as the integrator passes


def test_counterexample_pieces_nonnegative_in_region():
    m = c4_counterexample_model()
    rng = np.random.default_rng(12)
    c1 = np.array(C4_VALIDITY_BOX["q1_center"]); w1 = np.array(C4_VALIDITY_BOX["q1_halfwidth"])
    c2 = np.array(C4_VALIDITY_BOX["q2_center"]); w2 = np.array(C4_VALIDITY_BOX["q2_halfwidth"])
    q1 = c1 + w1 * (2 * rng.random((200, 3)) - 1)
    q2 = c2 + w2 * (2 * rng.random((200, 3)) - 1)
    assert np.all(m.pinning[0].value(q1) >= 0)
    assert np.all(m.pinning[1].value(q2) >= 0)
    edge = next(iter(m.topology.edges))
    assert np.all(m.interaction[edge].value(q2 - q1) >= 0)
