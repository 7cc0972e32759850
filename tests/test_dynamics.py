"""Dynamics: Hamiltonian split, forces, integrators, energy accounting."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnet.dynamics import (
    NOISE_CHUNK,
    BatchIntegrator,
    PrecomputedNoise,
    State,
    TimescaleRule,
    com_coords,
    forces,
    hamiltonian,
    integrate,
    integrate_deterministic,
    rescale_state,
    scaled_step,
    step_sde,
    tau,
    u_infinity,
    _Kernel,
)
from oscnet.errors import BlowupError, ValidityRegionError
from oscnet.fixtures import (
    C4_VALIDITY_BOX,
    c4_counterexample_model,
    c4_guard,
    c4_initial_state,
)
from oscnet.model import BathSpec, Model, chain_model
from oscnet.potentials import EvenPower, Quadratic, SoftPower
from oscnet.rng import seed_stream
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


# --- Hamiltonian and the center-of-mass split ---------------------------------

def test_hamiltonian_split_kinetic_only():
    m = two_mass_model()
    H, Hc, Hi = hamiltonian(m, State([[1.0], [1.0]], [[0.0], [0.0]]))
    assert (H, Hc, Hi) == pytest.approx((1.0, 1.0, 0.0))
    H, Hc, Hi = hamiltonian(m, State([[1.0], [-1.0]], [[0.0], [0.0]]))
    assert (H, Hc, Hi) == pytest.approx((1.0, 0.0, 1.0))


def test_split_identity_on_random_states():
    m = chain_model(4, 2, pinning=SoftPower(degree=4, dim=2),
                    interaction=SoftPower(degree=4, dim=2))
    rng = np.random.default_rng(5)
    for _ in range(25):
        st = State(3 * rng.standard_normal((4, 2)), 2 * rng.standard_normal((4, 2)))
        H, Hc, Hi = hamiltonian(m, st)
        assert Hc + Hi == H  # assembled exactly from the split
        # And the split agrees with the direct formula to rounding.
        direct = float(0.5 * np.sum(st.p ** 2)
                       + sum(m.pinning[v].value(st.q[v]) for v in range(4))
                       + sum(m.interaction[e].value(st.q[e.b] - st.q[e.a])
                             for e in m.topology.edge_list))
        assert H == pytest.approx(direct, rel=1e-12)


def test_hamiltonian_dimension_mismatch():
    with pytest.raises(ValueError):
        hamiltonian(two_mass_model(), State([[1.0, 0.0]], [[0.0, 0.0]]))


def test_com_coords_examples():
    P, Q = com_coords(State([[1.0], [1.0]], [[0.0], [2.0]]))
    assert P == pytest.approx([2.0]) and Q == pytest.approx([1.0])
    p = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    P, _ = com_coords(State(p, np.zeros((3, 2))))
    assert P == pytest.approx([0.0, 0.0])


def test_com_translation_covariance():
    rng = np.random.default_rng(0)
    st = State(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    rho = np.array([0.7, -1.3])
    P0, Q0 = com_coords(st)
    P1, Q1 = com_coords(State(st.p, st.q + rho))
    assert P1 == pytest.approx(P0)
    assert Q1 == pytest.approx(Q0 + rho)


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


def test_forces_match_energy_gradient():
    m = chain_model(3, 2, pinning=SoftPower(degree=4, dim=2),
                    interaction=EvenPower(degree=4, dim=2))
    rng = np.random.default_rng(9)
    st = State(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    F = forces(m, st)
    eps = 1e-6
    for v in range(3):
        for i in range(2):
            qp = st.q.copy(); qp[v, i] += eps
            qm = st.q.copy(); qm[v, i] -= eps
            dH = (hamiltonian(m, State(st.p, qp))[0] - hamiltonian(m, State(st.p, qm))[0]) / (2 * eps)
            assert F[v, i] == pytest.approx(-dH, rel=1e-5, abs=1e-7)


# --- One step / deterministic limit ---------------------------------------------

def test_verlet_energy_error_single_mass():
    m = single_mass_model()
    tr = integrate_deterministic(m, State([[1.0]], [[0.0]]), 100.0, 1e-3, record_every=50)
    assert np.max(np.abs(tr.H - tr.H[0])) <= 1e-4


def test_step_sde_without_baths_equals_deterministic_bitwise():
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    nb_topo = NetworkTopology(3, m.topology.edges, frozenset())
    nogamma = Model(nb_topo, 1, dict(m.pinning), dict(m.interaction), {})
    rng = np.random.default_rng(1)
    st0 = State(rng.standard_normal((3, 1)), rng.standard_normal((3, 1)))
    h = 1e-2
    # step_sde repeatedly
    st = st0
    for _ in range(50):
        st = step_sde(nogamma, st, h, np.zeros((0, 1)))
    tr = integrate_deterministic(nogamma, st0, 50 * h, h, record_every=50, record_states=True)
    final = tr.states[-1]
    assert np.array_equal(st.p, final.p)
    assert np.array_equal(st.q, final.q)


def test_step_sde_validates_draw_shape():
    m = chain_model(3, 1)
    with pytest.raises(ValueError):
        step_sde(m, State.zero(3, 1), 1e-2, np.zeros((1, 1)))


def test_ou_stationary_variance():
    # Pure bath, no forces: p equilibrates to variance T.
    m = single_mass_model(k=0.0, bath=(1.0, 2.0))
    streams = [seed_stream(100, i) for i in range(600)]
    bi = BatchIntegrator(m, np.zeros((600, 1, 1)), np.zeros((600, 1, 1)), 0.01, streams)
    bi.run(1500)
    var = float(np.mean(bi.p ** 2))
    assert var == pytest.approx(2.0, rel=0.1)


FAMILIES = {
    "quadratic": lambda dim: Quadratic.isotropic(1.5, dim),
    "softpower": lambda dim: SoftPower(degree=3.0, dim=dim),
    "evenpower": lambda dim: EvenPower(degree=4, dim=dim),
}


def full_matrix_family(name, rng, dim):
    """A potential of the named family; quadratics get a full stiffness."""
    if name == "quadratic":
        A = rng.standard_normal((dim, dim))
        return Quadratic(tuple(map(tuple, A @ A.T + 0.5 * np.eye(dim))), dim)
    return FAMILIES[name](dim)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=30, deadline=None)
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
    H, _, _ = bi.energies()
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


def reference_run(model, p, q, h, streams, n_steps, record_stride):
    """The member-major B-A-O-A-B loop with its budget increments: final
    (p, q, Gamma, M) and the total energy at every record."""
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
    split = _Kernel(model).split_energies
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
            records.append(split(p, q)[0])
    return p, q, gamma_acc, m_acc, records


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    topo_seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 3),
    pinning=st.sampled_from(sorted(FAMILIES)),
    interaction=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 2 ** 63 - 1),
)
# random_topology(max_vertices=12) gives 10, 10 and 11 baths for these
# seeds: the bath sums are numpy's pairwise sums there.
@example(topo_seed=0, dim=3, pinning="quadratic", interaction="softpower", seed=5)
@example(topo_seed=26, dim=2, pinning="evenpower", interaction="quadratic", seed=6)
@example(topo_seed=32, dim=1, pinning="softpower", interaction="evenpower", seed=7)
def test_member_minor_kernel_matches_member_major_reference(topo_seed, dim, pinning,
                                                          interaction, seed):
    rng = np.random.default_rng(topo_seed)
    topo = random_topology(rng, max_vertices=12)
    N = topo.vertex_count
    pin_spec = full_matrix_family(pinning, rng, dim)
    int_specs = [full_matrix_family(interaction, rng, dim), SoftPower(degree=2.5, dim=dim)]
    model = Model(topo, dim, {v: pin_spec for v in topo.vertices},
                  {e: int_specs[j % 3 == 2] for j, e in enumerate(topo.edge_list)},
                  {b: BathSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
                   for b in topo.baths})
    members, h, stride = 3, 0.01, 50
    n_steps = NOISE_CHUNK + 4  # one noise buffer refill
    p0 = rng.standard_normal((members, N, dim))
    q0 = 0.5 * rng.standard_normal((members, N, dim))
    assert same_bits(forces(model, State(p0[0], q0[0])), reference_forces(model, q0[0]))

    bi = BatchIntegrator(model, p0, q0, h, [seed_stream(seed, i) for i in range(members)])
    records = []
    bi.run(n_steps, record_stride=stride, on_record=lambda *args: records.append(args))
    p, q, gamma_acc, m_acc, ref_records = reference_run(
        model, p0, q0, h, [seed_stream(seed, i) for i in range(members)], n_steps, stride)
    assert same_bits(bi.p, p) and same_bits(bi.q, q)
    assert same_bits(bi.energies()[0], ref_records[-1])
    assert same_bits(bi.gamma_acc, gamma_acc) and same_bits(bi.m_acc, m_acc)
    assert len(records) == len(ref_records)
    for (_step, _t, H, _Hc, _Hi, rec_p, rec_q), ref_H in zip(records, ref_records):
        assert same_bits(H, ref_H) and rec_p.shape == rec_q.shape == (members, N, dim)


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
    bi.run(6, record_stride=3, on_record=lambda step, t, H, Hc, Hi, p, q: shapes.append((p.shape, q.shape)))
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
    errs = {h: [] for h in (h_coarse, h_coarse / 2)}
    for path in range(16):
        xi = seed_stream(7, path).standard_normal((n_fine, 2, 1))
        ref = integrate(m, z0, t_end, h_fine,
                        PrecomputedNoise.from_brownian(xi, h_fine, h_fine),
                        record_every=10 ** 9, record_states=True)
        zf = ref.states[-1]
        for h in errs:
            tr = integrate(m, z0, t_end, h,
                           PrecomputedNoise.from_brownian(xi, h_fine, h),
                           record_every=10 ** 9, record_states=True)
            z = tr.states[-1]
            errs[h].append(np.linalg.norm(z.p - zf.p) + np.linalg.norm(z.q - zf.q))
    rms = {h: np.sqrt(np.mean(np.square(v))) for h, v in errs.items()}
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
    rms = {}
    for h in hs:
        acc = []
        for path in range(24):
            xi = seed_stream(2024, path).standard_normal((n_fine, 2, 1))
            tr = integrate(m, z0, t_end, h,
                           PrecomputedNoise.from_brownian(xi, h_fine, h),
                           record_every=10 ** 9)
            acc.append(tr.residual()[-1])
        rms[h] = float(np.sqrt(np.mean(np.square(acc))))
    assert rms[1e-3] < 5e-3
    assert 1.4 <= rms[1e-3] / rms[5e-4] <= 2.6


def test_trace_csv_round_trips(tmp_path):
    m = chain_model(2, 1, temperatures=(1.0, 2.0))
    z0 = State(np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
    tr = integrate(m, z0, 0.5, 1e-3, seed_stream(9, 0), record_every=50)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,H,Hc,Hi,Gamma,M,residual"
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.array_equal(parsed[:, 1], tr.H)
    assert np.array_equal(parsed[:, 5], tr.M)


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


# --- Time scales and rescalings -----------------------------------------------------

def test_tau_examples():
    assert tau(TimescaleRule(lam=0.4, li=2, lp=2), 123.0, 61.5, 61.5) == pytest.approx(0.4)
    assert tau(TimescaleRule(lam=1.0, li=4, lp=4), 16.0, 0.0, 16.0) == pytest.approx(0.5)
    # Pinning-dominated branch with degree 2: exponent vanishes.
    assert tau(TimescaleRule(lam=1.0, li=4, lp=2), 16.0, 16.0, 0.0) == pytest.approx(1.0)


def test_tau_requires_positive_energy():
    with pytest.raises(ValueError):
        tau(TimescaleRule(lam=1.0, li=2, lp=2), 0.0, 0.0, 0.0)


def test_timescale_rule_validation():
    with pytest.raises(ValueError):
        TimescaleRule(lam=0.0, li=2, lp=2)
    rule = TimescaleRule(lam=0.6, li=2, lp=2)
    with pytest.raises(ValueError):
        rule.validate_against_t_star(1.0)  # lam > t*/2 with lp = 2
    TimescaleRule(lam=0.5, li=2, lp=2).validate_against_t_star(1.0)
    TimescaleRule(lam=3.0, li=4, lp=4).validate_against_t_star(1.0)  # lp > 2: free


def test_rescale_state_examples():
    rng = np.random.default_rng(2)
    st = State(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    rule = TimescaleRule(lam=1.0, li=2, lp=4)
    same = rescale_state(st, 1.0, "interaction", rule)
    assert np.array_equal(same.p, st.p) and np.array_equal(same.q, st.q)
    half = rescale_state(st, 4.0, "interaction", rule)
    assert np.allclose(half.p, st.p / 2) and np.allclose(half.q, st.q / 2)
    # Round trip through the inverse energy.
    back = rescale_state(rescale_state(st, 7.3, "pinning", rule), 1 / 7.3, "pinning", rule)
    assert np.allclose(back.p, st.p, rtol=1e-14)
    assert np.allclose(back.q, st.q, rtol=1e-14)


def test_u_infinity_examples():
    m = chain_model(3, 1, pinning=EvenPower(degree=2, dim=1))
    assert u_infinity(m, [1.0]) == pytest.approx(3.0)
    # Homogeneity of the aggregate in Q.
    assert u_infinity(m, [2.0]) == pytest.approx(4.0 * u_infinity(m, [1.0]))
    # Coercivity of the aggregate for a soft-power model.
    ms = chain_model(3, 2, pinning=SoftPower(degree=4, dim=2),
                     interaction=SoftPower(degree=4, dim=2))
    angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    mins = min(u_infinity(ms, [np.cos(a), np.sin(a)]) for a in angles)
    assert mins > 0


def test_scaled_step_policy():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=SoftPower(degree=4, dim=1))
    assert scaled_step(m, 1e-3, 16.0) == pytest.approx(1e-3 * 16 ** -0.25)
    mh = chain_model(3, 1)
    assert scaled_step(mh, 1e-3, 1e6) == pytest.approx(1e-3)


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
    assert not c4_guard(bad)
    with pytest.raises(ValidityRegionError):
        integrate_deterministic(m, bad, 1.0, 1e-3, guard=c4_guard)


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
