"""Hamiltonian dynamics, the Langevin SDE integrator, and energy accounting.

The equations of motion per vertex are

    dq_v = p_v dt
    dp_v = -grad_{q_v} H dt - gamma_v p_v dt + sqrt(2 T_v gamma_v) dW_v

with H = sum_v (|p_v|^2/2 + U_v(q_v)) + sum_e V_e(dq_e).  One step of the
integrator is the splitting B(h/2) A(h/2) O(h) A(h/2) B(h/2), where B kicks
momenta by the conservative forces, A drifts positions, and O applies the
exact Ornstein-Uhlenbeck map

    p_b <- exp(-gamma_b h) p_b + sqrt(T_b (1 - exp(-2 gamma_b h))) xi

on bath momenta only.  With all gamma = T = 0 the scheme reduces exactly
to velocity Verlet.

Along the way the integrator accumulates the dissipation integral
``Gamma(t) = sum_b gamma_b int |p_b|^2 ds`` (midpoint quadrature across the
O map) and the injected-work martingale ``M(t)``.  ``M`` is accumulated
from the O-step draws as

    dM_b = sqrt(2 gamma_b T_b) p_b . dW + gamma_b T_b (|dW|^2 - n h)

with dW = xi sqrt(h); the quadratic term is the second-order reconstruction
of the stochastic integral over the step.  Without it the pathwise budget
residual H(t) - H(0) + Gamma - n (sum gamma_b T_b) t - M is dominated by a
quadratic-variation fluctuation that shrinks only like sqrt(h); with it the
residual is first order in h, which is what the budget refinement test
asserts.

Public arrays use the layout (vertices, dim); batch variants prepend a
member axis, (members, vertices, dim).  Inside the stepping loop the state
is held member-minor, (vertices, dim, members): every per-vertex or
per-bath operation is one contiguous vector op over the members, and the
edge forces are scattered in slabs, one round per incident-edge rank, so a
vertex still adds its edge terms in edge-list order.  Potentials, energies
and record callbacks see member-major copies, so every reduction keeps the
order it has on a (members, vertices, dim) array; a sum over 8 or more
baths or components, which numpy evaluates pairwise there, is taken on a
member-major copy as well.  Each member's path is therefore the same bits
whatever the ensemble size or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BlowupError, ValidityRegionError
from .model import Model
from .potentials import PotentialSpec
from .topology import NetworkTopology

__all__ = [
    "State",
    "Trace",
    "TimescaleRule",
    "hamiltonian",
    "forces",
    "com_coords",
    "step_sde",
    "integrate",
    "integrate_deterministic",
    "tau",
    "rescale_state",
    "u_infinity",
    "scaled_step",
    "BatchIntegrator",
    "PrecomputedNoise",
]

BLOWUP_ENERGY_FACTOR = 1e12


@dataclass(frozen=True)
class State:
    """Phase point z = (p, q); arrays of shape (vertices, dim)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        if p.ndim != 2 or p.shape != q.shape:
            raise ValueError("p and q must be (vertices, dim) arrays of equal shape")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape

    def copy(self) -> "State":
        return State(self.p.copy(), self.q.copy())

    @classmethod
    def zero(cls, vertices: int, dim: int) -> "State":
        return cls(np.zeros((vertices, dim)), np.zeros((vertices, dim)))


@dataclass
class Trace:
    """Recorded time series of one trajectory.

    ``H == Hc + Hi`` holds exactly at every sample (H is assembled from the
    split), ``Gamma`` is non-decreasing and starts at 0, as does ``M``.
    """

    times: np.ndarray
    H: np.ndarray
    Hc: np.ndarray
    Hi: np.ndarray
    Gamma: np.ndarray
    M: np.ndarray
    noise_work_rate: float
    states: list[State] | None = None
    seed_info: dict = field(default_factory=dict)

    def residual(self) -> np.ndarray:
        """Pathwise energy-budget residual; first order in the step size."""
        return self.H - self.H[0] + self.Gamma - self.noise_work_rate * self.times - self.M

    def to_csv(self, path) -> None:
        res = self.residual()
        with open(path, "w") as fh:
            fh.write("t,H,Hc,Hi,Gamma,M,residual\n")
            for i in range(len(self.times)):
                row = (self.times[i], self.H[i], self.Hc[i], self.Hi[i],
                       self.Gamma[i], self.M[i], res[i])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def save_states(self, prefix) -> list[str]:
        """Write recorded snapshots as raw arrays keyed by record index:
        ``<prefix>_steps.npy`` (times), ``<prefix>_p.npy``, ``<prefix>_q.npy``.
        Plain .npy files keep the bytes deterministic across reruns."""
        if self.states is None:
            raise ValueError("trace was recorded without state snapshots")
        prefix = str(prefix)
        names = []
        arrays = {
            "steps": np.asarray(self.times),
            "p": np.stack([s.p for s in self.states]),
            "q": np.stack([s.q for s in self.states]),
        }
        for tag, arr in arrays.items():
            name = f"{prefix}_{tag}.npy"
            np.save(name, arr)
            names.append(name)
        return names


@dataclass(frozen=True)
class TimescaleRule:
    """Energy-dependent window length tau(z).

    tau = lam * H^(1/li - 1/2) when the internal energy dominates
    (Hi >= H/2), else lam * H^(1/lp - 1/2).  When lp == 2 the prefactor
    must not exceed half the drift horizon; validate with
    ``validate_against_t_star``.
    """

    lam: float
    li: float
    lp: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError("lam must be > 0")
        if self.li < 2 or self.lp < 2:
            raise ValueError("degrees must be >= 2")

    def validate_against_t_star(self, t_star: float) -> None:
        if self.lp == 2 and self.lam > t_star / 2 + 1e-12:
            raise ValueError("when lp == 2 the rule requires lam <= t_star / 2")


# ---------------------------------------------------------------------------
# Compiled evaluation tables
# ---------------------------------------------------------------------------

def _index(idx: list[int]):
    """Indices as a slice when they are one increasing run, else as an
    index array.  Both select the same elements in the same order, but a
    slice reads a view instead of copying, which is most of the cost of a
    selection from a small batch."""
    if idx and list(idx) == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx, dtype=int)


def _points(x: np.ndarray) -> np.ndarray:
    """Member-minor (k, dim, members) values as the member-major
    (k, members, dim) points a potential expects.  The copy (none in dim 1)
    gives potentials the layout of a (members, vertices, dim) batch, so
    their reductions run in the same order for every ensemble size."""
    return np.ascontiguousarray(x.transpose(0, 2, 1))


def _sum(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.add.reduce`` over ``axis`` of a member-minor array, in the order
    of the same reduction on the member-major layout: sequential below 8
    terms, numpy's pairwise sum from 8 on."""
    if x.shape[axis] < 8:
        return np.add.reduce(x, axis=axis)
    major = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    return np.moveaxis(np.add.reduce(major, axis=axis % x.ndim + 1), 0, -1)


def _scatter_plan(edges) -> list[tuple]:
    """Slab scatter of one edge group's forces as ``(vertices, terms, add)``
    slabs: ``F[vertices] += g[terms]`` at the edges' a ends, ``-=`` at
    their b ends.  Round r holds every vertex's r-th incident edge of the
    group in edge-list order, so a vertex occurs at most once per slab and
    adds the same terms in the same order as a loop over the edges."""
    incident: dict[int, list[tuple[int, bool]]] = {}
    for j, e in enumerate(edges):
        incident.setdefault(e.a, []).append((j, True))
        incident.setdefault(e.b, []).append((j, False))
    plan = []
    for r in range(max(len(terms) for terms in incident.values())):
        for add in (True, False):
            pairs = [(v, terms[r][0]) for v, terms in sorted(incident.items())
                     if r < len(terms) and terms[r][1] == add]
            if pairs:
                plan.append((_index([v for v, _ in pairs]), _index([j for _, j in pairs]), add))
    return plan


class _Kernel:
    """Per-model force/energy tables, grouped by identical potential spec.

    ``forces`` works on member-minor positions (vertices, dim, members);
    the energies work on member-major (..., vertices, dim) arrays."""

    def __init__(self, model: Model):
        self.model = model
        self.N = model.vertex_count
        self.n = model.dim
        topo = model.topology

        pin_groups: dict[PotentialSpec, list[int]] = {}
        for v in topo.vertices:
            pin_groups.setdefault(model.pinning[v], []).append(v)
        self.pin_groups = [
            (_index(sorted(idx)), spec.value, spec.gradient)
            for spec, idx in sorted(pin_groups.items(), key=lambda kv: min(kv[1]))
        ]

        edge_groups: dict[PotentialSpec, list] = {}
        for e in topo.edge_list:
            edge_groups.setdefault(model.interaction[e], []).append(e)
        self.edge_groups = []
        for spec, edges in sorted(edge_groups.items(), key=lambda kv: kv[1][0]):
            ea = _index([e.a for e in edges])
            eb = _index([e.b for e in edges])
            self.edge_groups.append((ea, eb, _scatter_plan(edges), spec.value, spec.gradient))

        self.gamma = np.array([model.gamma_of(v) for v in topo.vertices])
        self.temp = np.array([model.temperature_of(v) for v in topo.vertices])
        self.bath_idx = np.array(sorted(topo.baths), dtype=int)
        self.bath_sel = _index(sorted(topo.baths))
        self.bath_gamma = self.gamma[self.bath_idx]
        self.bath_temp = self.temp[self.bath_idx]
        # Per-bath coefficients of the budget increments, as (baths, 1)
        # columns against (baths, members) sums.
        self.gamma_col = self.bath_gamma[:, None]
        self.noise_amp = np.sqrt(2.0 * self.bath_gamma * self.bath_temp)[:, None]
        self.noise_power = (self.bath_gamma * self.bath_temp)[:, None]

    def forces(self, q: np.ndarray) -> np.ndarray:
        """Conservative forces at member-minor positions (vertices, dim, members)."""
        F = np.zeros_like(q)
        for idx, _val, grad in self.pin_groups:
            F[idx] -= grad(_points(q[idx])).transpose(0, 2, 1)
        for ea, eb, plan, _val, grad in self.edge_groups:
            g = grad(_points(q[eb] - q[ea])).transpose(0, 2, 1)
            for v, j, add in plan:
                if add:
                    F[v] += g[j]
                else:
                    F[v] -= g[j]
        return F

    def pinning_energy(self, q: np.ndarray) -> np.ndarray:
        total = np.zeros(q.shape[:-2])
        for idx, val, _grad in self.pin_groups:
            total = total + np.sum(val(q[..., idx, :]), axis=-1)
        return total

    def interaction_energy(self, q: np.ndarray) -> np.ndarray:
        total = np.zeros(q.shape[:-2])
        for ea, eb, _plan, val, _grad in self.edge_groups:
            total = total + np.sum(val(q[..., eb, :] - q[..., ea, :]), axis=-1)
        return total

    def split_energies(self, p: np.ndarray, q: np.ndarray):
        """(H, Hc, Hi) with H assembled as Hc + Hi so the split is exact."""
        kinetic = 0.5 * np.sum(p * p, axis=(-2, -1))
        P = np.sum(p, axis=-2)
        com_kinetic = 0.5 * np.sum(P * P, axis=-1) / self.N
        hc = com_kinetic + self.pinning_energy(q)
        hi = (kinetic - com_kinetic) + self.interaction_energy(q)
        return hc + hi, hc, hi


# ---------------------------------------------------------------------------
# Public single-state operations
# ---------------------------------------------------------------------------

def hamiltonian(model: Model, state: State) -> tuple[float, float, float]:
    """Total energy and its center-of-mass / internal split (H, Hc, Hi).

    Hc carries the total-momentum kinetic part and the pinning energy;
    Hi carries the relative kinetic part and the interaction energy.
    H is returned as Hc + Hi, so the split identity is exact.
    """
    _check_state(model, state)
    H, Hc, Hi = _Kernel(model).split_energies(state.p, state.q)
    return float(H), float(Hc), float(Hi)


def forces(model: Model, state: State) -> np.ndarray:
    """Conservative force on every vertex (friction and noise excluded)."""
    _check_state(model, state)
    return _Kernel(model).forces(state.q[..., None])[..., 0]


def com_coords(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Total momentum P = sum_v p_v and mean position Q = mean_v q_v."""
    return np.sum(state.p, axis=0), np.mean(state.q, axis=0)


def _check_state(model: Model, state: State) -> None:
    if state.shape != (model.vertex_count, model.dim):
        raise ValueError(
            f"state shape {state.shape} does not match model "
            f"({model.vertex_count}, {model.dim})"
        )


def step_sde(model: Model, state: State, h: float, gaussian_draws) -> State:
    """One B-A-O-A-B step; ``gaussian_draws`` supplies one standard normal
    per bath vertex and spatial component, shape (n_baths, dim)."""
    if not (h > 0):
        raise ValueError("h must be > 0")
    _check_state(model, state)
    kern = _Kernel(model)
    draws = np.asarray(gaussian_draws, dtype=float)
    if draws.shape != (len(kern.bath_idx), model.dim):
        raise ValueError(f"gaussian_draws must have shape ({len(kern.bath_idx)}, {model.dim})")
    # A one-member batch in the member-minor layout of the stepping loop.
    p = state.p[..., None].copy()
    q = state.q[..., None].copy()
    F = kern.forces(q)
    _step_arrays(kern, p, q, F, h, draws[..., None], _ou_coeffs(kern, h))
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise BlowupError(step=1, time=h, detail="non-finite state after one step")
    return State(p[..., 0], q[..., 0])


def _ou_coeffs(kern: _Kernel, h: float):
    a = np.exp(-kern.bath_gamma * h)
    b = np.sqrt(kern.bath_temp * (1.0 - a * a))
    return a[:, None, None], b[:, None, None]


def _step_arrays(kern: _Kernel, p, q, F, h, draws, ou):
    """In-place B-A-O-A-B update of member-minor (vertices, dim, members)
    arrays; returns (F_new, p_pre_O, p_post_O).

    Without bath vertices the O map is the identity and is skipped, so the
    step is velocity Verlet and both O-map momenta are None."""
    half = 0.5 * h
    p += half * F
    q += half * p
    p_pre = p_post = None
    if len(kern.bath_idx):
        a, b = ou
        idx = kern.bath_sel
        p_pre = p[idx].copy()
        p_post = a * p_pre + b * draws
        p[idx] = p_post
    q += half * p
    F_new = kern.forces(q)
    p += half * F_new
    return F_new, p_pre, p_post


def _budget_increments(kern: _Kernel, h, draws, p_pre, p_post):
    """(dGamma, dM) for one step from the O-map endpoint momenta and draws,
    all (baths, dim, members)."""
    p2 = 0.5 * (_sum(p_pre * p_pre, 1) + _sum(p_post * p_post, 1))
    dgamma = h * _sum(kern.gamma_col * p2, 0)
    xi_dot_p = _sum(p_pre * draws, 1)
    xi_sq = _sum(draws * draws, 1)
    dm = math.sqrt(h) * _sum(kern.noise_amp * xi_dot_p, 0)
    dm = dm + h * _sum(kern.noise_power * (xi_sq - kern.n), 0)
    return dgamma, dm


def integrate(
    model: Model,
    state0: State,
    t_end: float,
    h: float,
    rng_stream,
    record_every: int = 1,
    record_states: bool = False,
    seed_info: dict | None = None,
) -> Trace:
    """Integrate the SDE, recording (H, Hc, Hi, Gamma, M) every
    ``record_every`` steps.

    ``rng_stream`` is any noise source with a ``standard_normal(shape)``
    method, such as :func:`oscnet.rng.seed_stream` or
    :class:`PrecomputedNoise`.  This is the one-member case of
    :class:`BatchIntegrator`: the trace matches that member bit for bit.
    Blowup (non-finite energy, or H exceeding 1e12 times the initial
    energy) raises :class:`BlowupError` carrying the partial trace.
    Identical (model, state0, h, stream) reproduce the trace bit-for-bit.
    """
    return _integrate_path(model, state0, t_end, h, rng_stream, record_every,
                           record_states, seed_info)


def integrate_deterministic(
    model: Model,
    state0: State,
    t_end: float,
    h: float,
    record_every: int = 1,
    record_states: bool = False,
    guard: Callable[[State], bool] | None = None,
    stop_when: Callable[[State], bool] | None = None,
) -> Trace:
    """Velocity-Verlet integration of the noise-free Hamiltonian dynamics.

    The baths are dropped, so this is :func:`integrate` on the model
    without bath vertices.  ``guard`` is checked at every step and a False
    return aborts the run with :class:`ValidityRegionError` -- used to keep
    locally-defined potentials inside their documented region.
    ``stop_when`` is checked at every record after the first and ends the
    run early.
    """
    topo = model.topology
    hamiltonian_only = Model(NetworkTopology(topo.vertex_count, topo.edges, frozenset()),
                             model.dim, model.pinning, model.interaction, {})
    return _integrate_path(hamiltonian_only, state0, t_end, h, None, record_every,
                           record_states, guard=guard, stop_when=stop_when)


def _integrate_path(model, state0, t_end, h, stream, record_every, record_states,
                    seed_info=None, guard=None, stop_when=None) -> Trace:
    """One trajectory as a one-member batch, recorded into a :class:`Trace`."""
    if not (t_end > 0) or not (h > 0):
        raise ValueError("t_end and h must be > 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    _check_state(model, state0)

    bi = BatchIntegrator(model, state0.p[None], state0.q[None], h, [stream])
    times, Hs, Hcs, His, Gs, Ms = [], [], [], [], [], []
    states: list[State] | None = [] if record_states else None

    def finish() -> Trace:
        return Trace(
            times=np.array(times),
            H=np.array(Hs),
            Hc=np.array(Hcs),
            Hi=np.array(His),
            Gamma=np.array(Gs),
            M=np.array(Ms),
            noise_work_rate=model.noise_work_rate,
            states=states,
            seed_info=dict(seed_info or {}),
        )

    def record(step, H, Hc, Hi, p, q) -> bool:
        p, q = p[0], q[0]
        times.append(step * h)
        Hs.append(float(H[0]))
        Hcs.append(float(Hc[0]))
        His.append(float(Hi[0]))
        Gs.append(float(bi.gamma_acc[0]))
        Ms.append(float(bi.m_acc[0]))
        if states is not None:
            states.append(State(p, q))
        if bi.blown[0]:
            raise BlowupError(step=step, time=step * h, partial_trace=finish(),
                              detail=f"H={Hs[-1]!r}")
        return step > 0 and stop_when is not None and stop_when(State(p, q))

    def check_guard(step, p, q) -> None:
        if not guard(State(p, q)):
            raise ValidityRegionError(step=step, time=step * h)

    on_step = None
    if guard is not None:
        check_guard(0, state0.p, state0.q)
        on_step = check_guard
    record(0, *bi.energies(), bi.p, bi.q)
    bi._advance(max(1, int(round(t_end / h))), record_every, record, on_step)
    return finish()


# ---------------------------------------------------------------------------
# Time scales, rescalings, aggregate limiting pinning
# ---------------------------------------------------------------------------

def tau(rule: TimescaleRule, H_val: float, Hc_val: float, Hi_val: float) -> float:
    """Window length: internal scale when Hi >= H/2, pinning scale otherwise."""
    if not (H_val > 0):
        raise ValueError("H must be > 0")
    if Hi_val >= H_val / 2:
        return rule.lam * H_val ** (1.0 / rule.li - 0.5)
    return rule.lam * H_val ** (1.0 / rule.lp - 0.5)


def rescale_state(state: State, energy: float, mode: str, rule: TimescaleRule) -> State:
    """High-energy normal form: p -> E^(-1/2) p and q -> E^(-1/l) q, with
    l the interaction degree in ``mode="interaction"`` and the pinning
    degree in ``mode="pinning"``.  The inverse is the same call with 1/E."""
    if not (energy > 0):
        raise ValueError("energy must be > 0")
    if mode == "interaction":
        ell = rule.li
    elif mode == "pinning":
        ell = rule.lp
    else:
        raise ValueError("mode must be 'interaction' or 'pinning'")
    return State(state.p * energy ** -0.5, state.q * energy ** (-1.0 / ell))


def u_infinity(model: Model, Q) -> float:
    """Aggregate limiting pinning potential evaluated at the single point Q."""
    Q = np.asarray(Q, dtype=float)
    total = 0.0
    for v in model.topology.vertices:
        total += float(model.pinning[v].limiting_value(Q))
    return total


def scaled_step(model: Model, h0: float, H0: float) -> float:
    """Energy-adaptive step h0 * min(1, H0^(1/li - 1/2)) so the step count
    per natural time window is energy-independent."""
    degrees = model.common_degrees()
    if degrees is None:
        return h0
    li, _ = degrees
    return h0 * min(1.0, H0 ** (1.0 / li - 0.5))


# ---------------------------------------------------------------------------
# Vectorized ensembles
# ---------------------------------------------------------------------------

# Steps of noise drawn per request to each member's noise source.
NOISE_CHUNK = 256


class PrecomputedNoise:
    """Array-backed noise source, for coupling runs across step sizes: feed
    the O-step the normals reconstructed from a common Brownian path (coarse
    xi = sum of fine dW over the step, divided by sqrt(h))."""

    def __init__(self, draws: np.ndarray):
        self._draws = np.asarray(draws, dtype=float)
        self._next = 0

    @classmethod
    def from_brownian(cls, fine_xi: np.ndarray, fine_h: float, coarse_h: float) -> "PrecomputedNoise":
        """Aggregate fine-level unit normals to the coarse step size."""
        ratio = int(round(coarse_h / fine_h))
        if not math.isclose(ratio * fine_h, coarse_h, rel_tol=1e-9):
            raise ValueError("coarse_h must be an integer multiple of fine_h")
        steps = fine_xi.shape[0] // ratio
        dw = fine_xi[: steps * ratio] * math.sqrt(fine_h)
        dw = dw.reshape(steps, ratio, *fine_xi.shape[1:]).sum(axis=1)
        return cls(dw / math.sqrt(coarse_h))

    def standard_normal(self, shape) -> np.ndarray:
        """The next ``shape[0]`` stored steps, for a (steps, baths, dim) request."""
        out = self._draws[self._next:self._next + shape[0]]
        if out.shape != tuple(shape):
            raise ValueError(f"stored draws {out.shape} cannot answer a request for {tuple(shape)}")
        self._next += shape[0]
        return out


class BatchIntegrator:
    """March an ensemble of independent trajectories in lockstep.

    Member ``i`` draws its noise from ``streams[i]``, any object with a
    ``standard_normal(shape)`` method.  Each member's path is a pure
    function of its own stream, so results do not depend on ensemble size
    or on how members are split across runs.  Per-member dissipation,
    injected work, running energy extrema, and first-crossing steps of
    optional energy thresholds are tracked at record resolution.

    States go in and come out as (members, vertices, dim) arrays: ``p``,
    ``q`` and the arrays handed to ``on_record`` are member-major copies.
    Between records the state is held member-minor, (vertices, dim,
    members), as described in the module docstring.
    """

    def __init__(
        self,
        model: Model,
        p0: np.ndarray,
        q0: np.ndarray,
        h: float,
        streams: Sequence,
        thresholds: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if not (h > 0):
            raise ValueError("h must be > 0")
        self.kern = _Kernel(model)
        self.h = h
        p0 = np.asarray(p0, dtype=float)
        q0 = np.asarray(q0, dtype=float)
        if p0.ndim != 3 or p0.shape != q0.shape:
            raise ValueError("batch states must be (members, vertices, dim)")
        self.m = p0.shape[0]
        if len(streams) != self.m:
            raise ValueError("need one stream per ensemble member")
        self.streams = list(streams)
        self.ou = _ou_coeffs(self.kern, h)
        self._p = p0.transpose(1, 2, 0).copy()
        self._q = q0.transpose(1, 2, 0).copy()
        self.F = self.kern.forces(self._q)
        self.gamma_acc = np.zeros(self.m)
        self.m_acc = np.zeros(self.m)
        H, _, _ = self.kern.split_energies(p0, q0)
        self.H0 = H
        self.h_min = H.copy()
        self.h_max = H.copy()
        self.blown = ~np.isfinite(H)
        self.thresholds = thresholds
        self.first_low = np.full(self.m, -1, dtype=int)
        self.first_high = np.full(self.m, -1, dtype=int)
        self._ceiling = BLOWUP_ENERGY_FACTOR * np.maximum(np.abs(H), 1.0)

    @property
    def p(self) -> np.ndarray:
        """Momenta, as a (members, vertices, dim) copy."""
        return self._p.transpose(2, 0, 1).copy()

    @property
    def q(self) -> np.ndarray:
        """Positions, as a (members, vertices, dim) copy."""
        return self._q.transpose(2, 0, 1).copy()

    def _draw(self, buf: np.ndarray) -> None:
        """Fill the member-major (members, steps, baths, dim) noise buffer,
        one contiguous block per member."""
        for i, stream in enumerate(self.streams):
            buf[i] = stream.standard_normal(buf.shape[1:])

    def _observe(self, step: int, H: np.ndarray) -> None:
        np.minimum(self.h_min, H, out=self.h_min)
        np.maximum(self.h_max, H, out=self.h_max)
        bad = ~np.isfinite(H) | (H > self._ceiling)
        self.blown |= bad
        if self.thresholds is not None:
            lo, hi = self.thresholds
            newly_low = (H < lo) & (self.first_low < 0)
            newly_high = (H > hi) & (self.first_high < 0)
            self.first_low[newly_low] = step
            self.first_high[newly_high] = step

    def run(self, n_steps: int, record_stride: int = 1, on_record=None) -> None:
        """Advance ``n_steps``, firing ``on_record(step, t, H, Hc, Hi, p, q)``
        at the record stride, with member-major copies of the state.

        The callback does not fire for step 0; the initial state is
        inspectable on the instance before calling."""
        H, _, _ = self.energies()
        self._observe(0, H)

        def fire(step, H, Hc, Hi, p, q) -> None:
            on_record(step, step * self.h, H, Hc, Hi, p, q)

        self._advance(n_steps, record_stride, fire if on_record is not None else None)

    def _advance(self, n_steps: int, record_stride: int, on_record, on_step=None) -> None:
        """The stepping loop behind :meth:`run`, :func:`integrate` and
        :func:`integrate_deterministic`.

        ``on_record(step, H, Hc, Hi, p, q)`` fires at the record stride and
        at the last step, after the energies are observed, with
        member-major copies of the state; a true return ends the run.
        ``on_step(step, p, q)``, for one member, fires after every step
        with (vertices, dim) views of its state."""
        kern, h, ou = self.kern, self.h, self.ou
        p, q = self._p, self._q
        nb = len(kern.bath_idx)
        # One member-major noise buffer, refilled every NOISE_CHUNK steps.
        buf = np.empty((self.m, min(NOISE_CHUNK, n_steps), nb, kern.n)) if nb else None
        done = 0
        # Overflow in a diverging member is reported through ``blown``, not
        # as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < n_steps:
                count = min(NOISE_CHUNK, n_steps - done)
                if nb:
                    self._draw(buf[:, :count])
                for k in range(count):
                    step = done + k + 1
                    xi = np.ascontiguousarray(buf[:, k].transpose(1, 2, 0)) if nb else None
                    self.F, p_pre, p_post = _step_arrays(kern, p, q, self.F, h, xi, ou)
                    if nb:
                        dg, dm = _budget_increments(kern, h, xi, p_pre, p_post)
                        self.gamma_acc += dg
                        self.m_acc += dm
                    if on_step is not None:
                        on_step(step, p[..., 0], q[..., 0])
                    if step % record_stride == 0 or step == n_steps:
                        pm, qm = self.p, self.q
                        H, Hc, Hi = kern.split_energies(pm, qm)
                        self._observe(step, H)
                        if on_record is not None and on_record(step, H, Hc, Hi, pm, qm):
                            return
                done += count

    def energies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.kern.split_energies(self.p, self.q)
