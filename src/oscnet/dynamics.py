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
asserts.  Gamma and M are added up in blocks of steps: the O map keeps
each step's endpoint momenta, and the increments of the whole block are
taken at once before the next read (a record, the end of a noise chunk or
of the run) or when the block is full.  The increments are the one-step
formulas, bit for bit, and the totals take them in step order.  An
ensemble whose caller does not read Gamma and M can leave them out
(``BatchIntegrator(..., budget=False)``); the path is the same bits either
way.

Public arrays use the layout (vertices, dim); batch variants prepend a
member axis, (members, vertices, dim).  Inside the stepping loop the state
is held member-minor, (vertices, dim, members): every per-vertex or
per-bath operation is one contiguous vector op over the members, and the
edge forces are scattered in slabs of one sign each, so that a vertex
still adds its edge terms in edge-list order (a chain's in two slabs).

The loop runs plans bound once per integrator, to its state arrays: the
force plan, the read plan and the step, with the step's work arrays, O-map
slots and budget block, all sized from the member count.  Only the noise
chunk is sized from the run length, and allocated per run, which keeps the
peak memory of a wide ensemble down (:class:`BatchIntegrator`).  A plan
holds the views of each selection (a vertex set that is evenly spaced,
such as the two ends of a chain, is a slice and so a view), the point and
gradient buffers of each potential group, and the work arrays and scalar
factors of the updates.  Each group's potential contributes its own plan
(``bind_gradient`` or ``bind_value``, see :mod:`oscnet.potentials`), with
its temporaries and scalar operands, spliced in where its gradient or
value is needed.  A step then makes only its arithmetic calls, each with a
positional ``out``: it indexes, transposes and allocates nothing, and
calls no Python-level potential method.  Selections that are no slice cost
one ``take`` into a bound buffer, and scatters at them one ``ufunc.at``.

Potentials see member-major points, as on a (members, vertices, dim)
batch: a gradient gets a (k, members, dim) view or buffer and writes a
C-contiguous one, and a value reads a C-contiguous (members, k, dim)
buffer.  So every reduction inside a potential keeps the order it has on a
batch, and a sum over 8 or more vertices, baths, components or group
terms, which numpy evaluates pairwise there, is taken on a member-major
copy (:func:`_sum`).  A read, at construction (step 0) and at each record
step, computes (H, Hc, Hi) from the member-minor state and keeps them as
``BatchIntegrator.energies``; member-major copies of the state are made
only for the record callback ``on_record(step, H, Hc, Hi, p, q)`` and the
public ``p`` and ``q``.  Each member's path is therefore the same bits
whatever the ensemble size or chunking.

Noise comes from one source per member: any object whose
``standard_normal(out=array)`` fills a (steps, baths, dim) array and
returns it, as numpy's ``Generator`` and :class:`PrecomputedNoise` do.
The stepping loop refills a step-major (steps, baths, dim, members) chunk
every ``NOISE_CHUNK`` steps, or fewer when the batch is so wide that the
chunk would hold more than ``_NOISE_MEMBER_STEPS`` member-steps, so step
k's draws are the contiguous view ``chunk[k]``.  The chunk is filled in
tiles of ``_NOISE_TILE`` members: each source writes its own contiguous
row of a member-major tile, and one transposed copy moves the tile into
its member columns.  The step computes the half-kick ``(h/2) F`` once per
force evaluation: the closing kick of one step is the opening kick of the
next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import BlowupError, ValidityRegionError
from .model import Model
from .potentials import _HALF, PotentialSpec, _run, _scalar
from .topology import NetworkTopology

__all__ = [
    "State",
    "Trace",
    "hamiltonian",
    "forces",
    "integrate",
    "integrate_deterministic",
    "tau",
    "scaled_step",
    "BatchIntegrator",
    "PrecomputedNoise",
]

BLOWUP_ENERGY_FACTOR = 1e12

_ZERO = _scalar(0.0)


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

    def residual(self) -> np.ndarray:
        """Pathwise energy-budget residual; first order in the step size."""
        return self.H - self.H[0] + self.Gamma - self.noise_work_rate * self.times - self.M


# ---------------------------------------------------------------------------
# Compiled evaluation tables
# ---------------------------------------------------------------------------

def _index(idx: list[int]):
    """Indices as a slice when they are evenly spaced and increasing, else
    as an index array.  Both select the same elements in the same order,
    but a slice reads a view instead of copying, so a step can bind it
    once.  The two ends of a chain, for one, are the slice ``0::N-1``."""
    idx = list(idx)
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if idx and step > 0 and idx == list(range(idx[0], idx[-1] + 1, step)):
        return slice(idx[0], idx[-1] + 1, step)
    return np.array(idx, dtype=int)


def _sum(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` over ``axis`` of a member-minor array, in the order
    of the same reduction on the member-major layout: sequential below 8
    terms, numpy's pairwise sum from 8 on.  Written into ``out``."""
    if x.shape[axis] < 8:
        return np.add.reduce(x, axis, None, out)
    major = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    out[...] = np.moveaxis(np.add.reduce(major, axis=axis % x.ndim + 1), 0, -1)
    return out


def _take(calls: list, x: np.ndarray, idx) -> np.ndarray:
    """``x[idx]`` along the first axis for a bound plan: the view itself
    when ``idx`` is a slice, else a buffer that a ``take`` call appended
    to ``calls`` refills."""
    if isinstance(idx, slice):
        return x[idx]
    buf = np.empty((len(idx),) + x.shape[1:])
    calls.append((x.take, (idx, 0, buf, "clip")))
    return buf


def _scatter_plan(edges) -> list[tuple]:
    """Slab scatter of one edge group's forces as ``(vertices, terms, add)``
    slabs: ``F[vertices] += g[terms]`` at the edges' a ends, ``-=`` at
    their b ends.  Each vertex takes its incident edges of the group in
    edge-list order, so it adds the same terms in the same order as a loop
    over the edges.  A slab takes the next edge of every vertex whose next
    edge has the slab's sign, so a vertex occurs at most once per slab;
    the signs alternate, starting with the more common first one, and a
    vertex of degree d is done within 2d slabs.  A chain takes two: its b
    ends, then its a ends."""
    pending: dict[int, list[tuple[int, bool]]] = {}
    for j, e in enumerate(edges):
        pending.setdefault(e.a, []).append((j, True))
        pending.setdefault(e.b, []).append((j, False))
    heads = {v: 0 for v in sorted(pending)}
    add = 2 * sum(terms[0][1] for terms in pending.values()) >= len(pending)
    plan = []
    while heads:
        pairs = [(v, pending[v][r][0]) for v, r in heads.items() if pending[v][r][1] == add]
        if pairs:
            plan.append((_index([v for v, _ in pairs]), _index([j for _, j in pairs]), add))
            for v, _ in pairs:
                heads[v] += 1
            heads = {v: r for v, r in heads.items() if r < len(pending[v])}
        add = not add
    return plan


class _Kernel:
    """Per-model force/energy tables, grouped by identical potential spec.

    Forces and energies are evaluated by plans bound to member-minor
    (vertices, dim, members) arrays: :meth:`bind_forces` and
    :class:`_Read`.  Potentials see member-major points, (k, members, dim)
    for a gradient and (members, k, dim) for a value, as they would on a
    (members, vertices, dim) batch, so their reductions run in the same
    order for every ensemble size."""

    def __init__(self, model: Model):
        self.n = model.dim
        topo = model.topology

        pin_groups: dict[PotentialSpec, list[int]] = {}
        for v in topo.vertices:
            pin_groups.setdefault(model.pinning[v], []).append(v)
        self.pin_groups = [
            (_index(sorted(idx)), spec)
            for spec, idx in sorted(pin_groups.items(), key=lambda kv: min(kv[1]))
        ]

        edge_groups: dict[PotentialSpec, list] = {}
        for e in topo.edge_list:
            edge_groups.setdefault(model.interaction[e], []).append(e)
        self.edge_groups = []
        for spec, edges in sorted(edge_groups.items(), key=lambda kv: kv[1][0]):
            ea = _index([e.a for e in edges])
            eb = _index([e.b for e in edges])
            self.edge_groups.append((ea, eb, _scatter_plan(edges), spec))

        baths = sorted(topo.baths)
        self.bath_idx = np.array(baths, dtype=int)
        self.bath_sel = _index(baths)
        self.bath_gamma = np.array([model.gamma_of(b) for b in baths])
        self.bath_temp = np.array([model.temperature_of(b) for b in baths])

    def bind_forces(self, q: np.ndarray, F: np.ndarray) -> list:
        """The conservative forces at member-minor positions ``q`` as a
        plan that writes ``F``: a list of ``(function, args)`` calls on
        views and buffers bound here, run in order by :func:`_run`.

        Each group's points go to the potential's gradient plan
        (``bind_gradient``) as a member-major view or buffer, and its
        gradient comes back in a C-contiguous buffer.
        The pin groups partition the vertices, so ``0.0 - g`` sets every
        entry of F with the bits of subtracting ``g`` from zero, signed
        zeros included.  Each edge group then adds its slabs in place;
        a slab at vertices that are no slice adds through ``ufunc.at``,
        once per vertex, with the same bits."""
        calls: list = []
        for idx, spec in self.pin_groups:
            x = _take(calls, q, idx).transpose(0, 2, 1)
            g = np.empty(x.shape)
            calls += spec.bind_gradient(x, g)
            if isinstance(idx, slice):
                calls.append((np.subtract, (_ZERO, g.transpose(0, 2, 1), F[idx])))
            else:
                neg = np.empty((len(idx),) + F.shape[1:])
                calls.append((np.subtract, (_ZERO, g.transpose(0, 2, 1), neg)))
                calls.append((F.__setitem__, (idx, neg)))
        for ea, eb, plan, spec in self.edge_groups:
            qa = _take(calls, q, ea).transpose(0, 2, 1)
            qb = _take(calls, q, eb).transpose(0, 2, 1)
            x = np.empty(qa.shape)
            g = np.empty(qa.shape)
            calls.append((np.subtract, (qb, qa, x)))
            calls += spec.bind_gradient(x, g)
            for v, j, add in plan:
                term = _take(calls, g, j).transpose(0, 2, 1)
                ufunc = np.add if add else np.subtract
                if isinstance(v, slice):
                    Fv = F[v]  # one object as operand and out: no overlap check
                    calls.append((ufunc, (Fv, term, Fv)))
                else:
                    calls.append((ufunc.at, (F, v, term)))
        return calls

    def split_energies(self, p: np.ndarray, q: np.ndarray):
        """(H, Hc, Hi) of member-major (..., vertices, dim) arrays: the
        :class:`_Read` of their member-minor copies."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        lead = p.shape[:-2]

        def minor(x):
            return x.reshape((-1,) + x.shape[-2:]).transpose(1, 2, 0).copy()

        return tuple(e.reshape(lead) for e in _Read(self, minor(p), minor(q))())


class _Read:
    """(H, Hc, Hi) of member-minor (vertices, dim, members) ``p`` and
    ``q``, as a plan bound once; each call reads the arrays' current
    values and returns new arrays.  H is assembled as Hc + Hi so the split
    is exact: Hc carries the total-momentum kinetic part and the pinning
    energy, Hi the relative kinetic part and the interaction energy.

    Every term has the bits of the same formula on a (members, vertices,
    dim) batch: each potential group's value plan (``bind_value``) reads a
    C-contiguous (members, k, dim) buffer, its values are summed over the
    group and the group sums added up from zero in group order, and the
    sums over vertices and components follow :func:`_sum`.  Every call
    writes a buffer of its own (an in-place call on a one-member array
    costs twice as much)."""

    def __init__(self, kern: _Kernel, p: np.ndarray, q: np.ndarray):
        N, n, m = p.shape
        self.calls: list = []
        pin, inter = [], []
        for idx, spec in kern.pin_groups:
            x = _take(self.calls, q, idx).transpose(2, 0, 1)
            pts = np.empty(x.shape)
            self.calls.append((np.copyto, (pts, x)))
            pin.append((pts, spec))
        for ea, eb, _plan, spec in kern.edge_groups:
            qa = _take(self.calls, q, ea).transpose(2, 0, 1)
            qb = _take(self.calls, q, eb).transpose(2, 0, 1)
            pts = np.empty(qa.shape)
            self.calls.append((np.subtract, (qb, qa, pts)))
            inter.append((pts, spec))
        self.pin, self.inter = self._bind_energy(pin, m), self._bind_energy(inter, m)
        # The kinetic terms: 0.5 sum |p|^2 over vertices and components,
        # and 0.5 |sum_v p_v|^2 / N.
        pp, sq, P, PP, csq, com = (np.empty((N * n, m)), np.empty(m), np.empty((n, m)),
                                   np.empty((n, m)), np.empty(m), np.empty(m))
        self.kinetic, self.com = np.empty(m), np.empty(m)
        flat = p.reshape(N * n, m)  # a view: p is C-contiguous
        self.calls += [
            (np.multiply, (flat, flat, pp)),
            (_sum, (pp, 0, sq)),
            (np.multiply, (_HALF, sq, self.kinetic)),
            (_sum, (p, 0, P)),
            (np.multiply, (P, P, PP)),
            (_sum, (PP, 0, csq)),
            (np.multiply, (_HALF, csq, com)),
            (np.divide, (com, _scalar(N), self.com)),
        ]

    def _bind_energy(self, groups, m: int) -> np.ndarray:
        """Bind the total potential energy of ``groups``, (points, spec)
        pairs, and return the buffer of that (members,) total: zero
        without groups, else the sum of the group sums from zero."""
        total = np.zeros(m)
        for pts, spec in groups:
            vals, group, added = np.empty(pts.shape[:-1]), np.empty(m), np.empty(m)
            self.calls += spec.bind_value(pts, vals) + [
                (np.add.reduce, (vals, -1, None, group)),
                (np.add, (total, group, added))]
            total = added
        return total

    def __call__(self):
        _run(self.calls)
        hc = self.com + self.pin
        hi = (self.kinetic - self.com) + self.inter
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
    q = state.q[..., None]
    F = np.empty(q.shape)
    _run(_Kernel(model).bind_forces(q, F))
    return F[..., 0]


def _check_state(model: Model, state: State) -> None:
    if state.shape != (model.vertex_count, model.dim):
        raise ValueError(
            f"state shape {state.shape} does not match model "
            f"({model.vertex_count}, {model.dim})"
        )


def integrate(
    model: Model,
    state0: State,
    t_end: float,
    h: float,
    rng_stream,
    record_every: int = 1,
    record_states: bool = False,
) -> Trace:
    """Integrate the SDE, recording (H, Hc, Hi, Gamma, M) every
    ``record_every`` steps.

    ``rng_stream`` is any noise source whose ``standard_normal(out=array)``
    fills a (steps, baths, dim) array with its next draws, such as
    :func:`oscnet.rng.seed_stream` or :class:`PrecomputedNoise`.  This is
    the one-member case of :class:`BatchIntegrator`: the trace matches
    that member bit for bit.
    Blowup (non-finite energy, or H exceeding 1e12 max(|H(0)|, 1) at a
    record) raises :class:`BlowupError` carrying the partial trace.
    Identical (model, state0, h, stream) reproduce the trace bit-for-bit.
    """
    return _integrate_path(model, state0, t_end, h, rng_stream, record_every,
                           record_states)


def integrate_deterministic(
    model: Model,
    state0: State,
    t_end: float,
    h: float,
    record_every: int = 1,
    record_states: bool = False,
    guard: Callable[[np.ndarray], bool] | None = None,
    stop_when: Callable[[State], bool] | None = None,
) -> Trace:
    """Velocity-Verlet integration of the noise-free Hamiltonian dynamics.

    The baths are dropped, so this is :func:`integrate` on the model
    without bath vertices.  ``guard(q)`` is called with the (vertices, dim)
    positions at the start and after every step, and a False return aborts
    the run with :class:`ValidityRegionError` -- used to keep
    locally-defined potentials inside their documented region.  The
    positions are a view of the live state, valid only during the call.
    ``stop_when(state)`` is checked at every record after the first and
    ends the run early.
    """
    topo = model.topology
    hamiltonian_only = Model(NetworkTopology(topo.vertex_count, topo.edges, frozenset()),
                             model.dim, model.pinning, model.interaction, {})
    return _integrate_path(hamiltonian_only, state0, t_end, h, None, record_every,
                           record_states, guard=guard, stop_when=stop_when)


def _integrate_path(model, state0, t_end, h, stream, record_every, record_states,
                    guard=None, stop_when=None) -> Trace:
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
        )

    def record(step, H, Hc, Hi, p, q) -> bool:
        times.append(step * h)
        Hs.append(float(H[0]))
        Hcs.append(float(Hc[0]))
        His.append(float(Hi[0]))
        Gs.append(float(bi.gamma_acc[0]))
        Ms.append(float(bi.m_acc[0]))
        state = State(p[0], q[0]) if states is not None or stop_when is not None else None
        if states is not None:
            states.append(state)
        if bi.blown[0]:
            raise BlowupError(step=step, time=step * h, partial_trace=finish(),
                              detail=f"H={Hs[-1]!r}")
        return step > 0 and stop_when is not None and stop_when(state)

    def check_guard(step, q) -> None:
        if not guard(q):
            raise ValidityRegionError(step=step, time=step * h)

    on_step = None
    if guard is not None:
        check_guard(0, state0.q)
        on_step = check_guard
    record(0, *bi.energies, bi.p, bi.q)
    bi._advance(max(1, int(round(t_end / h))), record_every, record, on_step)
    return finish()


# ---------------------------------------------------------------------------
# Time scales and energy-adaptive steps
# ---------------------------------------------------------------------------

def _scan_degrees(model: Model) -> tuple[float, float]:
    """The model's common interaction and pinning degrees (li, lp), the
    exponents of every energy scan's time scales.  A model without springs
    has only the pinning time scale, (lp, lp).  Raises ValueError when the
    degrees differ across edges or vertices, or one is below 2."""
    lp = model.pinning_degrees()
    li = model.interaction_degrees() or lp
    if len(li) != 1 or len(lp) != 1 or min(li[0], lp[0]) < 2:
        raise ValueError("energy scans need common interaction and pinning degrees >= 2")
    return li[0], lp[0]


def tau(model: Model, lam: float, H_val: float, Hc_val: float, Hi_val: float) -> float:
    """Window length lam * H^(1/l - 1/2): l is the model's interaction
    degree when Hi >= H/2 and its pinning degree otherwise
    (:func:`_scan_degrees`).  Raises ValueError unless lam > 0 and H > 0."""
    li, lp = _scan_degrees(model)
    if not (lam > 0):
        raise ValueError("lam must be > 0")
    if not (H_val > 0):
        raise ValueError("H must be > 0")
    if Hi_val >= H_val / 2:
        return lam * H_val ** (1.0 / li - 0.5)
    return lam * H_val ** (1.0 / lp - 0.5)


def scaled_step(model: Model, h0: float, H0: float) -> float:
    """Energy-adaptive step h0 * min(1, H0^(1/li - 1/2)), with li the
    model's interaction degree (:func:`_scan_degrees`), so the step count
    per natural time window is energy-independent."""
    li, _ = _scan_degrees(model)
    return h0 * min(1.0, H0 ** (1.0 / li - 0.5))


# ---------------------------------------------------------------------------
# Vectorized ensembles
# ---------------------------------------------------------------------------

# Steps of noise drawn per request to each member's noise source.
NOISE_CHUNK = 256
# Member-steps of noise held at once: a batch of more than
# _NOISE_MEMBER_STEPS // NOISE_CHUNK members (4096) draws shorter chunks,
# so the chunk stays at 8 MiB per bath component however wide the batch.
_NOISE_MEMBER_STEPS = 2 ** 20
# Members whose draws are staged member-major before one transposed copy
# moves them into the step-major noise chunk.  For a 256-step chunk of 4096
# members with two bath components, the copies took about 8 ms in 64-member
# tiles, 3.7 ms in 128- or 256-member tiles and 6.3 ms in 512-member tiles
# (2-vCPU Xeon VM, 2 MiB L2 per core).  A tile holds at most the ensemble's
# members.
_NOISE_TILE = 256
# Member-steps of energy-budget terms held per block.  A block of k steps
# takes the budget sums of all k steps in one set of numpy calls, which
# pays off when the calls, not the members, cost the time.  Per step on a
# 3-chain with records every 5 or 10 steps, blocks saved about 35% at 1
# member, 20-25% at 200 and 10% at 600, and were within 5% of a per-step
# budget at 4096 and 8000 members, in blocks of 2 and 1 steps (2-vCPU Xeon
# VM).  A block never spans two noise chunks.
_BUDGET_BLOCK = 8192


class PrecomputedNoise:
    """Array-backed noise source, for coupling runs across step sizes: feed
    the O-step the normals reconstructed from a common Brownian path (coarse
    xi = sum of fine dW over the step, divided by sqrt(h)).

    It keeps the noise-source contract of the stepping loop:
    ``standard_normal(out=array)`` copies the next stored steps into a
    (steps, baths, dim) array and returns it."""

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

    def standard_normal(self, *, out: np.ndarray) -> np.ndarray:
        """Fill the (steps, baths, dim) array ``out`` with the next
        ``out.shape[0]`` stored steps and return it."""
        draws = self._draws[self._next:self._next + out.shape[0]]
        if draws.shape != out.shape:
            raise ValueError(f"stored draws {draws.shape} cannot answer a request for {out.shape}")
        out[...] = draws
        self._next += out.shape[0]
        return out


def _add_in_order(total: np.ndarray, first: np.ndarray, rows: np.ndarray,
                  cumsum: np.ndarray, last: np.ndarray) -> None:
    """``total += rows[k]`` for k = 1, 2, ... in one call, over a
    C-contiguous (steps + 1, members) ``rows`` whose row 0, ``first``, is
    overwritten.  Reducing the leading axis adds whole rows one at a time
    when there is more than one member; a single column would be summed
    pairwise, so one member takes the cumulative sum into ``cumsum``, whose
    last row is ``last``, which is sequential whatever the layout.  Either
    way the bits are those of the one-at-a-time sums."""
    first[...] = total
    if total.shape[0] > 1:
        np.add.reduce(rows, 0, None, total)
    else:
        np.add.accumulate(rows, 0, None, cumsum)
        total[...] = last


class BatchIntegrator:
    """March an ensemble of independent trajectories in lockstep.

    Member ``i`` draws its noise from ``streams[i]``, any object whose
    ``standard_normal(out=array)`` fills a (steps, baths, dim) array, one
    request per noise chunk (module docstring).  Each member's path is a pure
    function of its own stream, so results do not depend on ensemble size
    or on how members are split across runs.  Blowups and the
    first-crossing steps of optional energy thresholds are tracked at
    record resolution.  ``thresholds=(lo, hi)`` takes numbers or
    (members,) arrays, so members started at different energies can share
    a run, each with its own band.

    With ``budget=True`` the per-member dissipation ``gamma_acc`` and
    injected work ``m_acc`` are kept.  They are added up once per block of
    steps: a block ends at the next record, at the end of the noise chunk
    and after ``_BUDGET_BLOCK // members`` steps, so on every read (in
    ``on_record`` or after the run) they hold every step so far, with the
    bits of a step-by-step sum.  With ``budget=False`` they are ``None``
    and the step skips their increments; the path, energies and crossings
    are the same bits.

    Construction binds the run's plans to the member-minor state arrays,
    and is step 0's read.  The force plan, the read plan and the
    B-A-O-A-B step, with its work arrays, O-map slots, budget block and
    scalar factors, are sized from the member count alone, so every run
    steps the same plan.  Only the noise chunk and its tile are sized from
    the run length and allocated per run, in :meth:`_advance`: allocated
    at construction instead, at their full size, they raised the peak RSS
    of the benchmark's 4096-member ensemble (``ensemble-oracle``) from
    104.6 to 118.6 MB.
    The read observes the start for blowups and band crossings, and ``H0``
    and ``energies`` (the last read's (H, Hc, Hi), replaced at every
    record) hold the start's energies.  A non-finite start is reported
    through ``blown``, as in a run, not as a numpy warning.

    States go in and come out as (members, vertices, dim) arrays: ``p``,
    ``q`` and the arrays handed to ``on_record`` are member-major copies.
    Between records the state is held member-minor, (vertices, dim,
    members), and the noise step-major, (steps, baths, dim, members), as
    described in the module docstring.
    """

    def __init__(
        self,
        model: Model,
        p0: np.ndarray,
        q0: np.ndarray,
        h: float,
        streams: Sequence,
        thresholds: tuple[float, float] | None = None,
        budget: bool = True,
    ):
        if not (h > 0):
            raise ValueError("h must be > 0")
        self.kern = kern = _Kernel(model)
        self.h = h
        p0 = np.asarray(p0, dtype=float)
        q0 = np.asarray(q0, dtype=float)
        if p0.ndim != 3 or p0.shape != q0.shape:
            raise ValueError("batch states must be (members, vertices, dim)")
        self.m = m = p0.shape[0]
        if m < 1:
            raise ValueError("need at least one ensemble member")
        if len(streams) != m:
            raise ValueError("need one stream per ensemble member")
        self.streams = list(streams)
        self._p = p = p0.transpose(1, 2, 0).copy()
        self._q = q0.transpose(1, 2, 0).copy()
        self.gamma_acc = np.zeros(m) if budget else None
        self.m_acc = np.zeros(m) if budget else None
        if thresholds is not None:
            thresholds = tuple(np.asarray(t, dtype=float) for t in thresholds)
            if any(t.shape not in ((), (m,)) for t in thresholds):
                raise ValueError("thresholds must be numbers or one value per member")
        self.thresholds = thresholds
        self.first_low = np.full(m, -1, dtype=int)
        self.first_high = np.full(m, -1, dtype=int)
        self.blown = np.zeros(m, dtype=bool)

        # The force and read plans.
        self.F = np.empty_like(self._q)
        self._forces = kern.bind_forces(self._q, self.F)
        self._read = _Read(kern, p, self._q)
        # The step's scalar operands, work arrays and half-kick ``half * F``
        # (the closing kick of one step is the opening kick of the next).
        nb, n = len(kern.bath_idx), kern.n
        self._half = _scalar(0.5 * h)
        self._kick = np.empty_like(self.F)
        self._work = np.empty_like(self.F)
        # The O map's per-bath factors, as (baths, dim, 1) arrays against
        # (baths, dim, members) momenta, and its two terms.  With one
        # member they have the shape of the other operands; numpy takes a
        # broadcast operand through its general iterator, about 0.5 us
        # more per call on a small array.
        gamma, temp = kern.bath_gamma, kern.bath_temp
        a = np.exp(-gamma * h)
        b = np.sqrt(temp * (1.0 - a * a))
        self._a, self._b = (np.repeat(c[:, None, None], n, axis=1) for c in (a, b))
        self._decay, self._noise = np.empty((nb, n, m)), np.empty((nb, n, m))
        # O-map endpoint momenta of the steps of one budget block, and the
        # per-slot views the step writes.  The O map copies the bath rows
        # into a slot with "clip", which writes straight into out (the
        # indices are in range), and copies the result back into their
        # view, or through the index array when they are no slice.  A run
        # without a budget whose bath rows are a slice keeps no endpoints:
        # its one slot is that view, and the map writes it.
        self._budget = nb > 0 and budget
        block = max(1, min(NOISE_CHUNK, _BUDGET_BLOCK // m)) if self._budget else 1
        self._block_steps = block
        self._p_pre = np.empty((block, nb, n, m))
        self._p_post = np.empty((block, nb, n, m))
        self._bath_idx = kern.bath_idx
        sel = kern.bath_sel
        self._copies = self._budget or not isinstance(sel, slice)
        if self._copies:
            self._slots = list(zip(self._p_pre, self._p_post))
            self._set_baths = (partial(np.copyto, p[sel]) if isinstance(sel, slice)
                               else partial(p.__setitem__, sel))
        else:
            self._slots = [(p[sel], p[sel])]
        # The budget increments: their scalar and per-bath factors, the
        # latter as (block, baths, 1) against (block, baths, members)
        # terms; per-bath terms (block, baths, members), their component
        # products in dim > 1, and a running total followed by one
        # increment per step (block + 1, members) with its cumulative sums.
        self._h, self._sqrt_h, self._n = _scalar(h), _scalar(math.sqrt(h)), _scalar(n)
        self._factors = np.repeat(
            np.stack([gamma, np.sqrt(2.0 * gamma * temp), gamma * temp])[:, None, :, None],
            block, axis=1)
        self._u = np.empty((block, nb, m))
        self._v = np.empty((block, nb, m))
        self._prod = np.empty((block, nb, n, m)) if n > 1 else None
        self._rows = np.empty((block + 1, m))
        self._cumsum = np.empty((block + 1, m))
        self._quad = np.empty((block, m))
        self._blocks: dict[int, tuple] = {}

        # Step 0: the start's forces, half-kick and read.  Overflow in a
        # diverging member is reported through ``blown``, not as a numpy
        # warning, here as in the stepping loop.
        with np.errstate(over="ignore", invalid="ignore"):
            _run(self._forces)
            np.multiply(self._half, self.F, self._kick)
            self.energies = self._read()
            self.H0 = self.energies[0]
            self._ceiling = BLOWUP_ENERGY_FACTOR * np.maximum(np.abs(self.H0), 1.0)
            self._observe(0, self.H0)

    @property
    def p(self) -> np.ndarray:
        """Momenta, as a (members, vertices, dim) copy."""
        return self._p.transpose(2, 0, 1).copy()

    @property
    def q(self) -> np.ndarray:
        """Positions, as a (members, vertices, dim) copy."""
        return self._q.transpose(2, 0, 1).copy()

    def _draw(self, chunk: np.ndarray, tile: np.ndarray) -> None:
        """Fill the step-major (steps, baths, dim, members) noise chunk.
        Each member's source writes its contiguous (steps, baths, dim) row
        of the member-major ``tile``; one transposed copy per tile of
        ``_NOISE_TILE`` members moves the rows into their member columns."""
        steps = chunk.shape[0]
        for lo in range(0, self.m, _NOISE_TILE):
            rows = tile[:min(_NOISE_TILE, self.m - lo), :steps]
            for row, stream in zip(rows, self.streams[lo:lo + _NOISE_TILE]):
                stream.standard_normal(out=row)
            chunk[..., lo:lo + len(rows)] = rows.transpose(1, 2, 3, 0)

    def _observe(self, step: int, H: np.ndarray) -> None:
        bad = ~np.isfinite(H) | (H > self._ceiling)
        self.blown |= bad
        if self.thresholds is not None:
            lo, hi = self.thresholds
            newly_low = (H < lo) & (self.first_low < 0)
            newly_high = (H > hi) & (self.first_high < 0)
            self.first_low[newly_low] = step
            self.first_high[newly_high] = step

    def _step(self, draws, slot: int) -> None:
        """One B-A-O-A-B step in place: p and q advance, F becomes the force
        at the new q, and the O map's endpoint momenta go to budget slot
        ``slot``.  Each call is one arithmetic ufunc call with a positional
        ``out`` on the bound arrays, in the operand order of the plain
        expressions, so the bits are those of ``p += (0.5 * h) * F`` and
        the like.  Without bath vertices (``draws`` None) the O map is the
        identity and is skipped, so the step is velocity Verlet, and the
        second drift reuses the first one's ``(h/2) p``."""
        p, q, work, half, kick = self._p, self._q, self._work, self._half, self._kick
        np.add(p, kick, p)
        np.multiply(half, p, work)
        np.add(q, work, q)
        if draws is not None:
            pre, post = self._slots[slot]
            if self._copies:
                p.take(self._bath_idx, 0, pre, "clip")
            np.multiply(self._a, pre, self._decay)
            np.multiply(self._b, draws, self._noise)
            np.add(self._decay, self._noise, post)
            if self._copies:
                self._set_baths(post)
            np.multiply(half, p, work)
        np.add(q, work, q)
        for fn, args in self._forces:
            fn(*args)
        np.multiply(half, self.F, kick)
        np.add(p, kick, p)

    def _block(self, steps: int) -> tuple:
        """The views of a budget block of ``steps`` steps: O-map endpoints
        (in dim 1 without the component axis), component products, per-bath
        terms, noise terms, increments, the per-bath factors, and the
        running total's rows and cumulative sums."""
        views = self._blocks.get(steps)
        if views is None:
            pre, post = self._p_pre[:steps], self._p_post[:steps]
            prod = None if self._prod is None else self._prod[:steps]
            if prod is None:
                pre, post = pre[:, :, 0], post[:, :, 0]
            rows, cumsum = self._rows[:steps + 1], self._cumsum[:steps + 1]
            views = self._blocks[steps] = (
                pre, post, prod, self._u[:steps], self._v[:steps], self._quad[:steps], rows[1:],
                tuple(self._factors[:, :steps]), (rows[0], rows, cumsum, cumsum[-1]))
        return views

    @staticmethod
    def _dot(x, y, out, prod) -> None:
        """The component sum of ``x * y`` over (steps, baths, dim, members)
        arrays, into the (steps, baths, members) ``out``; without ``prod``
        (dim 1) the one product of the component-free views."""
        if prod is None:
            np.multiply(x, y, out)
        else:
            _sum(np.multiply(x, y, prod), 2, out)

    def _add_budget(self, draws) -> None:
        """Add the (dGamma, dM) increments of the last ``len(draws)`` steps,
        whose O-map endpoints fill the first slots, to ``gamma_acc`` and
        ``m_acc``.  The increments have the bits of the one-step formulas,
        and the totals take them in step order, as one step at a time
        would."""
        h, dot = self._h, self._dot
        pre, post, prod, u, v, quad, incr, (gamma, amp, power), rows = self._block(len(draws))
        if prod is None:
            draws = draws[:, :, 0]
        # Each update passes one view as operand and out, keeping the
        # operand order of ``u += v``, ``u *= c`` and the like.
        # dGamma = h sum_b gamma_b (|p_pre|^2 + |p_post|^2) / 2
        dot(pre, pre, u, prod)
        dot(post, post, v, prod)
        np.add(u, v, u)
        np.multiply(u, _HALF, u)
        np.multiply(u, gamma, u)
        _sum(u, 1, incr)
        np.multiply(incr, h, incr)
        _add_in_order(self.gamma_acc, *rows)
        # dM = sqrt(h) sum_b amp_b xi.p_pre + h sum_b power_b (|xi|^2 - n)
        dot(pre, draws, u, prod)
        np.multiply(u, amp, u)
        _sum(u, 1, incr)
        np.multiply(incr, self._sqrt_h, incr)
        dot(draws, draws, v, prod)
        np.subtract(v, self._n, v)
        np.multiply(v, power, v)
        _sum(v, 1, quad)
        np.multiply(quad, h, quad)
        np.add(incr, quad, incr)
        _add_in_order(self.m_acc, *rows)

    def run(self, n_steps: int, record_stride: int = 1, on_record=None) -> None:
        """Advance ``n_steps``, firing ``on_record(step, H, Hc, Hi, p, q)``
        as :meth:`_advance` does: at the record stride and at the last
        step, with member-major copies of the state; a true return ends
        the run.

        The callback does not fire for step 0, the read made at
        construction."""
        self._advance(n_steps, record_stride, on_record)

    def _advance(self, n_steps: int, record_stride: int, on_record, on_step=None) -> None:
        """The stepping loop behind :meth:`run`, :func:`integrate` and
        :func:`integrate_deterministic`.

        Each read, at the record stride and at the last step, replaces
        ``energies`` and observes H; then ``on_record(step, H, Hc, Hi, p,
        q)`` fires with member-major copies of the state, and a true
        return ends the run.
        ``on_step(step, q)``, for one member, fires after every step with
        a (vertices, dim) view of its positions."""
        nb, n = len(self.kern.bath_idx), self.kern.n
        budget, block, step_once = self._budget, self._block_steps, self._step
        # One step-major noise chunk, refilled every chunk_steps steps:
        # step k's draws are the contiguous (baths, dim, members) view buf[k].
        chunk_steps = min(NOISE_CHUNK, n_steps, max(1, _NOISE_MEMBER_STEPS // self.m))
        if nb:
            buf = np.empty((chunk_steps, nb, n, self.m))
            tile = np.empty((min(_NOISE_TILE, self.m), chunk_steps, nb, n))
            draws = list(buf)
        else:
            draws = [None] * chunk_steps
        path_q = self._q[..., 0]
        done = 0
        # Overflow in a diverging member is reported through ``blown``, not
        # as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < n_steps:
                count = min(chunk_steps, n_steps - done)
                if nb:
                    self._draw(buf[:count], tile)
                filled = 0  # steps of the open budget block
                for k in range(count):
                    step = done + k + 1
                    step_once(draws[k], filled)
                    read = step % record_stride == 0 or step == n_steps
                    if budget:
                        filled += 1
                        if filled == block or read or k == count - 1:
                            self._add_budget(buf[k + 1 - filled:k + 1])
                            filled = 0
                    if on_step is not None:
                        on_step(step, path_q)
                    if read:
                        self.energies = H, Hc, Hi = self._read()
                        self._observe(step, H)
                        if on_record is not None and on_record(step, H, Hc, Hi, self.p, self.q):
                            return
                done += count
