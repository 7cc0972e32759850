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

Arrays use the layout (vertices, dim); batch variants prepend a member
axis.  All reductions in the hot path are either elementwise or over fixed
small axes, so results are bitwise independent of ensemble chunking.
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
    """Vertex indices as a slice when they are one increasing run, else as
    an index array.  Both select the same elements in the same order, but
    a slice reads a view instead of copying, which is most of the cost of
    a selection from a small batch.  A run keeps each member's rows
    contiguous, so potentials see the same memory layout either way."""
    if idx and list(idx) == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx, dtype=int)


class _Kernel:
    """Per-model force/energy tables, grouped by identical potential spec."""

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
            ends = tuple((e.a, e.b) for e in edges)
            self.edge_groups.append((ea, eb, ends, spec.value, spec.gradient))

        self.gamma = np.array([model.gamma_of(v) for v in topo.vertices])
        self.temp = np.array([model.temperature_of(v) for v in topo.vertices])
        self.bath_idx = np.array(sorted(topo.baths), dtype=int)
        self.bath_sel = _index(sorted(topo.baths))
        self.bath_gamma = self.gamma[self.bath_idx]
        self.bath_temp = self.temp[self.bath_idx]
        # Per-bath coefficients of the injected-work increment.
        self.noise_amp = np.sqrt(2.0 * self.bath_gamma * self.bath_temp)
        self.noise_power = self.bath_gamma * self.bath_temp

    def forces(self, q: np.ndarray) -> np.ndarray:
        F = np.zeros_like(q)
        for idx, _val, grad in self.pin_groups:
            F[..., idx, :] -= grad(q[..., idx, :])
        for ea, eb, ends, _val, grad in self.edge_groups:
            g = grad(q[..., eb, :] - q[..., ea, :])
            for j, (a, b) in enumerate(ends):
                F[..., a, :] += g[..., j, :]
                F[..., b, :] -= g[..., j, :]
        return F

    def pinning_energy(self, q: np.ndarray) -> np.ndarray:
        total = np.zeros(q.shape[:-2])
        for idx, val, _grad in self.pin_groups:
            total = total + np.sum(val(q[..., idx, :]), axis=-1)
        return total

    def interaction_energy(self, q: np.ndarray) -> np.ndarray:
        total = np.zeros(q.shape[:-2])
        for ea, eb, _ends, val, _grad in self.edge_groups:
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
    return _Kernel(model).forces(state.q)


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
    p = state.p.copy()
    q = state.q.copy()
    F = kern.forces(q)
    _step_arrays(kern, p, q, F, h, draws, _ou_coeffs(kern, h))
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise BlowupError(step=1, time=h, detail="non-finite state after one step")
    return State(p, q)


def _ou_coeffs(kern: _Kernel, h: float):
    a = np.exp(-kern.bath_gamma * h)
    b = np.sqrt(kern.bath_temp * (1.0 - a * a))
    return a[..., None], b[..., None]


def _step_arrays(kern: _Kernel, p, q, F, h, draws, ou):
    """In-place B-A-O-A-B update; returns (F_new, p_pre_O, p_post_O).

    Without bath vertices the O map is the identity and is skipped, so the
    step is velocity Verlet and both O-map momenta are None."""
    half = 0.5 * h
    p += half * F
    q += half * p
    p_pre = p_post = None
    if len(kern.bath_idx):
        a, b = ou
        idx = kern.bath_sel
        p_pre = p[..., idx, :].copy()
        p_post = a * p_pre + b * draws
        p[..., idx, :] = p_post
    q += half * p
    F_new = kern.forces(q)
    p += half * F_new
    return F_new, p_pre, p_post


def _budget_increments(kern: _Kernel, h, draws, p_pre, p_post):
    """(dGamma, dM) for one step from the O-map endpoint momenta and draws."""
    # np.add.reduce is np.sum without its Python-level dispatch: the same
    # arithmetic, at a fraction of the per-call cost on these tiny arrays.
    total = np.add.reduce
    p2 = 0.5 * (total(p_pre * p_pre, axis=-1) + total(p_post * p_post, axis=-1))
    dgamma = h * total(kern.bath_gamma * p2, axis=-1)
    xi_dot_p = total(p_pre * draws, axis=-1)
    xi_sq = total(draws * draws, axis=-1)
    dm = math.sqrt(h) * total(kern.noise_amp * xi_dot_p, axis=-1)
    dm = dm + h * total(kern.noise_power * (xi_sq - kern.n), axis=-1)
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
    p, q = bi.p[0], bi.q[0]  # views; the integrator updates its state in place
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

    def record(step, H, Hc, Hi) -> bool:
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

    def check_guard(step) -> None:
        if not guard(State(p, q)):
            raise ValidityRegionError(step=step, time=step * h)

    on_step = None
    if guard is not None:
        check_guard(0)
        on_step = check_guard
    record(0, *bi.energies())
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
        self.p = np.array(p0, dtype=float)
        self.q = np.array(q0, dtype=float)
        if self.p.ndim != 3 or self.p.shape != self.q.shape:
            raise ValueError("batch states must be (members, vertices, dim)")
        self.m = self.p.shape[0]
        if len(streams) != self.m:
            raise ValueError("need one stream per ensemble member")
        self.streams = list(streams)
        self.ou = _ou_coeffs(self.kern, h)
        self.F = self.kern.forces(self.q)
        self.gamma_acc = np.zeros(self.m)
        self.m_acc = np.zeros(self.m)
        H, _, _ = self.kern.split_energies(self.p, self.q)
        self.H0 = H
        self.h_min = H.copy()
        self.h_max = H.copy()
        self.blown = ~np.isfinite(H)
        self.thresholds = thresholds
        self.first_low = np.full(self.m, -1, dtype=int)
        self.first_high = np.full(self.m, -1, dtype=int)
        self._ceiling = BLOWUP_ENERGY_FACTOR * np.maximum(np.abs(H), 1.0)

    def _draw(self, count: int) -> np.ndarray:
        nb = len(self.kern.bath_idx)
        out = np.empty((count, self.m, nb, self.kern.n))
        for i, stream in enumerate(self.streams):
            out[:, i] = stream.standard_normal((count, nb, self.kern.n))
        return out

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
        """Advance ``n_steps``, firing ``on_record`` at the record stride.

        The callback does not fire for step 0; the initial state is
        inspectable on the instance before calling."""
        H, _, _ = self.kern.split_energies(self.p, self.q)
        self._observe(0, H)

        def fire(step, H, Hc, Hi) -> None:
            on_record(step, step * self.h, H, Hc, Hi, self.p, self.q)

        self._advance(n_steps, record_stride, fire if on_record is not None else None)

    def _advance(self, n_steps: int, record_stride: int, on_record, on_step=None) -> None:
        """The stepping loop behind :meth:`run`, :func:`integrate` and
        :func:`integrate_deterministic`.

        ``on_record(step, H, Hc, Hi)`` fires at the record stride and at the
        last step, after the energies are observed; a true return ends the
        run.  ``on_step(step)``, when given, fires after every step."""
        kern, h, ou = self.kern, self.h, self.ou
        noisy = len(kern.bath_idx) > 0
        done = 0
        # Overflow in a diverging member is reported through ``blown``, not
        # as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < n_steps:
                count = min(NOISE_CHUNK, n_steps - done)
                draws = self._draw(count) if noisy else None
                for k in range(count):
                    step = done + k + 1
                    xi = draws[k] if noisy else None
                    self.F, p_pre, p_post = _step_arrays(kern, self.p, self.q, self.F, h, xi, ou)
                    if noisy:
                        dg, dm = _budget_increments(kern, h, xi, p_pre, p_post)
                        self.gamma_acc += dg
                        self.m_acc += dm
                    if on_step is not None:
                        on_step(step)
                    if step % record_stride == 0 or step == n_steps:
                        H, Hc, Hi = kern.split_energies(self.p, self.q)
                        self._observe(step, H)
                        if on_record is not None and on_record(step, H, Hc, Hi):
                            return
                done += count

    def energies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.kern.split_energies(self.p, self.q)
