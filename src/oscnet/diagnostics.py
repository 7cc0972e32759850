"""Monte Carlo and analytic verification of the model's claimed behavior.

The checks implemented here:

* ``gaussian_stationary_covariance``: for fully quadratic models the SDE is
  linear, so the stationary covariance solves a continuous Lyapunov
  equation; this is the independent oracle for simulated moments.
* ``stationary_moment_test``: long-run averages against the energy-balance
  identity sum_b gamma_b <|p_b|^2> = n sum_b gamma_b T_b and, for quadratic
  models, against the full oracle covariance.
* ``drift_estimate`` / ``drift_scan``: ensemble estimates of
  E exp(theta (H(t*) - H(0))) from one start or several, with event
  classification (energy stayed in band / dipped / spiked) and a fitted
  log-drift slope across the starts' energies.
* ``dissipation_tail`` / ``dissipation_scan``: probability that the
  dissipation integral over one natural time window stays below a
  fraction of the initial energy, from one start or several.
* ``observable_decay_fit``: exponential rate of |E f(z_t) - mu(f)| against
  the slowest eigenvalue pair of the linear drift; for quadratic models
  the burn-in of its reference run also comes from the drift spectrum,
  with no Lyapunov solve.
* ``gibbs_invariance_test``: equal-temperature sanity check that exact
  Boltzmann-Gibbs samples stay stationary under the dynamics.

The energy scans take plain arguments and the exponents of their time
scales from the model's common interaction and pinning degrees: the step
is ``dynamics.scaled_step`` and the window ``dynamics.tau``.

Every ensemble runs through ``_run_members`` (behind ``run_ensemble``),
the one place that assigns members to counter-based streams
(seed, index) and builds the integrator; a check reads its per-record
statistics through the integrator's ``on_record(step, H, Hc, Hi, p, q)``
hook, which sees step 0 (the integrator's first read) and every record.
The energy scans run the starts that share a step size and a step count
as one lockstep batch, each start with its own streams and energy band;
a start's statistics come from its slice of the batch and are the bits
of running it alone.
Accumulators are preallocated per member and reductions run in member
order, so all reports are bit-for-bit reproducible for a given seed.  A
check whose ensemble had a blown-up member raises :class:`BlowupError`
instead of reporting a statistic; only the drift estimate keeps blown
members, at its documented cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import (
    BatchIntegrator,
    State,
    _Kernel,
    _Read,
    hamiltonian,
    scaled_step,
    _scan_degrees,
    tau,
)
from .errors import BlowupError, OracleError
from .model import Model
from .potentials import EvenPower, Quadratic, SoftPower
from .rng import seed_stream

__all__ = [
    "GaussianOracle",
    "gaussian_stationary_covariance",
    "StationaryMomentReport",
    "stationary_moment_test",
    "DriftEstimate",
    "drift_estimate",
    "DriftReport",
    "drift_scan",
    "initial_state_at_energy",
    "initial_state_on_slow_mode",
    "DissipationTailReport",
    "dissipation_tail",
    "dissipation_scan",
    "DecayFitReport",
    "observable_decay_fit",
    "GibbsReport",
    "gibbs_invariance_test",
    "sample_gibbs",
    "resolve_observable",
    "wilson_interval",
]


# ---------------------------------------------------------------------------
# Energy-band events
# ---------------------------------------------------------------------------

def _event_counts(first_low, first_high, blown) -> dict[str, int]:
    """Tally members by their first recorded band exit.

    ``first_low`` and ``first_high`` are each member's first record below
    H0/2 and above 2 H0, -1 when never crossed.  A1: H stayed within
    [H0/2, 2 H0].  A2: H dipped below H0/2 before any spike above 2 H0.
    A3: H spiked first; a tie at the same record and a blown member count
    as A3.
    """
    kept = ~blown
    a1 = int(np.count_nonzero(kept & (first_low < 0) & (first_high < 0)))
    a2 = int(np.count_nonzero(kept & (first_low >= 0) & ((first_high < 0) | (first_low < first_high))))
    return {"A1": a1, "A2": a2, "A3": blown.size - a1 - a2}


# ---------------------------------------------------------------------------
# Gaussian oracle for fully quadratic models
# ---------------------------------------------------------------------------

def _full_stiffness(model: Model) -> np.ndarray:
    """Block stiffness of the quadratic energy in the stacked q vector."""
    n = model.dim
    block = [slice(v * n, (v + 1) * n) for v in model.topology.vertices]
    K = np.zeros((len(block) * n, len(block) * n))
    for v in model.topology.vertices:
        K[block[v], block[v]] += model.pinning[v].matrix
    for e in model.topology.edge_list:
        Ke, a, b = model.interaction[e].matrix, block[e.a], block[e.b]
        K[a, a] += Ke
        K[b, b] += Ke
        K[a, b] -= Ke
        K[b, a] -= Ke
    return K


def _all_quadratic(model: Model) -> bool:
    """True when every pinning and interaction potential is Quadratic."""
    specs = [*model.pinning.values(), *model.interaction.values()]
    return all(isinstance(s, Quadratic) for s in specs)


def _spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part of an eigenvalue of ``A``."""
    return float(np.max(np.linalg.eigvals(A).real))


def _gibbs_position_covariance(K: np.ndarray, temperature: float) -> np.ndarray:
    """T K^{-1}: the Gibbs covariance of positions under the stiffness K."""
    return temperature * np.linalg.inv(K)


@dataclass(frozen=True)
class GaussianOracle:
    """Linear drift, diffusion, and stationary covariance of a quadratic model.

    State layout: the momenta of all vertices (vertex-major, component-minor)
    followed by the positions, i.e. z = (p_0, ..., p_{N-1}, q_0, ..., q_{N-1}).
    """

    drift: np.ndarray
    diffusion: np.ndarray
    sigma_inf: np.ndarray
    stiffness: np.ndarray
    residual: float

    @property
    def spectral_abscissa(self) -> float:
        return _spectral_abscissa(self.drift)

    @property
    def slowest_decay_rate(self) -> float:
        """Decay rate of the slowest second-moment mode (an eigenvalue pair)."""
        return 2.0 * abs(self.spectral_abscissa)

    def gibbs_covariance(self, temperature: float) -> np.ndarray:
        """Boltzmann-Gibbs covariance at a common temperature: T on momenta,
        T K^{-1} on positions, no cross terms."""
        zero = np.zeros_like(self.stiffness)
        return np.block([[temperature * np.eye(len(zero)), zero],
                         [zero, _gibbs_position_covariance(self.stiffness, temperature)]])


def _linear_drift(model: Model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift A, diffusion D and stiffness K of a quadratic model, laid out
    as in :class:`GaussianOracle`; :class:`OracleError` unless A is Hurwitz."""
    if not _all_quadratic(model):
        raise ValueError("this oracle needs every potential to be Quadratic")
    d = model.vertex_count * model.dim
    K = _full_stiffness(model)
    # Friction and noise act on the momenta, one (gamma, T) per vertex.
    g = np.repeat([model.gamma_of(v) for v in model.topology.vertices], model.dim)
    T = np.repeat([model.temperature_of(v) for v in model.topology.vertices], model.dim)
    A = np.block([[-np.diag(g), -K], [np.eye(d), np.zeros((d, d))]])
    D = np.zeros((2 * d, 2 * d))
    D[:d, :d] = np.diag(g * T)
    if _spectral_abscissa(A) >= -1e-12:
        raise OracleError(
            "drift matrix is not Hurwitz: the linear system has no unique "
            "stationary covariance (is the topology controlled and pinned?)"
        )
    return A, D, K


def gaussian_stationary_covariance(model: Model) -> GaussianOracle:
    """Assemble the linear drift and solve A S + S A^T + 2 D = 0 directly."""
    A, D, K = _linear_drift(model)
    from scipy import linalg as sla  # imported here so that the package loads no scipy

    S = sla.solve_continuous_lyapunov(A, -2.0 * D)
    S = 0.5 * (S + S.T)
    residual = float(np.max(np.abs(A @ S + S @ A.T + 2.0 * D)))
    if residual > 1e-10:
        raise OracleError(f"Lyapunov solve residual {residual:.3e} exceeds 1e-10")
    if np.min(np.linalg.eigvalsh(S)) < -1e-10:
        raise OracleError("stationary covariance is not positive semi-definite")
    return GaussianOracle(drift=A, diffusion=D, sigma_inf=S, stiffness=K, residual=residual)


# ---------------------------------------------------------------------------
# Ensemble plumbing
# ---------------------------------------------------------------------------

@dataclass
class EnsembleOutcome:
    """Per-member results of a lockstep ensemble run (member order = stream
    index).  ``gamma`` and ``work`` are ``None`` for a run without the
    energy budget."""

    h_init: np.ndarray
    h_final: np.ndarray
    gamma: np.ndarray | None
    work: np.ndarray | None
    first_low: np.ndarray
    first_high: np.ndarray
    blown: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def members(self, lo: int, hi: int) -> "EnsembleOutcome":
        """The outcome of members ``lo`` to ``hi - 1``, as copies."""
        return EnsembleOutcome(**{name: None if value is None else value[lo:hi].copy()
                                  for name, value in vars(self).items()})


def run_ensemble(
    model: Model,
    p0: np.ndarray,
    q0: np.ndarray,
    h: float,
    n_steps: int,
    seed: int,
    stream_offset: int = 0,
    record_stride: int = 1,
    thresholds: tuple[float, float] | None = None,
    on_record: Callable[..., object] | None = None,
    budget: bool = True,
) -> EnsembleOutcome:
    """Run M independent trajectories; member i draws from stream
    (seed, stream_offset + i).

    ``thresholds=(lo, hi)`` tracks the first record step at which H drops
    below lo resp. exceeds hi; each bound is a number or one value per
    member.  ``on_record(step, H, Hc, Hi, p, q)`` sees the (members,)
    energies and member-major (members, vertices, dim) copies of the
    state at step 0 and then at every record step: each multiple of
    ``record_stride``, and the last step.  Splitting the members over
    several calls with matching ``stream_offset`` gives the same
    per-member results.

    The energy budget (``gamma``, the dissipation integral, and ``work``,
    the injected-work martingale) is added up once per block of steps
    between reads; a check that does not read it passes ``budget=False``
    and gets ``None`` for both, with every other result the same bits.
    """
    keys = [(seed, stream_offset + i) for i in range(len(p0))]
    return _run_members(model, p0, q0, h, n_steps, keys, record_stride, thresholds,
                        on_record, budget)


def _run_members(model, p0, q0, h, n_steps, keys, record_stride=1, thresholds=None,
                 on_record=None, budget=True) -> EnsembleOutcome:
    """:func:`run_ensemble` with member i drawing from stream ``keys[i]``,
    a (seed, index) pair."""
    streams = [seed_stream(seed, index) for seed, index in keys]
    bi = BatchIntegrator(model, p0, q0, h, streams, thresholds=thresholds, budget=budget)
    # Blown members are reported through ``blown``; their overflowing
    # energies and observables raise no numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if on_record is not None:
            on_record(0, *bi.energies, bi.p, bi.q)
        bi.run(n_steps, record_stride=record_stride, on_record=on_record)
    return EnsembleOutcome(
        h_init=bi.H0,
        h_final=bi.energies[0],
        gamma=bi.gamma_acc,
        work=bi.m_acc,
        first_low=bi.first_low,
        first_high=bi.first_high,
        blown=bi.blown,
        p=bi.p,
        q=bi.q,
    )


class _Level(NamedTuple):
    """One start of an energy scan: its members start at ``z0`` and draw
    from the streams ``keys``, and track the energy band ``thresholds``."""

    z0: State
    h: float
    n_steps: int
    keys: list[tuple[int, int]]
    thresholds: tuple[float, float]


def _run_levels(model: Model, levels: Sequence[_Level], record_stride: int) -> list[EnsembleOutcome]:
    """Each level's outcome, with the levels that share ``(h, n_steps)``
    run as one lockstep batch.  A member's path depends only on its start,
    its stream and ``h``, so each level's slice of a batch is the outcome
    of running the level alone."""
    groups: dict[tuple[float, int], list[int]] = {}
    for k, level in enumerate(levels):
        groups.setdefault((level.h, level.n_steps), []).append(k)
    outcomes: list[EnsembleOutcome | None] = [None] * len(levels)
    for (h, n_steps), ks in groups.items():
        group = [levels[k] for k in ks]
        sizes = [len(level.keys) for level in group]
        starts = [_replicas(level.z0, size) for level, size in zip(group, sizes)]
        lo = np.concatenate([np.full(size, level.thresholds[0]) for level, size in zip(group, sizes)])
        hi = np.concatenate([np.full(size, level.thresholds[1]) for level, size in zip(group, sizes)])
        out = _run_members(
            model,
            np.concatenate([p for p, _ in starts]),
            np.concatenate([q for _, q in starts]),
            h,
            n_steps,
            [key for level in group for key in level.keys],
            record_stride=record_stride,
            thresholds=(lo, hi),
        )
        bounds = np.cumsum([0] + sizes).tolist()
        for k, a, b in zip(ks, bounds, bounds[1:]):
            outcomes[k] = out.members(a, b)
    return outcomes


def _require_no_blowup(blown: np.ndarray, n_steps: int, h: float, what: str) -> None:
    """Raise :class:`BlowupError` when any ensemble member blew up."""
    count = int(np.count_nonzero(blown))
    if count:
        raise BlowupError(step=n_steps, time=n_steps * h,
                          detail=f"{count} of {len(blown)} {what} blew up")


def _replicas(z0: State, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``m`` copies of the state ``z0`` as (members, vertices, dim) arrays."""
    return (np.broadcast_to(z0.p, (m,) + z0.p.shape).copy(),
            np.broadcast_to(z0.q, (m,) + z0.q.shape).copy())


def resolve_observable(model: Model, name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Named observables for reports and configs.

    Formats: ``H`` (total energy), ``p2:v`` = |p_v|^2, ``q2:v`` = |q_v|^2,
    ``pq:v`` = p_v . q_v, ``p:v:i`` and ``q:v:i`` single components.
    """
    if name == "H":
        kern = _Kernel(model)
        return lambda p, q: kern.split_energies(p, q)[0]
    kind, *index = name.split(":")
    try:
        index = [int(k) for k in index]
    except ValueError:
        index = None
    if index is not None and all(0 <= k < n for k, n in zip(index, (model.vertex_count, model.dim))):
        if kind in ("p2", "q2", "pq") and len(index) == 1:
            v = index[0]
            if kind == "p2":
                return lambda p, q: np.sum(p[..., v, :] ** 2, axis=-1)
            if kind == "q2":
                return lambda p, q: np.sum(q[..., v, :] ** 2, axis=-1)
            return lambda p, q: np.sum(p[..., v, :] * q[..., v, :], axis=-1)
        if kind in ("p", "q") and len(index) == 2:
            v, i = index
            if kind == "p":
                return lambda p, q: p[..., v, i]
            return lambda p, q: q[..., v, i]
    raise ValueError(
        f"unknown observable {name!r}; use H, p2:v, q2:v, pq:v, p:v:i or q:v:i "
        f"with vertex 0 <= v < {model.vertex_count} and component 0 <= i < {model.dim}"
    )


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    z = 1.96
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# Stationary moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryMomentReport:
    p2_mean: np.ndarray
    p2_se: np.ndarray
    bath_dissipation: float
    bath_dissipation_se: float
    bath_target: float
    balance_ratio: float
    balance_ratio_se: float
    replicas: int
    samples_per_replica: int
    sample_stride_time: float
    burn_in: float
    recorded_samples: int
    lag1_autocorr: float
    effective_samples: int
    second_moment: np.ndarray | None = None
    second_moment_se: np.ndarray | None = None
    oracle_sigma: np.ndarray | None = None
    max_dev_in_se: float | None = None


def stationary_moment_test(
    model: Model,
    burn_in: float,
    n_samples: int,
    h: float,
    seed: int,
    replicas: int = 64,
    sample_stride_time: float = 2.0,
) -> StationaryMomentReport:
    """Long-run time averages of momentum moments across replicas.

    ``n_samples`` is the total number of recorded samples; the run length
    per replica follows from the stride.  Uncertainty comes from the spread
    of per-replica averages, which is honest regardless of within-run
    correlation.  For quadratic models the full stacked-vector second
    moment matrix is compared to the Lyapunov oracle.  Raises
    :class:`BlowupError` when any replica blew up.
    """
    if replicas < 2:
        raise ValueError("need replicas >= 2 for a standard error")
    if n_samples < replicas:
        raise ValueError("need at least one sample per replica")
    N, n = model.vertex_count, model.dim
    per_rep = n_samples // replicas
    stride_steps = max(1, int(round(sample_stride_time / h)))
    burn_steps = int(round(burn_in / h))
    total_steps = burn_steps + per_rep * stride_steps

    try:
        oracle = gaussian_stationary_covariance(model)
    except (ValueError, OracleError):
        oracle = None

    d = 2 * N * n
    sum_p2 = np.zeros((replicas, N))
    sum_zz = np.zeros((replicas, d, d)) if oracle is not None else None
    count = 0
    gammas = np.array([model.gamma_of(v) for v in range(N)])
    # Lag-1 statistics of the bath statistic, for the effective-sample count;
    # all replicas record at the same steps, so they share one lag count.
    lag_prev = None
    lag_sum = np.zeros(replicas)
    lag_sumsq = np.zeros(replicas)
    lag_cross = np.zeros(replicas)

    def on_record(step, H, Hc, Hi, p, q):
        nonlocal count, lag_prev
        if step <= burn_steps:
            return
        p2 = np.sum(p * p, axis=-1)
        sum_p2[:] += p2
        if sum_zz is not None:
            z = np.concatenate([p.reshape(replicas, -1), q.reshape(replicas, -1)], axis=1)
            sum_zz[:] += z[:, :, None] * z[:, None, :]
        count += 1
        stat = p2 @ gammas
        if lag_prev is not None:
            lag_cross[:] += stat * lag_prev
        lag_sum[:] += stat
        lag_sumsq[:] += stat * stat
        lag_prev = stat

    zeros = np.zeros((replicas, N, n))
    out = run_ensemble(model, zeros, zeros, h, total_steps, seed,
                       record_stride=stride_steps, on_record=on_record, budget=False)
    _require_no_blowup(out.blown, total_steps, h, "replicas")

    rep_p2 = sum_p2 / count
    p2_mean = rep_p2.mean(axis=0)
    p2_se = rep_p2.std(axis=0, ddof=1) / math.sqrt(replicas)

    rep_diss = rep_p2 @ gammas
    target = model.noise_work_rate
    diss = float(rep_diss.mean())
    diss_se = float(rep_diss.std(ddof=1) / math.sqrt(replicas))

    second = second_se = osig = max_dev = None
    if oracle is not None:
        rep_zz = sum_zz / count
        second = rep_zz.mean(axis=0)
        second_se = rep_zz.std(axis=0, ddof=1) / math.sqrt(replicas)
        osig = oracle.sigma_inf
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(second - osig) / second_se
        max_dev = float(np.nanmax(dev))

    # Pooled lag-1 autocorrelation of the bath statistic; an AR(1) model of
    # the recorded series gives the effective-sample discount factor.
    n_rec = count * replicas
    total = float(lag_sum.sum())
    mean_stat = total / n_rec
    var_stat = float(lag_sumsq.sum()) / n_rec - mean_stat ** 2
    n_pairs = (count - 1) * replicas
    if var_stat > 0 and n_pairs > 0:
        cov1 = float(lag_cross.sum()) / n_pairs - mean_stat ** 2
        rho1 = max(-0.99, min(0.99, cov1 / var_stat))
    else:
        rho1 = 0.0
    ess = int(n_rec * (1 - rho1) / (1 + rho1)) if rho1 > 0 else n_rec

    return StationaryMomentReport(
        p2_mean=p2_mean,
        p2_se=p2_se,
        bath_dissipation=diss,
        bath_dissipation_se=diss_se,
        bath_target=target,
        balance_ratio=diss / target if target else float("nan"),
        balance_ratio_se=diss_se / target if target else float("nan"),
        replicas=replicas,
        samples_per_replica=count,
        sample_stride_time=stride_steps * h,
        burn_in=burn_steps * h,
        recorded_samples=n_rec,
        lag1_autocorr=rho1,
        effective_samples=ess,
        second_moment=second,
        second_moment_se=second_se,
        oracle_sigma=osig,
        max_dev_in_se=max_dev,
    )


# ---------------------------------------------------------------------------
# Lyapunov drift scans
# ---------------------------------------------------------------------------

def initial_state_at_energy(model: Model, H0: float, mode: str = "interaction") -> State:
    """Deterministic phase point with total energy H0.

    ``interaction`` puts the budget into zero-total-momentum kinetic energy
    (internal energy at least half the total); ``pinning`` displaces all
    vertices rigidly along the first axis until the pinning energy absorbs
    the budget (center-of-mass energy dominant).
    """
    if not (H0 > 0):
        raise ValueError("H0 must be > 0")
    N, n = model.vertex_count, model.dim
    # A read at zero momenta: Hc and Hi are the pinning and interaction
    # energies of the positions in q_read.
    q_read = np.zeros((N, n, 1))
    read = _Read(_Kernel(model), np.zeros((N, n, 1)), q_read)
    _, pin0, int0 = (float(e[0]) for e in read())
    pot0 = pin0 + int0
    if mode == "interaction":
        if H0 <= pot0:
            raise ValueError(f"H0={H0} does not exceed the potential floor {pot0}")
        w = np.arange(N, dtype=float) - (N - 1) / 2.0
        if not np.any(w):
            w = np.ones(N)
        p = np.zeros((N, n))
        s = math.sqrt(2.0 * (H0 - pot0) / float(np.sum(w * w)))
        p[:, 0] = s * w
        state = State(p, np.zeros((N, n)))
    elif mode == "pinning":
        def energy_at(s: float) -> float:
            q_read[:, 0] = s
            return float(read()[1][0]) + int0

        if energy_at(0.0) >= H0:
            raise ValueError(f"H0={H0} does not exceed the potential floor {pot0}")
        hi = 1.0
        while energy_at(hi) < H0:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("could not bracket the pinning displacement")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if energy_at(mid) < H0:
                lo = mid
            else:
                hi = mid
        q = np.zeros((N, n))
        q[:, 0] = 0.5 * (lo + hi)
        state = State(np.zeros((N, n)), q)
    else:
        raise ValueError("mode must be 'interaction' or 'pinning'")
    H, Hc, Hi = hamiltonian(model, state)
    if mode == "interaction" and N > 1 and Hi < H / 2:
        raise ValueError("interaction placement failed to dominate: increase H0")
    if mode == "pinning" and Hc <= H / 2:
        raise ValueError("pinning placement failed to dominate: increase H0")
    return state


def _real_phase(v: np.ndarray) -> np.ndarray:
    """The real part of the eigenvector ``v`` after multiplying it by the
    unit phase that makes its largest-modulus component (the first one on
    ties) real and positive.  An eigenvector is fixed only up to such a
    phase, which LAPACK chooses; this one the vector itself fixes."""
    k = int(np.argmax(np.abs(v)))
    return (v * (np.conj(v[k]) / abs(v[k]))).real


def initial_state_on_slow_mode(model: Model, scale: float) -> State:
    """Phase point at distance ``scale`` from the origin along the slowest
    mode of the linear drift: the real part of the eigenvector of its
    rightmost eigenvalue, in the phase :func:`_real_phase` fixes.  Raises
    ValueError when the model has no such mode (it is not fully Quadratic,
    or its drift is not Hurwitz)."""
    try:
        drift, _, _ = _linear_drift(model)
    except (ValueError, OracleError) as exc:
        raise ValueError(f"no slow-mode start for this model: {exc}") from exc
    evals, evecs = np.linalg.eig(drift)
    v = _real_phase(evecs[:, int(np.argmax(evals.real))])
    v = scale * (v / np.linalg.norm(v))
    p, q = v.reshape(2, model.vertex_count, model.dim)
    return State(p, q)


@dataclass(frozen=True)
class DriftEstimate:
    """Ensemble estimate of E exp(theta (H(t*) - H(0))) from one start."""

    H0: float
    mean: float
    se: float
    ci95: tuple[float, float]
    n: int
    events: dict[str, int]
    blowups: int
    mean_gamma: float
    h: float

    @property
    def excludes_one(self) -> bool:
        return self.ci95[1] < 1.0


def drift_estimate(
    model: Model,
    z0: State,
    theta: float,
    t_star: float,
    ensemble: int,
    seed: int,
    stream_offset: int = 0,
    h0: float = 1e-3,
) -> DriftEstimate:
    """Monte Carlo mean of exp(theta dH) over the window t_star, from
    ``ensemble`` members started at ``z0``, member i on the stream
    (seed, stream_offset + i), with the step ``scaled_step(model, h0,
    max(H0, 1))``.  Raises ValueError unless theta > 0, t_star > 0,
    ensemble >= 100, theta * T_max < 1, H0 > 0 and the model has common
    degrees >= 2.

    Blown-up members are not dropped: they contribute the cap value
    exp(theta * 2 H0), which biases the estimate upward (conservative),
    and makes the mean infinite when the cap is past the float range.
    Event tallies classify every member by its first band exit, recorded
    every 10 steps.
    """
    return _drift_levels(model, [z0], theta, t_star, ensemble, seed, [stream_offset], h0)[0]


def _drift_levels(model: Model, starts: Sequence[State], theta: float, t_star: float,
                  ensemble: int, seed: int, offsets: Sequence[int],
                  h0: float) -> list[DriftEstimate]:
    """:func:`drift_estimate` from each start, start k on the streams from
    ``offsets[k]`` on, as :func:`_run_levels` batches them."""
    _scan_degrees(model)
    if not (theta > 0 and t_star > 0 and ensemble >= 100):
        raise ValueError(f"need theta > 0, t_star > 0 and ensemble >= 100; "
                         f"got {theta}, {t_star}, {ensemble}")
    tmax = model.t_max
    if tmax > 0 and not (theta * tmax < 1):
        raise ValueError(f"theta*T_max must be < 1 (theta={theta}, T_max={tmax})")
    levels, energies = [], []
    for z0, offset in zip(starts, offsets):
        H0, _, _ = hamiltonian(model, z0)
        if not (H0 > 0):
            raise ValueError(f"start energy must be > 0, got {H0}")
        h = scaled_step(model, h0, max(H0, 1.0))
        n_steps = max(1, int(round(t_star / h)))
        keys = [(seed, offset + i) for i in range(ensemble)]
        levels.append(_Level(z0, h, n_steps, keys, (H0 / 2.0, 2.0 * H0)))
        energies.append(H0)
    estimates = []
    for H0, level, out in zip(energies, levels, _run_levels(model, levels, record_stride=10)):
        # Blown members weigh the cap; an infinite cap gives an infinite
        # mean and a NaN interval, never a qualifying level.
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.exp(theta * (out.h_final - H0))
            if out.blown.any():
                try:
                    cap = math.exp(theta * 2.0 * H0)
                except OverflowError:
                    cap = math.inf
                weights[out.blown] = cap
            mean = float(np.mean(weights))
            se = float(np.std(weights, ddof=1) / math.sqrt(ensemble))
        estimates.append(DriftEstimate(
            H0=float(H0),
            mean=mean,
            se=se,
            ci95=(mean - 1.96 * se, mean + 1.96 * se),
            n=ensemble,
            events=_event_counts(out.first_low, out.first_high, out.blown),
            blowups=int(np.sum(out.blown)),
            mean_gamma=float(np.mean(out.gamma)),
            h=level.h,
        ))
    return estimates


@dataclass(frozen=True)
class DriftReport:
    """Drift estimates across an energy grid plus the fitted log-drift slope."""

    levels: tuple[DriftEstimate, ...]
    slope: float | None
    intercept: float | None
    r_squared: float | None
    c1_hat: float | None
    qualifying: int
    inconclusive: bool
    exploratory_exponent: float | None
    theta: float
    t_star: float


def drift_scan(
    model: Model,
    starts: Sequence[State],
    theta: float,
    t_star: float,
    ensemble: int,
    seed: int,
    h0: float = 1e-3,
) -> DriftReport:
    """:func:`drift_estimate` from each start, start k on the streams
    (seed, k * ensemble + i), and a least-squares fit of log(mean) against
    H0 over the levels whose interval excludes one.

    Starts whose energy-scaled steps come to the same step size and step
    count run as one lockstep batch; every level is the estimate of its
    start run alone.  The exploratory double-log exponent (slope of
    log(-log mean) vs log H0) is reported without any acceptance gate;
    separating exponent families needs energy ranges beyond desk scale.
    """
    offsets = [k * ensemble for k in range(len(starts))]
    levels = _drift_levels(model, starts, theta, t_star, ensemble, seed, offsets, h0)
    qualifying = [lv for lv in levels if lv.excludes_one and lv.mean > 0]
    slope = intercept = r2 = c1_hat = None
    inconclusive = len(qualifying) < 3
    if not inconclusive:
        x = np.array([lv.H0 for lv in qualifying])
        y = np.log(np.array([lv.mean for lv in qualifying]))
        slope, intercept, r2 = _linear_fit(x, y)
        c1_hat = -slope
    expo = None
    neg = [lv for lv in levels if 0 < lv.mean < 1]
    if len(neg) >= 3:
        x = np.log(np.array([lv.H0 for lv in neg]))
        y = np.log(-np.log(np.array([lv.mean for lv in neg])))
        expo, _, _ = _linear_fit(x, y)
    return DriftReport(
        levels=tuple(levels),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        c1_hat=c1_hat,
        qualifying=len(qualifying),
        inconclusive=inconclusive,
        exploratory_exponent=expo,
        theta=theta,
        t_star=t_star,
    )


# ---------------------------------------------------------------------------
# Dissipation-rate tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationTailReport:
    probability: float
    ci95: tuple[float, float]
    n: int
    tau_window: float
    threshold: float
    epsilon: float
    H0: float
    contained: int
    starved: int


def dissipation_tail(
    model: Model,
    z0: State,
    lam: float,
    epsilon: float,
    ensemble: int,
    seed: int,
    h0: float = 1e-3,
) -> DissipationTailReport:
    """Empirical P( {H stays <= 4 H0 on the window} and
    {Gamma(tau) < eps * H0 * tau} ) over the natural window
    tau = ``tau(model, lam, H0, Hc0, Hi0)`` of ``z0``, whose exponents are
    the model's degrees, with ``ensemble`` members on the streams
    (seed, i) and the step ``scaled_step(model, h0, max(H0, 1))``; H is
    checked every 5 steps.  Raises ValueError unless lam > 0, epsilon > 0,
    H0 > 0 and the model has common degrees >= 2.  The one-start case of
    :func:`dissipation_scan`."""
    return dissipation_scan(model, [z0], lam, epsilon, ensemble, seed, h0)[0]


def dissipation_scan(
    model: Model,
    starts: Sequence[State],
    lam: float,
    epsilon: float,
    ensemble: int,
    seed: int,
    h0: float = 1e-3,
) -> list[DissipationTailReport]:
    """:func:`dissipation_tail` from each start, start k on the streams
    (seed + k, i).

    Starts whose windows come to the same step size and step count run as
    one lockstep batch; every report is the one of its start run alone.
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be > 0")
    levels, windows = [], []
    for k, z0 in enumerate(starts):
        H0, Hc0, Hi0 = hamiltonian(model, z0)
        window = tau(model, lam, H0, Hc0, Hi0)
        h = scaled_step(model, h0, max(H0, 1.0))
        n_steps = max(1, int(round(window / h)))
        keys = [(seed + k, i) for i in range(ensemble)]
        levels.append(_Level(z0, h, n_steps, keys, (-np.inf, 4.0 * H0)))
        windows.append((H0, window))
    reports = []
    for (H0, window), out in zip(windows, _run_levels(model, levels, record_stride=5)):
        contained = (out.first_high < 0) & ~out.blown
        threshold = epsilon * H0 * window
        starved = out.gamma < threshold
        hits = int(np.sum(contained & starved))
        reports.append(DissipationTailReport(
            probability=hits / ensemble,
            ci95=wilson_interval(hits, ensemble),
            n=ensemble,
            tau_window=window,
            threshold=threshold,
            epsilon=epsilon,
            H0=float(H0),
            contained=int(np.sum(contained)),
            starved=int(np.sum(starved)),
        ))
    return reports


# ---------------------------------------------------------------------------
# Observable decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFitReport:
    rate: float | None
    times: np.ndarray
    curve: np.ndarray
    noise: np.ndarray
    fit_mask: np.ndarray
    mu_hat: float
    mu_se: float
    inconclusive: bool
    fit_points: int
    # Twice the oracle's spectral abscissa; None without a Gaussian oracle.
    oracle_slowest_rate: float | None = None

    def as_dict(self) -> dict:
        doc = {
            "rate": self.rate,
            "mu_hat": self.mu_hat,
            "mu_se": self.mu_se,
            "inconclusive": self.inconclusive,
            "fit_points": self.fit_points,
        }
        if self.oracle_slowest_rate is not None:
            doc["oracle_slowest_rate"] = self.oracle_slowest_rate
        return doc

    def curve_rows(self) -> list[tuple[float, float, float, bool]]:
        return [
            (float(t), float(c), float(s), bool(m))
            for t, c, s, m in zip(self.times, self.curve, self.noise, self.fit_mask)
        ]


def observable_decay_fit(
    model: Model,
    observable,
    z0: State,
    horizon: float,
    ensemble: int,
    seed: int,
    h: float = 5e-3,
    grid_points: int = 100,
    stationary_samples: int = 20000,
) -> DecayFitReport:
    """Fit an exponential rate to |E f(z_t) - mu(f)| on a time grid.

    The curve is sampled at step 0, every ``n_steps // grid_points``
    steps, and the last step.  The stationary reference mu(f) is a
    long-run time average after a burn-in of ten slowest timescales
    1/|a|, with a the spectral abscissa of the linear drift (quadratic
    models with a Hurwitz drift, which also report ``oracle_slowest_rate``
    = 2|a|), or a fixed default of 50 time units.  The rate is
    fitted on the leading grid window where the (smoothed) signal exceeds
    three times the Monte Carlo noise; fewer than five such points marks
    the report inconclusive.  Raises :class:`BlowupError` when a member of
    either run blew up.
    """
    if ensemble < 2:
        raise ValueError("need ensemble >= 2 for a standard error")
    fn = resolve_observable(model, observable) if isinstance(observable, str) else observable

    # Stationary reference: a handful of long runs on dedicated streams
    # (indices above the ensemble members), averaged after burn-in.
    try:
        abscissa = _spectral_abscissa(_linear_drift(model)[0])
        burn = 10.0 / max(abs(abscissa), 1e-6)
        slowest = 2.0 * abs(abscissa)
    except (ValueError, OracleError):
        burn = 50.0
        slowest = None
    n_ref = 8
    stride_time = 0.5
    stride_steps = max(1, int(round(stride_time / h)))
    burn_steps = int(round(burn / h))
    per_ref = max(1, stationary_samples // n_ref)
    long_steps = burn_steps + per_ref * stride_steps
    ref_sum = np.zeros(n_ref)
    ref_cnt = 0

    def collect(step, H, Hc, Hi, p, q):
        nonlocal ref_cnt
        if step > burn_steps:
            ref_sum[:] += fn(p, q)
            ref_cnt += 1

    ref = run_ensemble(
        model,
        *_replicas(z0, n_ref),
        h,
        long_steps,
        seed,
        stream_offset=ensemble,
        record_stride=stride_steps,
        on_record=collect,
        budget=False,
    )
    _require_no_blowup(ref.blown, long_steps, h, "reference runs")
    ref_means = ref_sum / max(ref_cnt, 1)
    mu_hat = float(np.mean(ref_means))
    # Spread across independent replicas respects autocorrelation.
    mu_se = float(np.std(ref_means, ddof=1) / math.sqrt(n_ref))

    n_steps = max(1, int(round(horizon / h)))
    stride = max(1, n_steps // grid_points)
    steps, values = [], []

    def sample(step, H, Hc, Hi, p, q):
        steps.append(step)
        values.append(np.array(fn(p, q), dtype=float))

    out = run_ensemble(
        model,
        *_replicas(z0, ensemble),
        h,
        n_steps,
        seed,
        record_stride=stride,
        on_record=sample,
        budget=False,
    )
    _require_no_blowup(out.blown, n_steps, h, "members")
    f_series = np.array(values)
    mean_t = f_series.mean(axis=1)
    se_t = f_series.std(axis=1, ddof=1) / math.sqrt(ensemble)
    curve = np.abs(mean_t - mu_hat)
    noise = np.sqrt(se_t ** 2 + mu_se ** 2)
    times = h * np.array(steps, dtype=float)

    # A centered moving average over ~2 time units suppresses the
    # oscillatory factor of the decay (the envelope slope is unbiased:
    # averaging e^{-ct} over a fixed window only rescales it).
    span = max(1, int(round(2.0 / float(times[1] - times[0])))) if len(times) > 1 else 1
    sm, t_sm, n_sm = (np.convolve(x, np.ones(span) / span, mode="valid") if span > 1 else x
                      for x in (curve, times, noise))

    # Fit on the contiguous leading window where the signal clears the
    # noise; once the smoothed curve first dips under 3x noise the rest is
    # dominated by the |.| folding bias and the reference offset.
    above = sm > 3.0 * n_sm
    fit_points = len(above) if above.all() else int(np.argmin(above))
    rate = None
    raw_mask = np.zeros(len(times), dtype=bool)
    inconclusive = fit_points < 5
    if not inconclusive:
        slope, _, _ = _linear_fit(t_sm[:fit_points], np.log(sm[:fit_points]))
        rate = -slope
        raw_mask = (times >= t_sm[0]) & (times <= t_sm[fit_points - 1])
        if rate <= 0:
            inconclusive = True
            rate = None
    return DecayFitReport(
        rate=rate,
        times=times,
        curve=curve,
        noise=noise,
        fit_mask=raw_mask,
        mu_hat=mu_hat,
        mu_se=mu_se,
        inconclusive=inconclusive,
        fit_points=fit_points,
        oracle_slowest_rate=slowest,
    )


# ---------------------------------------------------------------------------
# Gibbs sampling and the equal-temperature invariance test
# ---------------------------------------------------------------------------

def _rejection_sample(spec, temperature: float, count: int, rng) -> np.ndarray:
    """Draw from exp(-U(x)/T) dx by rejection under a Gaussian envelope.

    SoftPower uses the origin-matched envelope (valid since
    (1+s)^(r/2) >= 1 + r s / 2); EvenPower uses a scale-matched envelope
    with the analytic envelope constant.  Aborts if the acceptance rate
    falls below the documented 1% floor.
    """
    n = spec.dim
    T = temperature
    if isinstance(spec, Quadratic):
        L = np.linalg.cholesky(_gibbs_position_covariance(spec.matrix, T))
        return rng.standard_normal((count, n)) @ L.T
    if isinstance(spec, SoftPower):
        r = spec.degree
        sigma2 = T / r

        def log_accept(x):
            s = np.sum(x * x, axis=-1)
            return -(spec.value(x) - 1.0 - 0.5 * r * s) / T
    else:  # EvenPower: sample_gibbs admits no other family
        r = float(spec.degree)
        sigma2 = T ** (2.0 / r)
        # c = sup exp(s/(2 sigma^2) - s^(r/2)/T) over s >= 0.
        if r > 2:
            s_star = (T / (r * sigma2)) ** (2.0 / (r - 2.0))
            log_c = s_star / (2 * sigma2) - s_star ** (r / 2.0) / T
        else:
            log_c = 0.0

        def log_accept(x):
            s = np.sum(x * x, axis=-1)
            return -(s ** (r / 2.0)) / T + s / (2 * sigma2) - log_c

    out = np.empty((count, n))
    filled = 0
    attempts = 0
    while filled < count:
        batch = max(1000, 2 * (count - filled))
        x = math.sqrt(sigma2) * rng.standard_normal((batch, n))
        u = rng.random(batch)
        keep = np.log(u) < log_accept(x)
        attempts += batch
        take = min(int(np.sum(keep)), count - filled)
        out[filled:filled + take] = x[keep][:take]
        filled += take
        if attempts > 200 * count and filled / max(attempts, 1) < 0.01:
            raise ValueError(
                "rejection sampler acceptance rate below the 1% floor; "
                "choose a different model or temperature"
            )
    return out


def sample_gibbs(model: Model, temperature: float, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Exact Boltzmann-Gibbs phase-space samples at a common temperature.

    Supported: fully Quadratic models (joint Gaussian in q), and
    interaction-free models with SoftPower/EvenPower/Quadratic pinning
    (per-vertex rejection sampling).  Anything else raises with the list
    of supported forms.
    """
    quadratic = _all_quadratic(model)
    if not quadratic and (model.topology.edges or not all(
            isinstance(s, (SoftPower, EvenPower, Quadratic)) for s in model.pinning.values())):
        raise ValueError(
            "Gibbs sampling supports fully Quadratic models or interaction-free "
            "models with SoftPower/EvenPower/Quadratic pinning"
        )
    N, n = model.vertex_count, model.dim
    T = float(temperature)
    p = math.sqrt(T) * rng.standard_normal((count, N, n))
    if quadratic:
        K = _full_stiffness(model)
        if np.min(np.linalg.eigvalsh(K)) <= 1e-12:
            raise ValueError("stiffness is singular; the Gibbs measure is not normalizable")
        cov = _gibbs_position_covariance(K, T)
        L = np.linalg.cholesky(0.5 * (cov + cov.T))
        q = (rng.standard_normal((count, N * n)) @ L.T).reshape(count, N, n)
    else:
        q = np.empty((count, N, n))
        for v in range(N):
            q[:, v, :] = _rejection_sample(model.pinning[v], T, count, rng)
    return p, q


@dataclass(frozen=True)
class GibbsReport:
    z_scores: dict[str, float]
    mean_before: dict[str, float]
    mean_after: dict[str, float]
    se: dict[str, float]
    n: int
    t_check: float
    sample_temperature: float

    @property
    def max_abs_z(self) -> float:
        return max(abs(v) for v in self.z_scores.values())


def gibbs_invariance_test(
    model: Model,
    observables: Sequence[str],
    n_samples: int,
    t_check: float,
    seed: int,
    h: float = 5e-3,
    sample_temperature: float | None = None,
) -> GibbsReport:
    """Start from exact Gibbs samples, evolve, and compare observable means.

    The z-scores are paired (same member before/after).  When bath
    temperatures are all equal the sampling temperature defaults to that
    value and the scores should be statistically flat; passing an explicit
    ``sample_temperature`` to a model with unequal baths measures the
    drift away from a wrong-temperature start.  Raises
    :class:`BlowupError` when any member blew up or a mean or standard
    error is not finite; a failed run never reports a score.
    """
    temps = sorted({b.temperature for b in model.baths.values()})
    if sample_temperature is None:
        if len(temps) != 1:
            raise ValueError(
                "bath temperatures differ; pass sample_temperature explicitly"
            )
        sample_temperature = temps[0]
    fns = {name: resolve_observable(model, name) for name in observables}

    rng = seed_stream(seed, n_samples)  # sampling stream, disjoint from members
    p0, q0 = sample_gibbs(model, sample_temperature, n_samples, rng)
    before = {name: fn(p0, q0) for name, fn in fns.items()}
    n_steps = max(1, int(round(t_check / h)))
    out = run_ensemble(model, p0, q0, h, n_steps, seed, record_stride=n_steps, budget=False)
    _require_no_blowup(out.blown, n_steps, h, "members")
    after = {name: fn(out.p, out.q) for name, fn in fns.items()}

    z_scores, m0, m1, ses = {}, {}, {}, {}
    for name in fns:
        diff = after[name] - before[name]
        mean_diff = float(np.mean(diff))
        se = float(np.std(diff, ddof=1) / math.sqrt(n_samples))
        m0[name] = float(np.mean(before[name]))
        m1[name] = float(np.mean(after[name]))
        if not all(math.isfinite(v) for v in (mean_diff, se, m0[name], m1[name])):
            raise BlowupError(step=n_steps, time=n_steps * h,
                              detail=f"observable {name!r} has a non-finite mean or standard error")
        z_scores[name] = mean_diff / se if se > 0 else 0.0
        ses[name] = se
    return GibbsReport(
        z_scores=z_scores,
        mean_before=m0,
        mean_after=m1,
        se=ses,
        n=n_samples,
        t_check=n_steps * h,
        sample_temperature=float(sample_temperature),
    )
