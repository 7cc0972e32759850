"""Monte Carlo and analytic verification of the model's claimed behavior.

The checks implemented here:

* ``gaussian_stationary_covariance``: for fully quadratic models the SDE is
  linear, so the stationary covariance solves a continuous Lyapunov
  equation; this is the independent oracle for simulated moments.
* ``stationary_moment_test``: long-run averages against the energy-balance
  identity sum_b gamma_b <|p_b|^2> = n sum_b gamma_b T_b and, for quadratic
  models, against the full oracle covariance.
* ``drift_estimate`` / ``drift_scan``: ensemble estimates of
  E exp(theta (H(t*) - H(0))) from prescribed-energy starts, with event
  classification (energy stayed in band / dipped / spiked) and a fitted
  log-drift slope across an energy grid.
* ``dissipation_tail``: probability that the dissipation integral over one
  natural time window stays below a fraction of the initial energy.
* ``observable_decay_fit``: exponential rate of |E f(z_t) - mu(f)| against
  the slowest oracle eigenvalue pair.
* ``gibbs_invariance_test``: equal-temperature sanity check that exact
  Boltzmann-Gibbs samples stay stationary under the dynamics.

Every ensemble member draws from its own counter-based stream
(seed, index), accumulators are preallocated per member, and reductions run
in member order, so all reports are bit-for-bit reproducible for a given
seed.  A check whose ensemble had a blown-up member raises
:class:`BlowupError` instead of reporting a statistic; only the drift
estimate keeps blown members, at its documented cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import linalg as sla

from .dynamics import (
    BatchIntegrator,
    State,
    TimescaleRule,
    Trace,
    _Kernel,
    hamiltonian,
    scaled_step,
    tau,
)
from .errors import BlowupError, OracleError
from .model import Model
from .potentials import EvenPower, Quadratic, SoftPower
from .rng import seed_stream

__all__ = [
    "EventClass",
    "classify_event",
    "GaussianOracle",
    "gaussian_stationary_covariance",
    "StationaryMomentReport",
    "stationary_moment_test",
    "DriftConfig",
    "DriftEstimate",
    "drift_estimate",
    "DriftReport",
    "drift_scan",
    "initial_state_at_energy",
    "DissipationTailReport",
    "dissipation_tail",
    "DecayFitReport",
    "observable_decay_fit",
    "GibbsReport",
    "gibbs_invariance_test",
    "sample_gibbs",
    "resolve_observable",
    "wilson_interval",
]


# ---------------------------------------------------------------------------
# Event classification
# ---------------------------------------------------------------------------

class EventClass(enum.Enum):
    """Energy-band classification of one trajectory over a fixed window."""

    A1 = "A1"  # H stayed within [H0/2, 2 H0]
    A2 = "A2"  # H dipped below H0/2 before any spike above 2 H0
    A3 = "A3"  # H spiked above 2 H0 first


def classify_event(trace: Trace, H0: float) -> EventClass:
    """Classify a recorded trajectory by its first band exit.

    The band thresholds can in principle both be crossed between samples;
    classification is by first recorded crossing, ties go to A3.
    """
    H = np.asarray(trace.H, dtype=float)
    if H.size == 0:
        raise ValueError("empty trace")
    low = np.nonzero(H < H0 / 2)[0]
    high = np.nonzero(H > 2 * H0)[0]
    i_low = int(low[0]) if low.size else -1
    i_high = int(high[0]) if high.size else -1
    return _classify_from_crossings(i_low, i_high)


def _classify_from_crossings(i_low: int, i_high: int) -> EventClass:
    if i_low < 0 and i_high < 0:
        return EventClass.A1
    if i_high < 0:
        return EventClass.A2
    if i_low < 0:
        return EventClass.A3
    return EventClass.A2 if i_low < i_high else EventClass.A3


# ---------------------------------------------------------------------------
# Gaussian oracle for fully quadratic models
# ---------------------------------------------------------------------------

def _full_stiffness(model: Model) -> np.ndarray:
    """Block stiffness of the quadratic energy in the stacked q vector."""
    N, n = model.vertex_count, model.dim
    K = np.zeros((N * n, N * n))
    for v in model.topology.vertices:
        spec = model.pinning[v]
        K[v * n:(v + 1) * n, v * n:(v + 1) * n] += spec.matrix
    for e in model.topology.edge_list:
        Ke = model.interaction[e].matrix
        a, b = e.a, e.b
        K[a * n:(a + 1) * n, a * n:(a + 1) * n] += Ke
        K[b * n:(b + 1) * n, b * n:(b + 1) * n] += Ke
        K[a * n:(a + 1) * n, b * n:(b + 1) * n] -= Ke
        K[b * n:(b + 1) * n, a * n:(a + 1) * n] -= Ke
    return K


def _require_quadratic(model: Model) -> None:
    specs = list(model.pinning.values()) + list(model.interaction.values())
    if not all(isinstance(s, Quadratic) for s in specs):
        raise ValueError("this oracle needs every potential to be Quadratic")


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
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.drift)

    @property
    def spectral_abscissa(self) -> float:
        return float(np.max(self.eigenvalues.real))

    @property
    def slowest_decay_rate(self) -> float:
        """Decay rate of the slowest second-moment mode (an eigenvalue pair)."""
        return 2.0 * abs(self.spectral_abscissa)

    def gibbs_covariance(self, temperature: float) -> np.ndarray:
        """Boltzmann-Gibbs covariance at a common temperature: T on momenta,
        T K^{-1} on positions, no cross terms."""
        half = self.stiffness.shape[0]
        out = np.zeros_like(self.sigma_inf)
        out[:half, :half] = temperature * np.eye(half)
        out[half:, half:] = temperature * np.linalg.inv(self.stiffness)
        return out


def gaussian_stationary_covariance(model: Model) -> GaussianOracle:
    """Assemble the linear drift and solve A S + S A^T + 2 D = 0 directly."""
    _require_quadratic(model)
    N, n = model.vertex_count, model.dim
    d = N * n
    K = _full_stiffness(model)
    G = np.zeros((d, d))
    D = np.zeros((2 * d, 2 * d))
    for v in model.topology.vertices:
        g = model.gamma_of(v)
        T = model.temperature_of(v)
        sl = slice(v * n, (v + 1) * n)
        G[sl, sl] = g * np.eye(n)
        D[v * n:(v + 1) * n, v * n:(v + 1) * n] = g * T * np.eye(n)
    A = np.zeros((2 * d, 2 * d))
    A[:d, :d] = -G
    A[:d, d:] = -K
    A[d:, :d] = np.eye(d)
    if np.max(np.linalg.eigvals(A).real) >= -1e-12:
        raise OracleError(
            "drift matrix is not Hurwitz: the linear system has no unique "
            "stationary covariance (is the topology controlled and pinned?)"
        )
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

def _record_steps(n_steps: int, stride: int) -> list[int]:
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


@dataclass
class EnsembleOutcome:
    """Per-member results of a lockstep ensemble run (member order = stream index)."""

    h_init: np.ndarray
    h_final: np.ndarray
    gamma: np.ndarray
    work: np.ndarray
    h_min: np.ndarray
    h_max: np.ndarray
    first_low: np.ndarray
    first_high: np.ndarray
    blown: np.ndarray
    p: np.ndarray
    q: np.ndarray
    record_times: np.ndarray
    series: dict[str, np.ndarray] = field(default_factory=dict)


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
    per_record: Mapping[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] | None = None,
) -> EnsembleOutcome:
    """Run M independent trajectories; member i draws from stream
    (seed, stream_offset + i).

    ``thresholds=(lo, hi)`` tracks the first record step at which H drops
    below lo resp. exceeds hi.  ``per_record`` maps series names to
    functions (p, q) -> (members,) sampled on the record grid.  Splitting
    the members over several calls with matching ``stream_offset`` gives
    the same per-member results.
    """
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    m = p0.shape[0]
    steps = _record_steps(n_steps, record_stride)
    step_pos = {s: i for i, s in enumerate(steps)}
    per_record = per_record or {}
    series = {name: np.zeros((len(steps), m)) for name in per_record}
    th = None
    if thresholds is not None:
        lo, hi = thresholds
        th = (np.full(m, lo), np.full(m, hi))
    streams = [seed_stream(seed, stream_offset + i) for i in range(m)]
    bi = BatchIntegrator(model, p0, q0, h, streams, thresholds=th)

    def sample(k, p, q):
        for name, fn in per_record.items():
            series[name][k] = fn(p, q)

    def on_record(step, t, H, Hc, Hi, p, q):
        if step in step_pos:
            sample(step_pos[step], p, q)

    # Blown members are reported through ``blown``; their overflowing
    # energies and observables raise no numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        sample(0, bi.p, bi.q)
        bi.run(n_steps, record_stride=record_stride, on_record=on_record)
        h_final, _, _ = bi.energies()
    return EnsembleOutcome(
        h_init=bi.H0,
        h_final=h_final,
        gamma=bi.gamma_acc,
        work=bi.m_acc,
        h_min=bi.h_min,
        h_max=bi.h_max,
        first_low=bi.first_low,
        first_high=bi.first_high,
        blown=bi.blown,
        p=bi.p,
        q=bi.q,
        record_times=h * np.array(steps, dtype=float),
        series=series,
    )


def _require_no_blowup(blown: np.ndarray, n_steps: int, h: float, what: str) -> None:
    """Raise :class:`BlowupError` when any ensemble member blew up."""
    count = int(np.count_nonzero(blown))
    if count:
        raise BlowupError(step=n_steps, time=n_steps * h,
                          detail=f"{count} of {len(blown)} {what} blew up")


def resolve_observable(model: Model, name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Named observables for reports and configs.

    Formats: ``H`` (total energy), ``p2:v`` = |p_v|^2, ``q2:v`` = |q_v|^2,
    ``pq:v`` = p_v . q_v, ``p:v:i`` and ``q:v:i`` single components.
    """
    kern = _Kernel(model)
    if name == "H":
        return lambda p, q: kern.split_energies(p, q)[0]
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind in ("p2", "q2", "pq") and len(parts) == 2:
            v = int(parts[1])
            if kind == "p2":
                return lambda p, q: np.sum(p[..., v, :] ** 2, axis=-1)
            if kind == "q2":
                return lambda p, q: np.sum(q[..., v, :] ** 2, axis=-1)
            return lambda p, q: np.sum(p[..., v, :] * q[..., v, :], axis=-1)
        if kind in ("p", "q") and len(parts) == 3:
            v, i = int(parts[1]), int(parts[2])
            if kind == "p":
                return lambda p, q: p[..., v, i]
            return lambda p, q: q[..., v, i]
    except ValueError:
        pass
    raise ValueError(
        f"unknown observable {name!r}; use H, p2:v, q2:v, pq:v, p:v:i or q:v:i"
    )


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
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

    def as_dict(self) -> dict:
        d = {
            "p2_mean": [float(v) for v in self.p2_mean],
            "p2_se": [float(v) for v in self.p2_se],
            "bath_dissipation": self.bath_dissipation,
            "bath_dissipation_se": self.bath_dissipation_se,
            "bath_target": self.bath_target,
            "balance_ratio": self.balance_ratio,
            "balance_ratio_se": self.balance_ratio_se,
            "replicas": self.replicas,
            "samples_per_replica": self.samples_per_replica,
            "sample_stride_time": self.sample_stride_time,
            "burn_in": self.burn_in,
            "recorded_samples": self.recorded_samples,
            "lag1_autocorr": self.lag1_autocorr,
            "effective_samples": self.effective_samples,
        }
        if self.max_dev_in_se is not None:
            d["max_dev_in_se"] = self.max_dev_in_se
        return d


def stationary_moment_test(
    model: Model,
    burn_in: float,
    n_samples: int,
    h: float,
    seed: int,
    replicas: int = 64,
    sample_stride_time: float = 2.0,
    compare_oracle: bool | None = None,
) -> StationaryMomentReport:
    """Long-run time averages of momentum moments across replicas.

    ``n_samples`` is the total number of recorded samples; the run length
    per replica follows from the stride.  Uncertainty comes from the spread
    of per-replica averages, which is honest regardless of within-run
    correlation.  For quadratic models the full stacked-vector second
    moment matrix is compared to the Lyapunov oracle.  Raises
    :class:`BlowupError` when any replica blew up.
    """
    if n_samples < replicas:
        raise ValueError("need at least one sample per replica")
    N, n = model.vertex_count, model.dim
    per_rep = n_samples // replicas
    stride_steps = max(1, int(round(sample_stride_time / h)))
    burn_steps = int(round(burn_in / h))
    total_steps = burn_steps + per_rep * stride_steps

    if compare_oracle is None:
        try:
            oracle = gaussian_stationary_covariance(model)
        except (ValueError, OracleError):
            oracle = None
    else:
        oracle = gaussian_stationary_covariance(model) if compare_oracle else None

    d = 2 * N * n
    sum_p2 = np.zeros((replicas, N))
    sum_zz = np.zeros((replicas, d, d)) if oracle is not None else None
    counts = np.zeros(replicas, dtype=int)
    gammas = np.array([model.gamma_of(v) for v in range(N)])
    # Lag-1 statistics of the bath statistic, for the effective-sample count.
    lag_prev = np.full(replicas, np.nan)
    lag_sum = np.zeros(replicas)
    lag_sumsq = np.zeros(replicas)
    lag_cross = np.zeros(replicas)
    lag_n = np.zeros(replicas, dtype=int)

    streams = [seed_stream(seed, i) for i in range(replicas)]
    bi = BatchIntegrator(model, np.zeros((replicas, N, n)), np.zeros((replicas, N, n)), h, streams)

    def on_record(step, t, H, Hc, Hi, p, q):
        if step <= burn_steps:
            return
        p2 = np.sum(p * p, axis=-1)
        sum_p2[:] += p2
        if sum_zz is not None:
            z = np.concatenate([p.reshape(replicas, -1), q.reshape(replicas, -1)], axis=1)
            sum_zz[:] += z[:, :, None] * z[:, None, :]
        counts[:] += 1
        stat = p2 @ gammas
        have = ~np.isnan(lag_prev)
        lag_cross[have] += stat[have] * lag_prev[have]
        lag_n[have] += 1
        lag_sum[:] += stat
        lag_sumsq[:] += stat * stat
        lag_prev[:] = stat

    bi.run(total_steps, record_stride=stride_steps, on_record=on_record)
    _require_no_blowup(bi.blown, total_steps, h, "replicas")

    cnt = counts[:, None].astype(float)
    rep_p2 = sum_p2 / cnt
    p2_mean = rep_p2.mean(axis=0)
    p2_se = rep_p2.std(axis=0, ddof=1) / math.sqrt(replicas)

    rep_diss = rep_p2 @ gammas
    target = model.noise_work_rate
    diss = float(rep_diss.mean())
    diss_se = float(rep_diss.std(ddof=1) / math.sqrt(replicas))

    second = second_se = osig = None
    max_dev = None
    if sum_zz is not None and oracle is not None:
        rep_zz = sum_zz / cnt[:, :, None]
        second = rep_zz.mean(axis=0)
        second_se = rep_zz.std(axis=0, ddof=1) / math.sqrt(replicas)
        osig = oracle.sigma_inf
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(second - osig) / second_se
        max_dev = float(np.nanmax(dev))

    # Pooled lag-1 autocorrelation of the bath statistic; an AR(1) model of
    # the recorded series gives the effective-sample discount factor.
    n_rec = int(counts.sum())
    total = float(lag_sum.sum())
    mean_stat = total / n_rec
    var_stat = float(lag_sumsq.sum()) / n_rec - mean_stat ** 2
    n_pairs = int(lag_n.sum())
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
        samples_per_replica=int(counts[0]),
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

@dataclass(frozen=True)
class DriftConfig:
    """Parameters of the exponential-energy drift estimate.

    ``theta`` must satisfy theta * T_max < 1 for the model under test;
    that and the window rule's prefactor constraint are enforced by
    ``validate_for``.
    """

    theta: float
    t_star: float
    ensemble: int
    energy_grid: tuple[float, ...]
    rule: TimescaleRule
    placement: str = "interaction"
    h0: float = 1e-3
    record_every: int = 10

    def __post_init__(self):
        if not (self.theta > 0):
            raise ValueError("theta must be > 0")
        if not (self.t_star > 0):
            raise ValueError("t_star must be > 0")
        if self.ensemble < 100:
            raise ValueError("ensemble must be >= 100")
        grid = tuple(float(g) for g in self.energy_grid)
        if any(g <= 0 for g in grid) or list(grid) != sorted(grid):
            raise ValueError("energy_grid must be positive and increasing")
        object.__setattr__(self, "energy_grid", grid)
        if self.placement not in ("interaction", "pinning"):
            raise ValueError("placement must be 'interaction' or 'pinning'")

    def validate_for(self, model: Model) -> None:
        tmax = model.t_max
        if tmax > 0 and not (self.theta * tmax < 1):
            raise ValueError(
                f"theta*T_max must be < 1 (theta={self.theta}, T_max={tmax})"
            )
        self.rule.validate_against_t_star(self.t_star)


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
    kern = _Kernel(model)
    q0 = np.zeros((N, n))
    pot0 = float(kern.pinning_energy(q0)) + float(kern.interaction_energy(q0))
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
        int0 = float(kern.interaction_energy(q0))

        def energy_at(s: float) -> float:
            q = np.zeros((N, n))
            q[:, 0] = s
            return float(kern.pinning_energy(q)) + int0

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

    def as_dict(self) -> dict:
        return {
            "H0": self.H0,
            "mean": self.mean,
            "se": self.se,
            "ci95": list(self.ci95),
            "n": self.n,
            "events": dict(self.events),
            "blowups": self.blowups,
            "mean_gamma": self.mean_gamma,
            "h": self.h,
        }


def drift_estimate(
    model: Model,
    z0: State,
    config: DriftConfig,
    seed: int,
    stream_offset: int = 0,
) -> DriftEstimate:
    """Monte Carlo mean of exp(theta dH) over the drift window.

    Blown-up members are not dropped: they contribute the cap value
    exp(theta * 2 H0), which biases the estimate upward (conservative).
    Event tallies classify every member by its first recorded band exit.
    """
    config.validate_for(model)
    H0, _, _ = hamiltonian(model, z0)
    h = scaled_step(model, config.h0, max(H0, 1.0))
    n_steps = max(1, int(round(config.t_star / h)))
    m = config.ensemble
    out = run_ensemble(
        model,
        np.broadcast_to(z0.p, (m,) + z0.p.shape).copy(),
        np.broadcast_to(z0.q, (m,) + z0.q.shape).copy(),
        h,
        n_steps,
        seed,
        stream_offset=stream_offset,
        record_stride=config.record_every,
        thresholds=(H0 / 2.0, 2.0 * H0),
    )
    weights = np.exp(config.theta * (out.h_final - H0))
    cap = math.exp(config.theta * 2.0 * H0)
    weights = np.where(out.blown, cap, weights)
    events = {"A1": 0, "A2": 0, "A3": 0}
    for i in range(m):
        if out.blown[i]:
            events["A3"] += 1
            continue
        events[_classify_from_crossings(out.first_low[i], out.first_high[i]).value] += 1
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / math.sqrt(m))
    return DriftEstimate(
        H0=float(H0),
        mean=mean,
        se=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        n=m,
        events=events,
        blowups=int(np.sum(out.blown)),
        mean_gamma=float(np.mean(out.gamma)),
        h=h,
    )


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
    placement: str

    def as_dict(self) -> dict:
        return {
            "levels": [lv.as_dict() for lv in self.levels],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "c1_hat": self.c1_hat,
            "qualifying": self.qualifying,
            "inconclusive": self.inconclusive,
            "exploratory_exponent": self.exploratory_exponent,
            "theta": self.theta,
            "t_star": self.t_star,
            "placement": self.placement,
        }


def drift_scan(model: Model, config: DriftConfig, seed: int) -> DriftReport:
    """Drift estimates on the energy grid and a least-squares fit of
    log(mean) against H0 over the levels whose interval excludes one.

    The exploratory double-log exponent (slope of log(-log mean) vs log H0)
    is reported without any acceptance gate; separating exponent families
    needs energy ranges beyond desk scale.
    """
    config.validate_for(model)
    levels = []
    for k, H0 in enumerate(config.energy_grid):
        z0 = initial_state_at_energy(model, H0, config.placement)
        levels.append(
            drift_estimate(model, z0, config, seed, stream_offset=k * config.ensemble)
        )
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
        theta=config.theta,
        t_star=config.t_star,
        placement=config.placement,
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

    def as_dict(self) -> dict:
        return {
            "probability": self.probability,
            "ci95": list(self.ci95),
            "n": self.n,
            "tau_window": self.tau_window,
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "H0": self.H0,
            "contained": self.contained,
            "starved": self.starved,
        }


def dissipation_tail(
    model: Model,
    z0: State,
    rule: TimescaleRule,
    epsilon: float,
    ensemble: int,
    seed: int,
    h0: float = 1e-3,
    record_every: int = 5,
) -> DissipationTailReport:
    """Empirical P( {H stays <= 4 H0 on the window} and
    {Gamma(tau) < eps * H0 * tau} ) over the natural window tau(z0)."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be > 0")
    H0, Hc0, Hi0 = hamiltonian(model, z0)
    window = tau(rule, H0, Hc0, Hi0)
    h = scaled_step(model, h0, max(H0, 1.0))
    n_steps = max(1, int(round(window / h)))
    out = run_ensemble(
        model,
        np.broadcast_to(z0.p, (ensemble,) + z0.p.shape).copy(),
        np.broadcast_to(z0.q, (ensemble,) + z0.q.shape).copy(),
        h,
        n_steps,
        seed,
        record_stride=record_every,
        thresholds=(-np.inf, 4.0 * H0),
    )
    contained = (out.first_high < 0) & ~out.blown
    threshold = epsilon * H0 * window
    starved = out.gamma < threshold
    hits = int(np.sum(contained & starved))
    prob = hits / ensemble
    return DissipationTailReport(
        probability=prob,
        ci95=wilson_interval(hits, ensemble),
        n=ensemble,
        tau_window=window,
        threshold=threshold,
        epsilon=epsilon,
        H0=float(H0),
        contained=int(np.sum(contained)),
        starved=int(np.sum(starved)),
    )


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

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "mu_hat": self.mu_hat,
            "mu_se": self.mu_se,
            "inconclusive": self.inconclusive,
            "fit_points": self.fit_points,
        }

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
    stationary_burn: float | None = None,
    stationary_samples: int = 20000,
    smooth_window: float = 2.0,
) -> DecayFitReport:
    """Fit an exponential rate to |E f(z_t) - mu(f)| on a time grid.

    The stationary reference mu(f) is a long-run time average after a
    burn-in of ten slowest oracle timescales (quadratic models) or a fixed
    default of 50 time units.  The rate is fitted on the leading grid
    window where the (smoothed) signal exceeds three times the Monte Carlo
    noise; fewer than five such points marks the report inconclusive.
    Raises :class:`BlowupError` when a member of either run blew up.
    """
    if isinstance(observable, str):
        fn = resolve_observable(model, observable)
    else:
        fn = observable

    # Stationary reference: a handful of long runs on dedicated streams
    # (indices above the ensemble members), averaged after burn-in.
    if stationary_burn is None:
        try:
            oracle = gaussian_stationary_covariance(model)
            stationary_burn = 10.0 / max(abs(oracle.spectral_abscissa), 1e-6)
        except (ValueError, OracleError):
            stationary_burn = 50.0
    n_ref = 8
    stride_time = 0.5
    stride_steps = max(1, int(round(stride_time / h)))
    burn_steps = int(round(stationary_burn / h))
    per_ref = max(1, stationary_samples // n_ref)
    long_steps = burn_steps + per_ref * stride_steps
    streams = [seed_stream(seed, ensemble + i) for i in range(n_ref)]
    bi = BatchIntegrator(
        model,
        np.broadcast_to(z0.p, (n_ref,) + z0.p.shape).copy(),
        np.broadcast_to(z0.q, (n_ref,) + z0.q.shape).copy(),
        h,
        streams,
    )
    ref_sum = np.zeros(n_ref)
    ref_cnt = 0

    def collect(step, t, H, Hc, Hi, p, q):
        nonlocal ref_cnt
        if step > burn_steps:
            ref_sum[:] += fn(p, q)
            ref_cnt += 1

    bi.run(long_steps, record_stride=stride_steps, on_record=collect)
    _require_no_blowup(bi.blown, long_steps, h, "reference runs")
    ref_means = ref_sum / max(ref_cnt, 1)
    mu_hat = float(np.mean(ref_means))
    # Spread across independent replicas respects autocorrelation.
    mu_se = float(np.std(ref_means, ddof=1) / math.sqrt(n_ref))

    n_steps = max(1, int(round(horizon / h)))
    stride = max(1, n_steps // grid_points)
    out = run_ensemble(
        model,
        np.broadcast_to(z0.p, (ensemble,) + z0.p.shape).copy(),
        np.broadcast_to(z0.q, (ensemble,) + z0.q.shape).copy(),
        h,
        n_steps,
        seed,
        record_stride=stride,
        per_record={"f": fn},
    )
    _require_no_blowup(out.blown, n_steps, h, "members")
    f_series = out.series["f"]
    mean_t = f_series.mean(axis=1)
    se_t = f_series.std(axis=1, ddof=1) / math.sqrt(ensemble)
    curve = np.abs(mean_t - mu_hat)
    noise = np.sqrt(se_t ** 2 + mu_se ** 2)
    times = out.record_times

    # A centered moving average over ~smooth_window time units suppresses
    # the oscillatory factor of the decay (the envelope slope is unbiased:
    # averaging e^{-ct} over a fixed window only rescales it).
    if len(times) > 1 and smooth_window > 0:
        dt = float(times[1] - times[0])
        span = max(1, int(round(smooth_window / dt)))
        if span > 1:
            kern_w = np.ones(span) / span
            sm = np.convolve(curve, kern_w, mode="valid")
            t_sm = np.convolve(times, kern_w, mode="valid")
            n_sm = np.convolve(noise, kern_w, mode="valid")
        else:
            sm, t_sm, n_sm = curve, times, noise
    else:
        sm, t_sm, n_sm = curve, times, noise

    # Fit on the contiguous leading window where the signal clears the
    # noise; once the smoothed curve first dips under 3x noise the rest is
    # dominated by the |.| folding bias and the reference offset.
    above = sm > 3.0 * n_sm
    mask = np.zeros_like(above)
    for k in range(len(above)):
        if not above[k]:
            break
        mask[k] = True
    fit_points = int(np.sum(mask))
    rate = None
    window = None
    inconclusive = fit_points < 5
    if not inconclusive:
        slope, _, _ = _linear_fit(t_sm[mask], np.log(sm[mask]))
        rate = -slope
        window = (float(t_sm[0]), float(t_sm[fit_points - 1]))
        if rate <= 0:
            inconclusive = True
            rate = None
    if window is not None:
        raw_mask = (times >= window[0]) & (times <= window[1])
    else:
        raw_mask = np.zeros(len(times), dtype=bool)
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
    )


# ---------------------------------------------------------------------------
# Gibbs sampling and the equal-temperature invariance test
# ---------------------------------------------------------------------------

def _gibbs_supported(model: Model) -> str | None:
    specs = list(model.pinning.values()) + list(model.interaction.values())
    if all(isinstance(s, Quadratic) for s in specs):
        return "quadratic"
    if not model.topology.edges and all(
        isinstance(s, (SoftPower, EvenPower, Quadratic)) for s in model.pinning.values()
    ):
        return "product"
    return None


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
        cov = T * np.linalg.inv(spec.matrix)
        L = np.linalg.cholesky(cov)
        return rng.standard_normal((count, n)) @ L.T
    if isinstance(spec, SoftPower):
        r = spec.degree
        sigma2 = T / r

        def log_accept(x):
            s = np.sum(x * x, axis=-1)
            return -(spec.value(x) - 1.0 - 0.5 * r * s) / T
    elif isinstance(spec, EvenPower):
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
    else:
        raise ValueError(
            f"no rejection sampler for {type(spec).__name__}; supported pinning "
            "families are SoftPower, EvenPower and Quadratic"
        )

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
    kind = _gibbs_supported(model)
    if kind is None:
        raise ValueError(
            "Gibbs sampling supports fully Quadratic models or interaction-free "
            "models with SoftPower/EvenPower/Quadratic pinning"
        )
    N, n = model.vertex_count, model.dim
    T = float(temperature)
    p = math.sqrt(T) * rng.standard_normal((count, N, n))
    if kind == "quadratic":
        K = _full_stiffness(model)
        if np.min(np.linalg.eigvalsh(K)) <= 1e-12:
            raise ValueError("stiffness is singular; the Gibbs measure is not normalizable")
        cov = T * np.linalg.inv(K)
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

    def as_dict(self) -> dict:
        return {
            "z_scores": dict(self.z_scores),
            "mean_before": dict(self.mean_before),
            "mean_after": dict(self.mean_after),
            "se": dict(self.se),
            "n": self.n,
            "t_check": self.t_check,
            "sample_temperature": self.sample_temperature,
        }


def gibbs_invariance_test(
    model: Model,
    observables: Sequence[str] | Mapping[str, Callable],
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
    if isinstance(observables, Mapping):
        fns = dict(observables)
    else:
        fns = {name: resolve_observable(model, name) for name in observables}

    rng = seed_stream(seed, n_samples)  # sampling stream, disjoint from members
    p0, q0 = sample_gibbs(model, sample_temperature, n_samples, rng)
    before = {name: fn(p0, q0) for name, fn in fns.items()}
    n_steps = max(1, int(round(t_check / h)))
    out = run_ensemble(model, p0, q0, h, n_steps, seed, record_stride=n_steps)
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
