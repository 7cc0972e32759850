"""Diagnostics: oracles, drift estimates, tails, decay fits, Gibbs tests."""

import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from oscnet.diagnostics import (
    DriftConfig,
    EventClass,
    classify_event,
    dissipation_tail,
    drift_estimate,
    drift_scan,
    gaussian_stationary_covariance,
    gibbs_invariance_test,
    initial_state_at_energy,
    observable_decay_fit,
    resolve_observable,
    run_ensemble,
    sample_gibbs,
    stationary_moment_test,
    wilson_interval,
)
from oscnet.dynamics import State, TimescaleRule, Trace, hamiltonian
from oscnet.errors import BlowupError, OracleError
from oscnet.model import BathSpec, Model, chain_model
from oscnet.potentials import EvenPower, LocalPiece, Quadratic, SoftPower
from oscnet.rng import seed_stream
from oscnet.topology import Edge, NetworkTopology


def synthetic_trace(H_values):
    H = np.asarray(H_values, dtype=float)
    n = len(H)
    zeros = np.zeros(n)
    return Trace(times=np.arange(n, dtype=float), H=H, Hc=H / 2, Hi=H / 2,
                 Gamma=zeros, M=zeros.copy(), noise_work_rate=0.0)


# --- Event classification ---------------------------------------------------------

def test_classify_constant_trace_is_contained():
    assert classify_event(synthetic_trace([10.0] * 5), 10.0) is EventClass.A1


def test_classify_dip_is_a2():
    assert classify_event(synthetic_trace([10, 9, 2.4, 9]), 10.0) is EventClass.A2


def test_classify_spike_is_a3():
    assert classify_event(synthetic_trace([10, 11, 31, 11]), 10.0) is EventClass.A3


def test_classify_first_hit_orders_mixed_paths():
    assert classify_event(synthetic_trace([10, 2, 50]), 10.0) is EventClass.A2
    assert classify_event(synthetic_trace([10, 50, 2]), 10.0) is EventClass.A3


def test_classify_empty_trace_raises():
    with pytest.raises(ValueError):
        classify_event(synthetic_trace([]), 1.0)


# --- Gaussian oracle ----------------------------------------------------------------

def test_oracle_single_mass():
    topo = NetworkTopology(1, frozenset(), frozenset({0}))
    m = Model(topo, 1, {0: Quadratic(((1.0,),), 1)}, {}, {0: BathSpec(1.0, 2.0)})
    oracle = gaussian_stationary_covariance(m)
    assert np.allclose(oracle.sigma_inf, 2.0 * np.eye(2), atol=1e-10)
    assert oracle.residual <= 1e-10


def test_oracle_equal_temperature_is_gibbs():
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    oracle = gaussian_stationary_covariance(m)
    assert np.max(np.abs(oracle.sigma_inf - oracle.gibbs_covariance(1.0))) <= 1e-10


def test_oracle_unequal_temperature_is_not_gibbs():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    oracle = gaussian_stationary_covariance(m)
    p2_mid = oracle.sigma_inf[1, 1]
    assert 1.0 < p2_mid < 2.0
    for T in (1.0, 1.5, 2.0):
        assert np.max(np.abs(oracle.sigma_inf - oracle.gibbs_covariance(T))) > 0.01


def test_oracle_rejects_non_quadratic():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1))
    with pytest.raises(ValueError):
        gaussian_stationary_covariance(m)


def test_oracle_rejects_undamped_system():
    # No pinning and a free center of mass: the drift is not Hurwitz.
    zerok = Quadratic.isotropic(0.0, 1)
    m = chain_model(3, 1, pinning=zerok, temperatures=(1.0, 2.0))
    with pytest.raises(OracleError):
        gaussian_stationary_covariance(m)


# --- Prescribed-energy starts -------------------------------------------------------

@pytest.mark.parametrize("mode", ["interaction", "pinning"])
def test_initial_state_hits_energy(mode):
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=SoftPower(degree=4, dim=1), temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 50.0, mode)
    H, Hc, Hi = hamiltonian(m, z0)
    assert H == pytest.approx(50.0, rel=1e-9)
    if mode == "interaction":
        assert Hi >= H / 2
    else:
        assert Hc > H / 2


def test_initial_state_rejects_tiny_energy():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                    interaction=SoftPower(degree=4, dim=1))
    with pytest.raises(ValueError):
        initial_state_at_energy(m, 1.0, "interaction")  # below the potential floor


# --- Drift estimates ------------------------------------------------------------------

def harmonic_drift_config(ensemble=200, grid=(25.0, 50.0, 100.0)):
    return DriftConfig(
        theta=0.25, t_star=1.0, ensemble=ensemble, energy_grid=grid,
        rule=TimescaleRule(lam=0.5, li=2, lp=2), h0=1e-3, record_every=10,
    )


def test_drift_estimate_contracts_at_high_energy():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    cfg = harmonic_drift_config()
    z0 = initial_state_at_energy(m, 50.0, "interaction")
    est = drift_estimate(m, z0, cfg, seed=41)
    assert est.ci95[1] < 1.0
    assert sum(est.events.values()) == est.n
    assert est.blowups == 0


def test_drift_estimate_universal_upper_bound():
    # E exp(theta dH) <= exp(theta sum gamma_b T_b t) holds at any energy,
    # including near-typical ones where no contraction is claimed.
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    cfg = harmonic_drift_config()
    z0 = initial_state_at_energy(m, 2.0, "interaction")
    est = drift_estimate(m, z0, cfg, seed=42)
    c_star = cfg.theta * sum(b.gamma * b.temperature for b in m.baths.values())
    assert 0.0 < est.mean <= math.exp(c_star * cfg.t_star) * 1.2


def test_drift_estimate_zero_temperature_limit():
    # Noise off, friction kept: dH = -dGamma pathwise, so the weight is
    # exp(-theta Gamma) <= 1.
    m = chain_model(3, 1, temperatures=(0.0, 0.0))
    cfg = harmonic_drift_config()
    z0 = initial_state_at_energy(m, 50.0, "interaction")
    est = drift_estimate(m, z0, cfg, seed=43)
    assert est.mean <= 1.0 + 1e-4
    assert est.mean == pytest.approx(math.exp(-cfg.theta * est.mean_gamma), rel=0.05)


def test_drift_estimate_theta_cap():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    cfg = DriftConfig(theta=0.6, t_star=1.0, ensemble=100, energy_grid=(25.0,),
                      rule=TimescaleRule(lam=0.5, li=2, lp=2))
    with pytest.raises(ValueError):
        cfg.validate_for(m)


def test_drift_scan_fits_negative_slope():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    report = drift_scan(m, harmonic_drift_config(), seed=44)
    assert not report.inconclusive
    assert report.slope < 0
    assert report.r_squared >= 0.9
    assert report.c1_hat == pytest.approx(-report.slope)


def test_drift_scan_runs_on_uncontrolled_topology():
    # The scan is plumbing; the controllability verdict is reported
    # separately and no contraction claim is attached.
    from oscnet.topology import builtin_fixture
    topo = builtin_fixture("fig2_square4")
    spec = Quadratic.isotropic(1.0, 1)
    m = Model(topo, 1, {v: spec for v in topo.vertices},
              {e: spec for e in topo.edges},
              {b: BathSpec(1.0, 1.0) for b in topo.baths})
    cfg = DriftConfig(theta=0.25, t_star=1.0, ensemble=100, energy_grid=(25.0, 50.0, 100.0),
                      rule=TimescaleRule(lam=0.5, li=2, lp=2), record_every=10)
    report = drift_scan(m, cfg, seed=45)
    assert len(report.levels) == 3
    from oscnet.conditions import check_conditions
    assert not check_conditions(m).c1_ok


def test_drift_scan_near_typical_energy_is_inconclusive():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    cfg = DriftConfig(theta=0.05, t_star=1.0, ensemble=100,
                      energy_grid=(3.0, 4.0, 5.0),
                      rule=TimescaleRule(lam=0.5, li=2, lp=2), record_every=10)
    report = drift_scan(m, cfg, seed=60)
    assert report.inconclusive
    assert report.slope is None and report.c1_hat is None


def test_drift_estimate_is_seed_reproducible():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    cfg = harmonic_drift_config(ensemble=120, grid=(50.0,))
    z0 = initial_state_at_energy(m, 50.0, "interaction")
    a = drift_estimate(m, z0, cfg, seed=77)
    b = drift_estimate(m, z0, cfg, seed=77)
    assert a == b
    c = drift_estimate(m, z0, cfg, seed=78)
    assert c.mean != a.mean


def test_run_ensemble_results_do_not_depend_on_chunking():
    chain3 = chain_model(3, 1, temperatures=(1.0, 2.0))
    # Nine baths, not one run of vertices: each member's budget increments
    # sum over the baths pairwise, as numpy does from 8 terms on.
    chain10 = chain_model(10, 1)
    baths = {b: BathSpec(1.0, 1.0 + 0.2 * b) for b in range(10) if b != 4}
    nine_baths = Model(NetworkTopology(10, chain10.topology.edges, frozenset(baths)), 1,
                       dict(chain10.pinning), dict(chain10.interaction), baths)
    for m in (chain3, nine_baths):
        z0 = initial_state_at_energy(m, 25.0, "interaction")
        p0 = np.broadcast_to(z0.p, (64,) + z0.p.shape).copy()
        q0 = np.broadcast_to(z0.q, (64,) + z0.q.shape).copy()

        def run(i0, i1):
            return run_ensemble(m, p0[i0:i1], q0[i0:i1], 1e-3, 200, seed=9, stream_offset=i0,
                                record_stride=20, thresholds=(20.0, 30.0),
                                per_record={"H1": resolve_observable(m, "p2:0")})

        whole = run(0, 64)
        parts = [run(0, 1), run(1, 23), run(23, 64)]
        assert np.any(whole.first_low >= 0) and np.any(whole.first_high >= 0)
        for field in ("h_final", "gamma", "work", "first_low", "first_high"):
            joined = np.concatenate([getattr(part, field) for part in parts])
            assert getattr(whole, field).tobytes() == joined.tobytes(), field
        joined = np.concatenate([part.series["H1"] for part in parts], axis=1)
        assert whole.series["H1"].tobytes() == joined.tobytes()


# --- Dissipation tail -------------------------------------------------------------------

def test_dissipation_tail_small_epsilon_is_rare():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    rule = TimescaleRule(lam=0.5, li=2, lp=2)
    z0 = initial_state_at_energy(m, 1e4, "interaction")
    rep = dissipation_tail(m, z0, rule, 1e-3, 200, seed=46)
    assert rep.probability <= 0.05
    assert rep.tau_window == pytest.approx(0.5)


def test_dissipation_tail_huge_epsilon_is_certain():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    rule = TimescaleRule(lam=0.5, li=2, lp=2)
    z0 = initial_state_at_energy(m, 100.0, "interaction")
    rep = dissipation_tail(m, z0, rule, 1e3, 200, seed=47)
    assert rep.probability == pytest.approx(1.0)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


# --- Observable decay ----------------------------------------------------------------------

def test_decay_fit_constant_observable_is_flat():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 25.0, "interaction")
    rep = observable_decay_fit(m, lambda p, q: np.ones(p.shape[0]), z0,
                               horizon=5.0, ensemble=200, seed=48, h=0.01,
                               grid_points=40, stationary_samples=400)
    assert np.max(rep.curve) <= 1e-12
    assert rep.inconclusive


def test_decay_fit_equilibrium_start_is_inconclusive():
    # Starting in the stationary state there is no signal to fit.
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    rng = seed_stream(49, 12345)
    p0, q0 = sample_gibbs(m, 1.0, 1, rng)
    z0 = State(p0[0], q0[0])
    rep = observable_decay_fit(m, "p2:0", z0, horizon=6.0, ensemble=400,
                               seed=49, h=0.01, grid_points=40,
                               stationary_samples=2000)
    assert rep.fit_points < 5 or rep.rate < 1.0
    # The curve should sit at the noise scale, far below the O(1) signal a
    # displaced start would produce.
    assert np.median(rep.curve) <= 0.2


def test_resolve_observable_formats():
    m = chain_model(2, 2, temperatures=(1.0, 1.0))
    p = np.arange(12.0).reshape(3, 2, 2)
    q = p + 1
    assert np.allclose(resolve_observable(m, "p2:1")(p, q), np.sum(p[:, 1, :] ** 2, axis=-1))
    assert np.allclose(resolve_observable(m, "pq:0")(p, q), np.sum(p[:, 0, :] * q[:, 0, :], axis=-1))
    assert np.allclose(resolve_observable(m, "q:1:1")(p, q), q[:, 1, 1])
    with pytest.raises(ValueError):
        resolve_observable(m, "bogus:observable")


# --- Gibbs sampling and invariance -----------------------------------------------------------

def test_sample_gibbs_quadratic_moments():
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    oracle = gaussian_stationary_covariance(m)
    rng = seed_stream(50, 0)
    p, q = sample_gibbs(m, 1.0, 40000, rng)
    z = np.concatenate([p.reshape(-1, 3), q.reshape(-1, 3)], axis=1)
    emp = z.T @ z / len(z)
    assert np.max(np.abs(emp - oracle.gibbs_covariance(1.0))) <= 0.05


def test_rejection_sampler_matches_quadrature():
    # Single pinned mass, no springs: compare sampled moments of the
    # position against direct numerical quadrature of the density.
    topo = NetworkTopology(1, frozenset(), frozenset({0}))
    spec = SoftPower(degree=4, dim=1)
    m = Model(topo, 1, {0: spec}, {}, {0: BathSpec(1.0, 1.0)})
    rng = seed_stream(51, 0)
    p, q = sample_gibbs(m, 1.0, 60000, rng)
    x = q[:, 0, 0]

    dens = lambda u: np.exp(-spec.value(np.atleast_1d(u)))
    Z = sci_integrate.quad(dens, -8, 8)[0]
    m2 = sci_integrate.quad(lambda u: u * u * dens(u), -8, 8)[0] / Z
    m4 = sci_integrate.quad(lambda u: u ** 4 * dens(u), -8, 8)[0] / Z
    assert np.mean(x ** 2) == pytest.approx(m2, rel=0.03)
    assert np.mean(x ** 4) == pytest.approx(m4, rel=0.05)
    assert np.mean(p ** 2) == pytest.approx(1.0, rel=0.03)


def test_sample_gibbs_rejects_unsupported_models():
    m = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1))
    with pytest.raises(ValueError) as err:
        sample_gibbs(m, 1.0, 10, seed_stream(0, 0))
    assert "Quadratic" in str(err.value)


def test_gibbs_invariance_equal_temperature():
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    rep = gibbs_invariance_test(m, ["H", "p2:0", "q2:1", "pq:1"],
                                n_samples=3000, t_check=5.0, seed=52, h=0.01)
    assert rep.max_abs_z <= 3.0


def test_gibbs_invariance_wrong_temperature_drifts():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    with pytest.raises(ValueError):
        gibbs_invariance_test(m, ["H"], 500, 5.0, seed=53, h=0.01)
    rep = gibbs_invariance_test(m, ["H"], 3000, 5.0, seed=53, h=0.01,
                                sample_temperature=1.0)
    assert abs(rep.z_scores["H"]) > 3.0


def test_gibbs_invariance_is_seed_reproducible():
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    a = gibbs_invariance_test(m, ["H"], 500, 1.0, seed=54, h=0.01)
    b = gibbs_invariance_test(m, ["H"], 500, 1.0, seed=54, h=0.01)
    assert a.z_scores == b.z_scores and a.mean_after == b.mean_after


# A quartic model at T = 5 with h = 0.9 is far past the stable step size:
# its members blow up, and no check may report a statistic from them.

def quartic_chain_hot():
    spec = EvenPower(degree=4, dim=1)
    return chain_model(3, 1, pinning=spec, interaction=spec, temperatures=(5.0, 5.0))


def test_gibbs_invariance_blown_run_raises():
    # Used to report z = 0.0 for every observable, with se = nan.
    spec = EvenPower(degree=4, dim=1)
    topo = NetworkTopology(3, frozenset(), frozenset({0, 2}))
    m = Model(topo, 1, {v: spec for v in range(3)}, {},
              {0: BathSpec(1.0, 5.0), 2: BathSpec(1.0, 5.0)})
    with pytest.raises(BlowupError):
        gibbs_invariance_test(m, ["H", "q2:0"], n_samples=200, t_check=9.0, seed=1, h=0.9)


def test_stationary_moments_blown_run_raises():
    # Used to return balance_ratio = nan with effective_samples = 64.
    with pytest.raises(BlowupError):
        stationary_moment_test(quartic_chain_hot(), burn_in=9.0, n_samples=64, h=0.9,
                               seed=1, replicas=64)


def test_decay_fit_blown_run_raises():
    m = quartic_chain_hot()
    z0 = initial_state_at_energy(m, 25.0, "interaction")
    with pytest.raises(BlowupError):
        observable_decay_fit(m, "p2:0", z0, horizon=9.0, ensemble=64, seed=1, h=0.9,
                             grid_points=5, stationary_burn=9.0, stationary_samples=64)


# --- Stationary moments ------------------------------------------------------------------------

def test_stationary_moments_match_oracle_small():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    rep = stationary_moment_test(m, burn_in=30.0, n_samples=64 * 300, h=0.01,
                                 seed=55, replicas=64, sample_stride_time=2.0)
    assert rep.max_dev_in_se is not None and rep.max_dev_in_se <= 4.0
    assert rep.balance_ratio == pytest.approx(1.0, abs=0.05)
    assert rep.effective_samples > 0
    assert 0 <= rep.lag1_autocorr < 0.5


def test_stationary_moments_equilibrium_unit_temperature():
    # At a common unit temperature every momentum marginal has unit variance.
    m = chain_model(3, 1, temperatures=(1.0, 1.0))
    rep = stationary_moment_test(m, burn_in=30.0, n_samples=128 * 400, h=0.01,
                                 seed=56, replicas=128, sample_stride_time=2.0)
    assert np.allclose(rep.p2_mean, 1.0, atol=0.02)
