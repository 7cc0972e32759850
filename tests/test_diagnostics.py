"""Diagnostics: oracles, drift estimates, tails, decay fits, Gibbs tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from oscnet import diagnostics, dynamics
from oscnet.diagnostics import (
    dissipation_scan,
    dissipation_tail,
    drift_estimate,
    drift_scan,
    gaussian_stationary_covariance,
    gibbs_invariance_test,
    initial_state_at_energy,
    initial_state_on_slow_mode,
    observable_decay_fit,
    resolve_observable,
    run_ensemble,
    sample_gibbs,
    stationary_moment_test,
    wilson_interval,
    _event_counts,
)
from oscnet.dynamics import _NOISE_TILE, BatchIntegrator, State, hamiltonian
from oscnet.errors import BlowupError, OracleError
from oscnet.model import BathSpec, Model, chain_model
from oscnet.potentials import EvenPower, LocalPiece, Quadratic, SoftPower
from oscnet.rng import seed_stream
from oscnet.topology import Edge, NetworkTopology, random_topology


# --- Event classification ---------------------------------------------------------

@pytest.mark.parametrize("first_low, first_high, blown, expected", [
    ([-1], [-1], [False], {"A1": 1, "A2": 0, "A3": 0}),  # stayed in band
    ([2], [-1], [False], {"A1": 0, "A2": 1, "A3": 0}),  # dip
    ([-1], [2], [False], {"A1": 0, "A2": 0, "A3": 1}),  # spike
    ([1], [2], [False], {"A1": 0, "A2": 1, "A3": 0}),  # dip first
    ([2], [1], [False], {"A1": 0, "A2": 0, "A3": 1}),  # spike first
    ([3], [3], [False], {"A1": 0, "A2": 0, "A3": 1}),  # both at one record
    ([-1, 1], [-1, -1], [True, True], {"A1": 0, "A2": 0, "A3": 2}),  # blown
    ([-1, 2, -1, 1, 2, 3, 1], [-1, -1, 2, 2, 1, 3, -1],
     [False, False, False, False, False, False, True], {"A1": 1, "A2": 2, "A3": 4}),
])
def test_event_counts_classify_by_first_band_exit(first_low, first_high, blown, expected):
    counts = _event_counts(np.array(first_low), np.array(first_high), np.array(blown))
    assert counts == expected
    assert sum(counts.values()) == len(blown)


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


def test_slow_mode_start_lies_on_the_rightmost_eigenvector():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_on_slow_mode(m, 30.0)
    z = np.concatenate([z0.p.ravel(), z0.q.ravel()])
    assert np.linalg.norm(z) == pytest.approx(30.0, rel=1e-12)
    # z lies in the real invariant plane of the rightmost eigenvalue pair
    # l, conj(l): (A - l)(A - conj(l)) z = 0.
    A = gaussian_stationary_covariance(m).drift
    evals = np.linalg.eigvals(A)
    l = evals[np.argmax(evals.real)]
    assert np.allclose(A @ (A @ z) - 2 * l.real * (A @ z) + abs(l) ** 2 * z, 0.0, atol=1e-9)
    for model in (chain_model(3, 1, pinning=SoftPower(degree=4, dim=1)),
                  chain_model(3, 1, pinning=Quadratic.isotropic(0.0, 1))):
        with pytest.raises(ValueError, match="no slow-mode start"):
            initial_state_on_slow_mode(model, 30.0)


@pytest.mark.parametrize("phase", [-1.0, 1j, -1j, np.exp(0.7j), np.exp(-2.1j)],
                         ids=["-1", "i", "-i", "exp(0.7i)", "exp(-2.1i)"])
def test_slow_mode_start_does_not_depend_on_the_eigenvector_phase(monkeypatch, phase):
    # The rightmost pair of this chain is complex, and an eigenvector is
    # fixed only up to a unit phase, which LAPACK picks.  The start must be
    # the same for every phase: bit for bit for -1, to rounding otherwise.
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_on_slow_mode(m, 30.0)
    eig = np.linalg.eig

    def rotated(a):
        evals, evecs = eig(a)
        return evals, evecs * phase

    monkeypatch.setattr(np.linalg, "eig", rotated)
    z1 = initial_state_on_slow_mode(m, 30.0)
    if phase == -1.0:
        assert z1.p.tobytes() == z0.p.tobytes() and z1.q.tobytes() == z0.q.tobytes()
    assert np.allclose(z1.p, z0.p, rtol=0, atol=1e-12) and np.allclose(z1.q, z0.q, rtol=0, atol=1e-12)


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

def interaction_starts(model, grid=(25.0, 50.0, 100.0)):
    return [initial_state_at_energy(model, H0, "interaction") for H0 in grid]


def test_drift_estimate_contracts_at_high_energy():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 50.0, "interaction")
    est = drift_estimate(m, z0, 0.25, 1.0, 200, seed=41)
    assert est.ci95[1] < 1.0
    assert sum(est.events.values()) == est.n
    assert est.blowups == 0


def test_drift_estimate_universal_upper_bound():
    # E exp(theta dH) <= exp(theta sum gamma_b T_b t) holds at any energy,
    # including near-typical ones where no contraction is claimed.
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    theta, t_star = 0.25, 1.0
    z0 = initial_state_at_energy(m, 2.0, "interaction")
    est = drift_estimate(m, z0, theta, t_star, 200, seed=42)
    c_star = theta * sum(b.gamma * b.temperature for b in m.baths.values())
    assert 0.0 < est.mean <= math.exp(c_star * t_star) * 1.2


def test_drift_estimate_zero_temperature_limit():
    # Noise off, friction kept: dH = -dGamma pathwise, so the weight is
    # exp(-theta Gamma) <= 1.
    m = chain_model(3, 1, temperatures=(0.0, 0.0))
    z0 = initial_state_at_energy(m, 50.0, "interaction")
    est = drift_estimate(m, z0, 0.25, 1.0, 200, seed=43)
    assert est.mean <= 1.0 + 1e-4
    assert est.mean == pytest.approx(math.exp(-0.25 * est.mean_gamma), rel=0.05)


def test_drift_estimate_theta_cap():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 25.0, "interaction")
    with pytest.raises(ValueError, match=r"theta\*T_max must be < 1"):
        drift_estimate(m, z0, 0.6, 1.0, 100, seed=40)


@pytest.mark.parametrize("theta, t_star, ensemble, start_energy, message", [
    (0.0, 1.0, 100, 25.0, "need theta > 0"),
    (0.25, 0.0, 100, 25.0, "t_star > 0"),
    (0.25, 1.0, 99, 25.0, "ensemble >= 100"),
    (0.25, 1.0, 100, 0.0, "start energy must be > 0"),
])
def test_drift_estimate_rejects_bad_arguments(theta, t_star, ensemble, start_energy, message):
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    if start_energy > 0:
        z0 = initial_state_at_energy(m, start_energy, "interaction")
    else:
        z0 = State.zero(3, 1)
    with pytest.raises(ValueError, match=message):
        drift_estimate(m, z0, theta, t_star, ensemble, seed=40)


def test_standard_errors_need_two_replicas():
    # The standard error of one replica's value is std(ddof=1) of one
    # number: a warning and a NaN, so one replica is refused up front.
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    with pytest.raises(ValueError, match="replicas >= 2"):
        stationary_moment_test(m, burn_in=1.0, n_samples=10, h=0.01, seed=1, replicas=1)
    with pytest.raises(ValueError, match="ensemble >= 2"):
        observable_decay_fit(m, "p2:0", State.zero(3, 1), horizon=1.0, ensemble=1, seed=1)


def test_run_ensemble_of_zero_members_is_rejected():
    with pytest.raises(ValueError, match="at least one ensemble member"):
        run_ensemble(chain_model(3, 1), np.zeros((0, 3, 1)), np.zeros((0, 3, 1)), 0.01, 10, seed=1)


def test_energy_scans_need_common_degrees():
    base = chain_model(3, 1, pinning=SoftPower(degree=4, dim=1),
                       interaction=SoftPower(degree=4, dim=1))
    mixed = Model(base.topology, 1, dict(base.pinning),
                  {**base.interaction, Edge(0, 1): Quadratic.isotropic(1.0, 1)}, dict(base.baths))
    z0 = State(np.ones((3, 1)), np.zeros((3, 1)))
    message = "common interaction and pinning degrees"
    with pytest.raises(ValueError, match=message):
        drift_scan(mixed, [z0], 0.25, 1.0, 100, seed=1)
    with pytest.raises(ValueError, match=message):
        dissipation_scan(mixed, [z0], 0.5, 1e-3, 100, seed=1)


def test_drift_estimate_past_the_float_range_of_the_cap():
    # theta * 2 H0 = 750 is beyond exp's float range (709.78): the cap is
    # used only for blown members, so a level without blowups is finite.
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 1500.0, "interaction")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = drift_estimate(m, z0, 0.25, 1.0, 100, seed=51)
    assert est.blowups == 0
    assert math.isfinite(est.mean) and 0.0 < est.mean < 1.0


def test_drift_estimate_blown_members_take_the_cap(monkeypatch):
    # An energy ceiling of half the start energy makes every member blow
    # up at its first record.
    monkeypatch.setattr(dynamics, "BLOWUP_ENERGY_FACTOR", 0.5)
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 25.0, "interaction")
    est = drift_estimate(m, z0, 0.25, 1.0, 100, seed=52)
    assert est.blowups == 100
    assert est.mean == pytest.approx(math.exp(0.25 * 2.0 * 25.0), rel=1e-12)
    # Past the float range the cap is infinite: an infinite mean, a NaN
    # interval, never a qualifying level, and no exception or warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = drift_scan(m, interaction_starts(m, (1500.0, 2000.0, 3000.0)), 0.25, 1.0, 100,
                            seed=52)
    assert all(lv.blowups == 100 and lv.mean == math.inf for lv in report.levels)
    assert not any(lv.excludes_one for lv in report.levels)
    assert report.qualifying == 0 and report.inconclusive


def test_drift_scan_fits_negative_slope():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    report = drift_scan(m, interaction_starts(m), 0.25, 1.0, 200, seed=44)
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
    report = drift_scan(m, interaction_starts(m), 0.25, 1.0, 100, seed=45)
    assert len(report.levels) == 3
    from oscnet.conditions import check_conditions
    assert not check_conditions(m).c1_ok


def test_drift_scan_near_typical_energy_is_inconclusive():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    report = drift_scan(m, interaction_starts(m, (3.0, 4.0, 5.0)), 0.05, 1.0, 100, seed=60)
    assert report.inconclusive
    assert report.slope is None and report.c1_hat is None


def counting(monkeypatch):
    """Count the integrators the diagnostics build from here on."""
    class Counter(BatchIntegrator):
        built = 0

        def __init__(self, *args, **kwargs):
            Counter.built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "BatchIntegrator", Counter)
    return Counter


def assert_same_fields(a, b, level):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), (level, field.name)


@pytest.mark.parametrize("family, batches", [("harmonic", 1), ("softpower4", 3)])
def test_drift_scan_levels_are_the_separate_estimates(monkeypatch, family, batches):
    # The harmonic grid shares one step size and step count, so it runs as
    # one batch; the quartic chain's energy-scaled steps differ per level.
    if family == "harmonic":
        m = chain_model(3, 1, temperatures=(1.0, 2.0))
    else:
        spec = SoftPower(degree=4, dim=1)
        m = chain_model(3, 1, pinning=spec, interaction=spec, temperatures=(1.0, 2.0))
    starts = interaction_starts(m)
    counter = counting(monkeypatch)
    report = drift_scan(m, starts, 0.25, 1.0, 100, seed=48, h0=1e-3)
    assert counter.built == batches
    assert len({lv.h for lv in report.levels}) == batches
    for k, (z0, level) in enumerate(zip(starts, report.levels)):
        alone = drift_estimate(m, z0, 0.25, 1.0, 100, seed=48, stream_offset=k * 100, h0=1e-3)
        assert_same_fields(level, alone, k)


def test_dissipation_scan_levels_are_the_separate_tails(monkeypatch):
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    starts = interaction_starts(m, (1e2, 1e3, 1e4))
    counter = counting(monkeypatch)
    # At epsilon = 1 the lowest level's dissipation straddles the threshold.
    reports = dissipation_scan(m, starts, 0.5, 1.0, 150, seed=49)
    assert counter.built == 1
    for k, (z0, rep) in enumerate(zip(starts, reports)):
        alone = dissipation_tail(m, z0, 0.5, 1.0, 150, seed=49 + k)
        assert_same_fields(rep, alone, k)
    assert 0 < reports[0].starved < 150


def test_drift_estimate_is_seed_reproducible():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 50.0, "interaction")
    a = drift_estimate(m, z0, 0.25, 1.0, 120, seed=77)
    b = drift_estimate(m, z0, 0.25, 1.0, 120, seed=77)
    assert a == b
    c = drift_estimate(m, z0, 0.25, 1.0, 120, seed=78)
    assert c.mean != a.mean


def test_run_ensemble_results_do_not_depend_on_chunking():
    chain3 = chain_model(3, 1, temperatures=(1.0, 2.0))
    # Nine baths, not one run of vertices: each member's budget increments
    # sum over the baths pairwise, as numpy does from 8 terms on.
    chain10 = chain_model(10, 1)
    baths = {b: BathSpec(1.0, 1.0 + 0.2 * b) for b in range(10) if b != 4}
    nine_baths = Model(NetworkTopology(10, chain10.topology.edges, frozenset(baths)), 1,
                       dict(chain10.pinning), dict(chain10.interaction), baths)
    # Two full noise tiles and part of a third.  Of the parts [0, 1),
    # [1, tile + 1) and [tile + 1, members), the second crosses the whole
    # run's tile edge at tile and the third its edge at 2 tile.
    members = 2 * _NOISE_TILE + 3
    cuts = [0, 1, _NOISE_TILE + 1, members]
    for m in (chain3, nine_baths):
        z0 = initial_state_at_energy(m, 25.0, "interaction")
        p0 = np.broadcast_to(z0.p, (members,) + z0.p.shape).copy()
        q0 = np.broadcast_to(z0.q, (members,) + z0.q.shape).copy()

        p2_0 = resolve_observable(m, "p2:0")

        def run(i0, i1):
            series = []
            out = run_ensemble(m, p0[i0:i1], q0[i0:i1], 1e-3, 200, seed=9, stream_offset=i0,
                               record_stride=20, thresholds=(20.0, 30.0),
                               on_record=lambda step, H, Hc, Hi, p, q: series.append(p2_0(p, q)))
            return out, np.array(series)

        whole, whole_series = run(0, members)
        parts = [run(i0, i1) for i0, i1 in zip(cuts, cuts[1:])]
        assert np.any(whole.first_low >= 0) and np.any(whole.first_high >= 0)
        for field in ("h_final", "gamma", "work", "first_low", "first_high"):
            joined = np.concatenate([getattr(part, field) for part, _ in parts])
            assert getattr(whole, field).tobytes() == joined.tobytes(), field
        assert whole_series.shape == (11, members)
        joined = np.concatenate([series for _, series in parts], axis=1)
        assert whole_series.tobytes() == joined.tobytes()


def test_run_ensemble_without_budget_keeps_every_other_result():
    # Five vertices in dim 2 with baths {0, 1, 2, 4}, an index-array bath
    # selection; the energy band is crossed both ways during the run.
    rng = np.random.default_rng(5)
    topo = random_topology(rng, max_vertices=6)
    assert topo.vertex_count == 5 and sorted(topo.baths) == [0, 1, 2, 4]
    pin, inter = SoftPower(degree=3.0, dim=2), EvenPower(degree=4, dim=2)
    model = Model(topo, 2, {v: pin for v in topo.vertices}, {e: inter for e in topo.edge_list},
                  {b: BathSpec(1.0, 0.5 + b) for b in topo.baths})
    members = 40
    p0 = rng.standard_normal((members, 5, 2))
    q0 = 0.5 * rng.standard_normal((members, 5, 2))

    def run(budget):
        series = []
        out = run_ensemble(model, p0, q0, 0.01, 300, seed=4, record_stride=25,
                           thresholds=(15.0, 30.0), budget=budget,
                           on_record=lambda step, H, Hc, Hi, p, q: series.append((step, H, p, q)))
        return out, series

    with_budget, series = run(True)
    without, series_off = run(False)
    assert without.gamma is None and without.work is None
    assert with_budget.gamma.shape == with_budget.work.shape == (members,)
    assert np.any(without.first_low > 0) and np.any(without.first_high > 0)
    for field in ("p", "q", "h_init", "h_final", "blown", "first_low", "first_high"):
        assert getattr(with_budget, field).tobytes() == getattr(without, field).tobytes(), field
    assert len(series) == len(series_off) == 13
    for (s0, H_a, p_a, q_a), (s1, H_b, p_b, q_b) in zip(series, series_off):
        assert s0 == s1 and H_a.tobytes() == H_b.tobytes()
        assert p_a.tobytes() == p_b.tobytes() and q_a.tobytes() == q_b.tobytes()
    # The hook's energies at step 0 and at the last step are the outcome's.
    assert series[0][1].tobytes() == with_budget.h_init.tobytes()
    assert series[-1][1].tobytes() == with_budget.h_final.tobytes()


def test_decay_fit_records_step_zero_every_stride_and_the_last_step():
    # 105 steps at stride 105 // 10 = 10: the grid ends on the last step,
    # which is not a multiple of the stride.
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 25.0, "interaction")
    rep = observable_decay_fit(m, "p2:0", z0, horizon=1.05, ensemble=16, seed=3, h=0.01,
                               grid_points=10, stationary_samples=8)
    steps = list(range(0, 101, 10)) + [105]
    assert rep.times.tobytes() == (0.01 * np.array(steps, dtype=float)).tobytes()
    assert rep.curve.shape == rep.noise.shape == rep.times.shape


def test_diagnostics_keeps_what_the_benchmark_instrument_wraps():
    # perfbench/instrument.py wraps these names of oscnet.diagnostics and
    # reads the effective-sample fields of the stationary report.
    import dataclasses
    import importlib.util
    from pathlib import Path

    import oscnet.diagnostics as diagnostics

    path = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("perfbench_instrument", path)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    for name in instrument.DIAGNOSTICS_ENTRY_POINTS:
        assert callable(getattr(diagnostics, name, None)), name
    fields = {f.name for f in dataclasses.fields(diagnostics.StationaryMomentReport)}
    assert {"effective_samples", "recorded_samples"} <= fields


# --- Dissipation tail -------------------------------------------------------------------

def test_dissipation_tail_small_epsilon_is_rare():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 1e4, "interaction")
    rep = dissipation_tail(m, z0, 0.5, 1e-3, 200, seed=46)
    assert rep.probability <= 0.05
    assert rep.tau_window == pytest.approx(0.5)


def test_dissipation_tail_huge_epsilon_is_certain():
    m = chain_model(3, 1, temperatures=(1.0, 2.0))
    z0 = initial_state_at_energy(m, 100.0, "interaction")
    rep = dissipation_tail(m, z0, 0.5, 1e3, 200, seed=47)
    assert rep.probability == pytest.approx(1.0)


def test_dissipation_window_exponent_is_the_model_degree():
    # The window is lam on a harmonic chain and lam H0^(1/4 - 1/2) on a
    # SoftPower(4) chain started with its energy mostly internal.
    harmonic = chain_model(3, 1, temperatures=(1.0, 2.0))
    spec = SoftPower(degree=4, dim=1)
    quartic = chain_model(3, 1, pinning=spec, interaction=spec, temperatures=(1.0, 2.0))
    for m, exponent in ((harmonic, 0.0), (quartic, 0.25 - 0.5)):
        z0 = initial_state_at_energy(m, 100.0, "interaction")
        rep = dissipation_tail(m, z0, 0.5, 1.0, 100, seed=50)
        assert rep.tau_window == pytest.approx(0.5 * rep.H0 ** exponent, rel=1e-12)
    assert rep.tau_window == pytest.approx(0.158, abs=1e-3)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


# --- Observable decay ----------------------------------------------------------------------

def test_decay_fit_reports_the_oracle_rate_only_with_an_oracle():
    quad = chain_model(3, 1, temperatures=(1.0, 2.0))
    soft = chain_model(3, 1, interaction=SoftPower(degree=4.0, dim=1), temperatures=(1.0, 2.0))
    reports = [observable_decay_fit(m, "p2:0", initial_state_at_energy(m, 25.0, "interaction"),
                                    horizon=0.5, ensemble=16, seed=3, h=0.01, grid_points=10,
                                    stationary_samples=8) for m in (quad, soft)]
    assert reports[0].oracle_slowest_rate == gaussian_stationary_covariance(quad).slowest_decay_rate
    assert reports[0].as_dict()["oracle_slowest_rate"] == reports[0].oracle_slowest_rate
    assert reports[1].oracle_slowest_rate is None
    assert "oracle_slowest_rate" not in reports[1].as_dict()


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
                             grid_points=5, stationary_samples=64)


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
