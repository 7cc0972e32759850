"""The benchmark workloads.

``BENCHMARK.json`` gates two of them, ``ensemble-oracle`` and
``cli-configs``.  ``single-path`` and ``wide-network`` isolate the
mechanisms of ROADMAP items 3 and 2 and stay runnable by name, for traced
runs; their run-to-run spread on a shared host exceeded the bound (see
README.md).

``setup(name, seed, root, scratch)`` does what a user of the program pays
for before the first result: import oscnet, build the model or parse the
configs, and construct the integrator or kernel once.  The returned object
offers

* ``unit(inst, timed)``: one unit of work through oscnet's public API,
  with the same inputs every time, as a fixed sequence of operations,
  each run inside ``with timed(name):`` so that it is timed on its own;
* ``check(result)``: named correctness checks, the values behind them, and
  a digest of the result values (equal digests across units and across
  runs of one seed show that the run is deterministic);
* ``member_steps``: the member-step count one unit must perform.  A unit
  whose counted member-steps differ fails, so a change can only get faster
  by doing the same work more cheaply;
* ``trajectories``: the trajectories (or CLI runs) one unit attempts.

The seed only generates inputs; the program receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

# Family-wise false-alarm rate of the statistical checks in one unit.
# Bonferroni over k simultaneous two-sided z-tests gives the bound
# z_fw(k) = Phi^-1(1 - FAMILY_ALPHA / (2 k)).
FAMILY_ALPHA = 1e-4


def z_bound(tests: int) -> float:
    from scipy.stats import norm

    return float(norm.isf(FAMILY_ALPHA / (2 * tests)))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


class EnsembleOracle:
    """``diagnostics.stationary_moment_test`` on the quadratic 5-chain with
    bath temperatures (1, 2), at the settings of acceptance criterion 3:
    m = 4096 replicas, h = 0.01, stride 2.0, one recorded sample per
    replica -- but burn-in 6 instead of 50 (800 steps instead of 5200), so
    that one unit takes about a second and a run holds tens of them.  The
    check compares with the exact covariance at the sample time, so the
    short burn-in costs no accuracy.

    Large m and small N: per-member vectorised stepping and the per-member
    noise draw loop dominate; the 4 edges and the 26 record callbacks are
    negligible.  State is about 0.5 MB, the 256-step noise chunk about
    16.8 MB: beyond L2, inside L3.
    """

    name = "ensemble-oracle"
    replicas = 4096
    h = 0.01
    burn_in = 6.0
    stride = 2.0
    trajectories = replicas

    def __init__(self, seed: int):
        from oscnet.dynamics import BatchIntegrator
        from oscnet.model import chain_model
        from oscnet.rng import seed_stream

        self.seed = seed
        self.model = chain_model(5, 1, temperatures=(1.0, 2.0))
        m, N = self.replicas, self.model.vertex_count
        BatchIntegrator(self.model, np.zeros((m, N, 1)), np.zeros((m, N, 1)), self.h,
                        [seed_stream(seed, i) for i in range(m)])
        steps = int(round(self.burn_in / self.h)) + int(round(self.stride / self.h))
        self.sample_time = steps * self.h
        self.member_steps = m * steps
        self._expected = None

    def unit(self, inst, timed):
        from oscnet.diagnostics import stationary_moment_test

        with timed(self.name):
            return stationary_moment_test(
                self.model, burn_in=self.burn_in, n_samples=self.replicas, h=self.h,
                seed=self.seed, replicas=self.replicas, sample_stride_time=self.stride,
            )

    def _transient_oracle(self):
        """Exact covariance at the sample time from a zero start:
        Sigma(t) = S - e^{At} S e^{A't}.  With one sample per replica at
        t = 8 the stationary oracle alone would be biased by the slowest
        mode (rate 0.048)."""
        if self._expected is None:
            from scipy.linalg import expm

            from oscnet.diagnostics import gaussian_stationary_covariance

            orc = gaussian_stationary_covariance(self.model)
            E = expm(orc.drift * self.sample_time)
            sigma = orc.sigma_inf - E @ orc.sigma_inf @ E.T
            baths = sorted(self.model.topology.baths)
            gammas = np.array([self.model.gamma_of(b) for b in baths])
            balance = float(gammas @ sigma[baths, baths]) / self.model.noise_work_rate
            self._expected = sigma, balance
        return self._expected

    def check(self, rep):
        sigma, balance = self._transient_oracle()
        iu = np.triu_indices(sigma.shape[0])
        z = (rep.second_moment - sigma)[iu] / rep.second_moment_se[iu]
        z_balance = (rep.balance_ratio - balance) / rep.balance_ratio_se
        bound = z_bound(len(z) + 1)
        checks = {
            "finite": bool(np.all(np.isfinite(rep.second_moment)) and math.isfinite(rep.balance_ratio)),
            "covariance_max_abs_z": bool(np.max(np.abs(z)) <= bound),
            "balance_ratio_z": bool(abs(z_balance) <= bound),
            "recorded_samples": rep.recorded_samples == self.replicas,
        }
        values = {"max_abs_z": float(np.max(np.abs(z))), "balance_z": float(z_balance),
                  "z_bound": bound, "balance_ratio": rep.balance_ratio}
        return checks, values, digest(rep.second_moment, rep.second_moment_se, [rep.balance_ratio])


class SinglePath:
    """Single-trajectory work, m = 1.

    * Criterion 5's budget refinement: ``dynamics.integrate`` on the
      SoftPower(4) 3-chain over t = 1, driven by ``PrecomputedNoise`` built
      from one fine Brownian path per sample path, at h = 1e-3, 5e-4 and
      2.5e-4 (4 paths per step size).
    * Criterion 8's counterexample: ``dynamics.integrate_deterministic``
      with its validity guard, h = 1e-4, until x2 <= 3.5.

    Per-step interpreter overhead in both stepping loops and per-call
    potential overhead dominate.
    """

    name = "single-path"
    paths = 4
    hs = (1e-3, 5e-4, 2.5e-4)
    t_end = 1.0
    c4_steps = 5170
    trajectories = paths * len(hs) + 1

    def __init__(self, seed: int):
        from oscnet.dynamics import State, hamiltonian
        from oscnet.fixtures import c4_counterexample_model, c4_initial_state
        from oscnet.model import chain_model
        from oscnet.potentials import SoftPower
        from oscnet.rng import seed_stream

        spec = SoftPower(degree=4, dim=1)
        self.model = chain_model(3, 1, pinning=spec, interaction=spec, temperatures=(1.0, 2.0))
        self.z0 = State(np.array([[1.0], [0.0], [-1.0]]), np.zeros((3, 1)))
        hamiltonian(self.model, self.z0)
        self.c4_model = c4_counterexample_model()
        self.c4_z0 = c4_initial_state()
        hamiltonian(self.c4_model, self.c4_z0)
        n_fine = int(round(self.t_end / self.hs[-1]))
        self.xi = [seed_stream(seed, path).standard_normal((n_fine, 2, 1))
                   for path in range(self.paths)]
        self.member_steps = (self.paths * sum(int(round(self.t_end / h)) for h in self.hs)
                             + self.c4_steps)

    def unit(self, inst, timed):
        from oscnet.dynamics import PrecomputedNoise, integrate, integrate_deterministic
        from oscnet.fixtures import c4_guard

        residuals = []
        for h in self.hs:
            with timed(f"integrate_h{h:g}"):
                for xi in self.xi:
                    noise = PrecomputedNoise.from_brownian(xi, self.hs[-1], h)
                    trace = integrate(self.model, self.z0, self.t_end, h, noise,
                                      record_every=10 ** 9)
                    residuals.append(trace.residual()[-1])
        with timed("integrate_deterministic"):
            c4 = integrate_deterministic(
                self.c4_model, self.c4_z0, t_end=5.0, h=1e-4, record_every=10, record_states=True,
                guard=c4_guard, stop_when=lambda s: s.q[1, 0] <= 3.5,
            )
        return np.array(residuals).reshape(len(self.hs), self.paths), c4

    def check(self, result):
        residuals, c4 = result
        rms = np.sqrt(np.mean(np.square(residuals), axis=1))
        ratios = rms[:-1] / rms[1:]
        p1 = np.array([s.p[0] for s in c4.states])
        q1 = np.array([s.q[0] for s in c4.states])
        x2 = np.array([s.q[1, 0] for s in c4.states])
        spring = self.c4_model.interaction[next(iter(self.c4_model.topology.edges))]
        f1 = np.array([spring.gradient(s.q[1] - s.q[0]) for s in c4.states])
        force_dev = float(np.max(np.abs(f1 - np.array([0.0, 1.0, 0.0]))))
        checks = {
            "finite": bool(np.all(np.isfinite(residuals))),
            "halving_ratios": bool(np.all((ratios >= 1.4) & (ratios <= 2.6))),
            "c4_p1_zero": float(np.max(np.abs(p1))) <= 1e-6,
            "c4_q1_fixed": float(np.max(np.abs(q1 - q1[0]))) <= 1e-6,
            "c4_force_pinned": force_dev <= 1e-8,
            "c4_x2_falls": bool(x2[0] == 4.0 and x2[-1] <= 3.5 and np.all(np.diff(x2) < 0)),
        }
        values = {"rms": rms.tolist(), "halving_ratios": ratios.tolist(),
                  "c4_max_abs_p1": float(np.max(np.abs(p1))), "c4_force_dev": force_dev}
        return checks, values, digest(residuals, c4.times, c4.H, p1, q1)


def grid_model(rows: int = 10, cols: int = 10):
    """rows x cols grid, left column as baths with temperatures rising
    linearly from 1 to 2; EvenPower(4) interaction, SoftPower(4) pinning."""
    from oscnet.model import BathSpec, Model
    from oscnet.potentials import EvenPower, SoftPower
    from oscnet.topology import Edge, NetworkTopology

    def vid(r, c):
        return r * cols + c

    edges = frozenset(
        [Edge(vid(r, c), vid(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
        + [Edge(vid(r, c), vid(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    )
    baths = {vid(r, 0): BathSpec(gamma=1.0, temperature=1.0 + r / (rows - 1)) for r in range(rows)}
    topo = NetworkTopology(vertex_count=rows * cols, edges=edges, baths=frozenset(baths))
    pin, inter = SoftPower(4, 1), EvenPower(4, 1)
    return Model(topology=topo, dim=1, pinning={v: pin for v in range(rows * cols)},
                 interaction={e: inter for e in edges}, baths=baths)


class WideNetwork:
    """``diagnostics.run_ensemble`` with energy thresholds, as in
    ``drift_estimate``, on the controlled 10x10 grid (N = 100, E = 180):
    m = 64 members from seeded normals, h = 1e-3, 2000 steps, record
    stride 10.

    The per-edge Python scatter in the force evaluation does most of the
    work here and little in the other simulation workloads.
    """

    name = "wide-network"
    members = 64
    h = 1e-3
    steps = 2000
    stride = 10
    trajectories = members

    def __init__(self, seed: int):
        from oscnet.dynamics import BatchIntegrator
        from oscnet.rng import seed_stream

        self.seed = seed
        self.model = grid_model()
        N = self.model.vertex_count
        rng = np.random.default_rng([seed, 0x9D1])
        self.p0 = rng.standard_normal((self.members, N, 1))
        self.q0 = 0.5 * rng.standard_normal((self.members, N, 1))
        bi = BatchIntegrator(self.model, self.p0, self.q0, self.h,
                             [seed_stream(seed, i) for i in range(self.members)])
        H0 = float(np.median(bi.H0))
        self.thresholds = (H0 / 2.0, 2.0 * H0)
        self.member_steps = self.members * self.steps

    def unit(self, inst, timed):
        from oscnet.diagnostics import run_ensemble

        with timed(self.name):
            return run_ensemble(self.model, self.p0, self.q0, self.h, self.steps, self.seed,
                                record_stride=self.stride, thresholds=self.thresholds)

    def check(self, out):
        t = self.steps * self.h
        residual = out.h_final - out.h_init + out.gamma - self.model.noise_work_rate * t - out.work
        closure = np.abs(residual) / np.abs(out.h_init)
        checks = {
            "finite": bool(np.all(np.isfinite(out.h_final)) and np.all(np.isfinite(residual))),
            "no_blown_members": not bool(np.any(out.blown)),
            "budget_closure": bool(np.all(closure <= 1e-3)),
        }
        values = {"max_budget_closure": float(np.max(closure))}
        return checks, values, digest(out.h_final, out.gamma, out.work, out.first_low, out.first_high)


class CliConfigs:
    """Six of the seven bundled ``configs/*.json`` through
    ``oscnet.cli.main``, in-process, into a scratch directory in the
    checkout, with ``--threads min(2, nproc)`` and ``--seed`` set to the
    benchmark seed.  ``decay_quadratic3`` is left out: one call takes 9 to
    12 s, too long to repeat often enough in a run for a steady timing.
    For the same reason two configs run as copies with a smaller
    experiment (``SCALED``), written to the scratch directory; the rest run
    as bundled.

    The only workload that exercises config parsing, runner artifacts and
    manifest hashing, the condition checks, the Lyapunov oracle, Gibbs
    sampling and the ensemble thread pool -- the ROADMAP's own definition
    of end to end.
    """

    name = "cli-configs"
    # Member-steps per config; none depends on the seed.
    config_member_steps = {
        "check_chain11": 0,
        "counterexample_c4": 5170,
        "dissipation_harmonic3": 3 * 200 * 500,
        "equilibrium_chain3": 1000 * 2000,
        "lyapunov_harmonic3": 200 * (1000 + 1000 + 1000),
        "simulate_chain3": 5000,
    }
    # Experiment settings replaced in the scaled copies (bundled values:
    # n_samples 4000, t_end 20.0).
    SCALED = {
        "equilibrium_chain3": {"n_samples": 1000},
        "simulate_chain3": {"t_end": 5.0},
    }
    trajectories = len(config_member_steps)

    def __init__(self, seed: int, root: Path, scratch: Path):
        import os

        from oscnet.config import parse_config

        self.seed = seed
        self.scratch = scratch
        self.threads = min(2, os.cpu_count() or 1)
        self.configs = []
        for stem in sorted(self.config_member_steps):
            path = root / "configs" / f"{stem}.json"
            if not path.is_file():
                raise SystemExit(f"error: no bundled config {path}")
            if stem in self.SCALED:
                raw = json.loads(path.read_text())
                raw["experiment"].update(self.SCALED[stem])
                path = scratch / path.name
                path.write_text(json.dumps(raw))
            self.configs.append((stem, parse_config(path.read_text()).kind, str(path)))
        self.member_steps = sum(self.config_member_steps.values())
        self._units = 0

    def unit(self, inst, timed):
        from oscnet import cli

        self._units += 1
        out = self.scratch / f"unit{self._units}"
        codes = {}
        for stem, kind, path in self.configs:
            with timed(stem), inst.span(f"cli.{stem}"):
                codes[stem] = cli.main([kind, "--config", path, "--out", str(out / stem),
                                        "--seed", str(self.seed), "--threads", str(self.threads)])
        return codes, out

    def check(self, result):
        codes, out = result
        reports = {}
        for stem, _, _ in self.configs:
            path = out / stem / "report.json"
            reports[stem] = json.loads(path.read_text()) if path.exists() else {}
        # timing.json holds wall-clock times, the only artifact allowed to
        # differ between reruns; the rest is byte-identical per seed.
        artifact_bytes = sum(f.stat().st_size for f in out.rglob("*")
                             if f.is_file() and f.name != "timing.json")
        h = hashlib.sha256()
        for stem, _, _ in self.configs:
            for name in ("report.json", "manifest.json"):
                path = out / stem / name
                h.update(path.read_bytes() if path.exists() else b"")
        shutil.rmtree(out, ignore_errors=True)

        checks = {f"exit_0.{stem}": code == 0 for stem, code in codes.items()}
        cond = reports["check_chain11"].get("conditions", {})
        checks["check_chain11.all_conditions"] = bool(cond) and all(
            cond[k]["ok"] for k in ("c1", "c2", "c3", "c4", "c5", "ca"))
        c4 = reports["counterexample_c4"]
        checks["counterexample_c4.verdict"] = (
            c4.get("max_abs_p1", 1.0) <= 1e-6 and c4.get("max_f1_deviation", 1.0) <= 1e-8
            and c4.get("x2_end", 4.0) <= 3.5)
        dis = reports["dissipation_harmonic3"].get("levels", [])
        checks["dissipation_harmonic3.tail"] = (
            len(dis) == 3 and dis[-1]["probability"] <= 0.05
            and all(dis[k + 1]["ci95"][0] <= dis[k]["ci95"][1] + 1e-12 for k in range(2)))
        zs = reports["equilibrium_chain3"].get("z_scores", {})
        checks["equilibrium_chain3.z_scores"] = (
            len(zs) == 4 and max(abs(v) for v in zs.values()) <= z_bound(len(zs)))
        lya = reports["lyapunov_harmonic3"]
        checks["lyapunov_harmonic3.drift_trend"] = (
            lya.get("inconclusive") is False and (lya.get("slope") or 0.0) < 0
            and all(lv["ci95"][1] < 1.0 for lv in lya.get("levels", [])))
        sim = reports["simulate_chain3"]
        checks["simulate_chain3.finite"] = all(
            isinstance(sim.get(k), float) and math.isfinite(sim[k])
            for k in ("H_last", "Gamma_last", "M_last", "residual_last"))
        values = {"artifact_bytes": artifact_bytes,
                  "equilibrium_max_abs_z": max((abs(v) for v in zs.values()), default=None)}
        return checks, values, h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (EnsembleOracle, SinglePath, WideNetwork, CliConfigs)}


def setup(name: str, seed: int, root: Path, scratch: Path):
    cls = WORKLOADS[name]
    if cls is CliConfigs:
        return cls(seed, root, scratch)
    return cls(seed)
