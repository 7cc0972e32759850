"""Experiment orchestration: dispatch, deterministic artifacts, manifests.

Every run writes into its output directory:

* ``manifest.json``  -- config hash, seed, tool version, command, status,
  and an inventory of produced files with sizes and SHA-256 digests.
  Deterministic: reruns with the same config and seed are byte-identical.
* ``timing.json``    -- wall-clock start/finish; the only file allowed to
  differ between identical reruns.
* ``report.json``    -- the experiment's result document.
* ``trace_*.csv``    -- time series where the experiment produces one.

Exit status: 0 success, 1 validation failure (no artifacts), 2 numerical
failure (partial artifacts kept, marked), 3 statistically inconclusive.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import check_conditions
from .config import ExperimentConfig
from .diagnostics import (
    DriftConfig,
    dissipation_tail,
    drift_scan,
    gaussian_stationary_covariance,
    gibbs_invariance_test,
    initial_state_at_energy,
    observable_decay_fit,
)
from .dynamics import State, TimescaleRule, Trace, integrate, integrate_deterministic
from .errors import BlowupError, OracleError, ValidityRegionError
from .fixtures import c4_counterexample_model, c4_guard, c4_initial_state
from .rng import seed_stream

__all__ = ["run", "EXIT_OK", "EXIT_VALIDATION", "EXIT_NUMERICAL", "EXIT_INCONCLUSIVE"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_INCONCLUSIVE = 3


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Workspace:
    def __init__(self, directory: Path, config: ExperimentConfig, command: str, seed: int):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []
        self.config_hash = hashlib.sha256(config.echo().encode()).hexdigest()
        self.command = command
        self.seed = seed
        self.started = time.time()
        self._write_manifest("running")

    def _write_manifest(self, status: str) -> None:
        outputs = []
        for name in sorted(self.files):
            path = self.dir / name
            outputs.append({"name": name, "bytes": path.stat().st_size, "sha256": _sha256(path)})
        doc = {
            "command": self.command,
            "config_sha256": self.config_hash,
            "outputs": outputs,
            "seed": self.seed,
            "status": status,
            "tool_version": __version__,
        }
        (self.dir / "manifest.json").write_text(_dump_json(doc))

    def write_text(self, name: str, text: str) -> None:
        (self.dir / name).write_text(text)
        if name not in self.files:
            self.files.append(name)

    def write_report(self, doc) -> None:
        self.write_text("report.json", _dump_json(doc))

    def write_trace(self, name: str, trace: Trace) -> None:
        trace.to_csv(self.dir / name)
        if name not in self.files:
            self.files.append(name)

    def write_states(self, prefix: str, trace: Trace) -> None:
        for path in trace.save_states(self.dir / prefix):
            name = Path(path).name
            if name not in self.files:
                self.files.append(name)

    def finalize(self, status: str) -> None:
        finished = time.time()
        self._write_manifest(status)
        (self.dir / "timing.json").write_text(_dump_json({
            "started": self.started,
            "finished": finished,
            "wall_seconds": finished - self.started,
        }))

    def discard(self) -> None:
        """Remove everything this run wrote (validation failures leave no
        partial artifacts behind)."""
        for name in self.files + ["manifest.json", "timing.json"]:
            path = self.dir / name
            if path.exists():
                path.unlink()
        try:
            self.dir.rmdir()
        except OSError:
            pass  # directory pre-existed or holds other files


def _initial_state(config: ExperimentConfig, spec: dict) -> State:
    model = config.model
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return State.zero(model.vertex_count, model.dim)
    if kind == "energy":
        return initial_state_at_energy(model, float(spec["H0"]), spec.get("mode", "interaction"))
    if kind == "explicit":
        return State(np.asarray(spec["p"], dtype=float), np.asarray(spec["q"], dtype=float))
    if kind == "slow-mode":
        oracle = gaussian_stationary_covariance(model)
        evals, evecs = np.linalg.eig(oracle.drift)
        v = evecs[:, int(np.argmax(evals.real))].real
        v = v / np.linalg.norm(v)
        scale = float(spec.get("scale", 30.0))
        d = model.vertex_count * model.dim
        return State(
            (scale * v[:d]).reshape(model.vertex_count, model.dim),
            (scale * v[d:]).reshape(model.vertex_count, model.dim),
        )
    raise ValueError(f"unknown initial-state kind {kind!r}")


def _step_size(config: ExperimentConfig) -> float:
    h = config.experiment.get("h")
    return float(h) if h else float(config.integrator["h0"])


def _rule_for(model) -> TimescaleRule:
    degrees = model.common_degrees()
    if degrees is None:
        raise ValueError("energy scans need common interaction and pinning degrees")
    li, lp = degrees
    return TimescaleRule(lam=1.0, li=li, lp=lp)


def run(config: ExperimentConfig, command: str | None = None,
        out_dir: str | None = None, seed: int | None = None) -> int:
    """Execute the configured experiment and persist its artifacts."""
    kind = config.kind
    if command is not None and command != kind:
        raise ValueError(f"command {command!r} does not match configured experiment kind {kind!r}")
    seed = config.seed if seed is None else int(seed)
    directory = Path(out_dir if out_dir is not None else config.output["directory"])
    ws = _Workspace(directory, config, kind, seed)
    ws.write_text("config.echo.json", config.echo())
    try:
        status, code = _dispatch(config, kind, seed, ws)
    except (BlowupError, ValidityRegionError) as exc:
        ws.write_report({"status": "partial", "error": str(exc), "kind": kind})
        if isinstance(exc, BlowupError) and exc.partial_trace is not None:
            ws.write_trace("trace_partial.csv", exc.partial_trace)
        ws.finalize("failed:numerical")
        return EXIT_NUMERICAL
    except OracleError as exc:
        ws.write_report({"status": "partial", "error": str(exc), "kind": kind})
        ws.finalize("failed:numerical")
        return EXIT_NUMERICAL
    except ValueError:
        # A precondition the config layer could not see (needs the built
        # model); validation failures must leave no artifacts behind.
        ws.discard()
        raise
    ws.finalize(status)
    return code


def _dispatch(config: ExperimentConfig, kind: str, seed: int, ws: _Workspace):
    exp = config.experiment
    if kind == "check":
        report = check_conditions(
            config.model,
            nondegeneracy_samples=int(exp["nondegeneracy_samples"]),
            sphere_samples=int(exp["sphere_samples"]),
        )
        ws.write_report({"kind": kind, "seed": seed, "conditions": report.as_dict()})
        return "complete", EXIT_OK

    if kind == "simulate":
        h = _step_size(config)
        z0 = _initial_state(config, exp["initial"])
        record_states = bool(exp.get("record_states"))
        trace = integrate(
            config.model, z0, float(exp["t_end"]), h,
            seed_stream(seed, 0),
            record_every=int(exp["record_every"]),
            record_states=record_states,
            seed_info={"seed": seed, "stream": 0},
        )
        if "csv" in config.output["formats"]:
            ws.write_trace("trace_main.csv", trace)
        if record_states:
            ws.write_states("states", trace)
        ws.write_report({
            "kind": kind,
            "seed": seed,
            "h": h,
            "t_end": float(trace.times[-1]),
            "samples": int(len(trace.times)),
            "H_first": float(trace.H[0]),
            "H_last": float(trace.H[-1]),
            "Gamma_last": float(trace.Gamma[-1]),
            "M_last": float(trace.M[-1]),
            "residual_last": float(trace.residual()[-1]),
        })
        return "complete", EXIT_OK

    if kind == "equilibrium-test":
        rep = gibbs_invariance_test(
            config.model,
            list(exp["observables"]),
            int(exp["n_samples"]),
            float(exp["t_check"]),
            seed,
            h=float(exp["h"]),
            sample_temperature=exp.get("sample_temperature"),
        )
        ws.write_report({"kind": kind, "seed": seed, **rep.as_dict()})
        return "complete", EXIT_OK

    if kind == "lyapunov-scan":
        model = config.model
        rule = _rule_for(model)
        rule = TimescaleRule(lam=float(exp["lambda"]), li=rule.li, lp=rule.lp)
        cfg = DriftConfig(
            theta=float(exp["theta"]),
            t_star=float(exp["t_star"]),
            ensemble=int(exp["ensemble"]),
            energy_grid=tuple(exp["energy_grid"]),
            rule=rule,
            placement=exp["placement"],
            h0=float(config.integrator["h0"]),
        )
        conditions = check_conditions(model)
        report = drift_scan(model, cfg, seed)
        ws.write_report({
            "kind": kind,
            "seed": seed,
            "conditions_pass": conditions.all_pass,
            "c1_ok": conditions.c1_ok,
            **report.as_dict(),
        })
        rows = ["H0,mean,se,ci_lo,ci_hi,n,A1,A2,A3,blowups,mean_gamma,h"]
        write_levels = "csv" in config.output["formats"]
        for lv in report.levels:
            rows.append(",".join(repr(v) for v in (
                lv.H0, lv.mean, lv.se, lv.ci95[0], lv.ci95[1], float(lv.n),
                float(lv.events["A1"]), float(lv.events["A2"]), float(lv.events["A3"]),
                float(lv.blowups), lv.mean_gamma, lv.h,
            )))
        if write_levels:
            ws.write_text("drift_levels.csv", "\n".join(rows) + "\n")
        if report.inconclusive:
            return "inconclusive", EXIT_INCONCLUSIVE
        return "complete", EXIT_OK

    if kind == "dissipation-scan":
        model = config.model
        rule = _rule_for(model)
        rule = TimescaleRule(lam=float(exp["lambda"]), li=rule.li, lp=rule.lp)
        levels = []
        for k, H0 in enumerate(exp["energy_grid"]):
            z0 = initial_state_at_energy(model, float(H0), exp["placement"])
            rep = dissipation_tail(
                model, z0, rule, float(exp["epsilon"]), int(exp["ensemble"]),
                seed + k, h0=float(config.integrator["h0"]),
            )
            levels.append(rep.as_dict())
        ws.write_report({"kind": kind, "seed": seed, "levels": levels})
        return "complete", EXIT_OK

    if kind == "decay-fit":
        model = config.model
        z0 = _initial_state(config, exp["initial"])
        rep = observable_decay_fit(
            model, exp["observable"], z0,
            horizon=float(exp["horizon"]),
            ensemble=int(exp["ensemble"]),
            seed=seed,
            h=float(exp["h"]),
            grid_points=int(exp["grid_points"]),
            stationary_samples=int(exp["stationary_samples"]),
        )
        doc = {"kind": kind, "seed": seed, "observable": exp["observable"], **rep.as_dict()}
        try:
            oracle = gaussian_stationary_covariance(model)
            doc["oracle_slowest_rate"] = oracle.slowest_decay_rate
        except (ValueError, OracleError):
            pass
        ws.write_report(doc)
        if "csv" in config.output["formats"]:
            rows = ["t,curve,noise,in_fit"]
            for t, c, s, m in rep.curve_rows():
                rows.append(f"{t!r},{c!r},{s!r},{int(m)}")
            ws.write_text("decay_curve.csv", "\n".join(rows) + "\n")
        if rep.inconclusive:
            return "inconclusive", EXIT_INCONCLUSIVE
        return "complete", EXIT_OK

    if kind == "counterexample-c4":
        model = c4_counterexample_model()
        z0 = c4_initial_state()
        h = float(exp["h"])
        x_stop = float(exp["x_stop"])
        trace = integrate_deterministic(
            model, z0, t_end=5.0, h=h,
            record_every=max(1, int(round(1e-3 / h))),
            record_states=True,
            guard=c4_guard,
            stop_when=lambda s: s.q[1, 0] <= x_stop,
        )
        p1 = np.array([s.p[0] for s in trace.states])
        q1 = np.array([s.q[0] for s in trace.states])
        x2 = np.array([s.q[1, 0] for s in trace.states])
        spring = model.interaction[next(iter(model.topology.edges))]
        f1 = np.array([spring.gradient(s.q[1] - s.q[0]) for s in trace.states])
        rows = ["t,p1_0,p1_1,p1_2,q1_0,q1_1,q1_2,x2,f1_0,f1_1,f1_2"]
        for i, t in enumerate(trace.times):
            vals = [t, *p1[i], *q1[i], x2[i], *f1[i]]
            rows.append(",".join(repr(float(v)) for v in vals))
        ws.write_text("trace_c4.csv", "\n".join(rows) + "\n")
        ws.write_report({
            "kind": kind,
            "seed": seed,
            "h": h,
            "x2_start": float(x2[0]),
            "x2_end": float(x2[-1]),
            "t_end": float(trace.times[-1]),
            "max_abs_p1": float(np.max(np.abs(p1))),
            "max_q1_drift": float(np.max(np.abs(q1 - q1[0]))),
            "max_f1_deviation": float(np.max(np.abs(f1 - np.array([0.0, 1.0, 0.0])))),
            "energy_drift": float(np.max(np.abs(trace.H - trace.H[0]))),
        })
        return "complete", EXIT_OK

    raise ValueError(f"unknown experiment kind {kind!r}")
