"""Experiment orchestration: one function per experiment kind, and one
writer of the artifacts every kind leaves in its output directory:

* ``manifest.json``  -- config hash, seed, tool version, command, status,
  and an inventory of produced files with sizes and SHA-256 digests.
  Deterministic: reruns with the same config and seed are byte-identical.
* ``timing.json``    -- wall-clock start/finish; the only file allowed to
  differ between identical reruns.
* ``report.json``    -- ``{"kind", "seed"}`` and the kind's report fields.
* ``*.csv``          -- the kind's tables, when ``output.formats`` lists
  ``csv``.  A numerical failure's ``trace_partial.csv`` is written
  whatever ``output.formats`` lists.
* ``states_*.npy``   -- state snapshots, where the kind keeps them,
  written whatever ``output.formats`` lists.

Exit status: 0 success, 1 validation failure (no artifacts), 2 numerical
failure (partial artifacts kept, marked), 3 statistically inconclusive
(the report's ``inconclusive`` field is true).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import check_conditions
from .config import ExperimentConfig
from .diagnostics import (
    dissipation_scan,
    drift_scan,
    gibbs_invariance_test,
    initial_state_at_energy,
    initial_state_on_slow_mode,
    observable_decay_fit,
)
from .dynamics import State, Trace, integrate, integrate_deterministic
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


def _csv(header: str, rows):
    """A writer of CSV text to a path: the header, then one line of
    ``repr`` values per row."""
    text = "".join([header + "\n", *(",".join(map(repr, row)) + "\n" for row in rows)])
    return lambda path: path.write_text(text)


def _trace_table(trace: Trace):
    columns = (trace.times, trace.H, trace.Hc, trace.Hi, trace.Gamma, trace.M, trace.residual())
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return _csv("t,H,Hc,Hi,Gamma,M,residual", rows)


class _Workspace:
    def __init__(self, directory: Path, config: ExperimentConfig, command: str, seed: int):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: set[str] = set()
        self.config_hash = hashlib.sha256(config.echo().encode()).hexdigest()
        self.command = command
        self.seed = seed
        self.started = time.time()
        self._write_manifest("running")

    def _write_manifest(self, status: str) -> None:
        outputs = []
        for name in sorted(self.files):
            path = self.dir / name
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            outputs.append({"name": name, "bytes": path.stat().st_size, "sha256": digest})
        doc = {
            "command": self.command,
            "config_sha256": self.config_hash,
            "outputs": outputs,
            "seed": self.seed,
            "status": status,
            "tool_version": __version__,
        }
        (self.dir / "manifest.json").write_text(_dump_json(doc))

    def path(self, name: str) -> Path:
        """Register ``name`` as an output of this run and return its path."""
        self.files.add(name)
        return self.dir / name

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
        for name in [*self.files, "manifest.json", "timing.json"]:
            path = self.dir / name
            if path.exists():
                path.unlink()
        try:
            self.dir.rmdir()
        except OSError:
            pass  # directory pre-existed or holds other files


@dataclass
class _Outcome:
    """What an experiment kind hands to :func:`run`: its report fields,
    its CSV tables as file name -> writer of that file to a path, and its
    arrays as file name -> array.  The tables follow ``output.formats``;
    the arrays are always saved, as plain .npy files whose bytes are the
    same on every rerun."""

    fields: dict
    tables: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)


def _initial_state(model, spec: dict) -> State:
    """The initial state ``spec`` describes; ``config`` has checked it."""
    kind = spec["kind"]
    if kind == "zero":
        return State.zero(model.vertex_count, model.dim)
    if kind == "energy":
        return initial_state_at_energy(model, spec["H0"], spec["mode"])
    if kind == "explicit":
        return State(np.asarray(spec["p"], dtype=float), np.asarray(spec["q"], dtype=float))
    try:  # "slow-mode"
        return initial_state_on_slow_mode(model, spec["scale"])
    except ValueError as exc:
        # No step has run: the config asks for a start this model lacks.
        raise ValueError(f"experiment.initial: {exc}") from exc


def run(config: ExperimentConfig, command: str | None = None,
        out_dir: str | None = None, seed: int | None = None) -> int:
    """Execute the configured experiment and persist its artifacts."""
    kind = config.kind
    if command is not None and command != kind:
        raise ValueError(f"command {command!r} does not match configured experiment kind {kind!r}")
    experiment = _RUNNERS[kind]
    seed = config.seed if seed is None else int(seed)
    directory = Path(out_dir if out_dir is not None else config.output["directory"])
    ws = _Workspace(directory, config, kind, seed)
    ws.path("config.echo.json").write_text(config.echo())
    try:
        outcome = experiment(config.model, config.experiment, seed)
    except (BlowupError, ValidityRegionError, OracleError) as exc:
        ws.path("report.json").write_text(
            _dump_json({"kind": kind, "seed": seed, "status": "partial", "error": str(exc)}))
        partial = getattr(exc, "partial_trace", None)
        if partial is not None:
            _trace_table(partial)(ws.path("trace_partial.csv"))
        ws.finalize("failed:numerical")
        return EXIT_NUMERICAL
    except ValueError:
        # A precondition the config layer could not see (needs the built
        # model); validation failures must leave no artifacts behind.
        ws.discard()
        raise
    ws.path("report.json").write_text(_dump_json({"kind": kind, "seed": seed, **outcome.fields}))
    if "csv" in config.output["formats"]:
        for name, write in outcome.tables.items():
            write(ws.path(name))
    for name, array in outcome.arrays.items():
        np.save(ws.path(name), array)
    if outcome.fields.get("inconclusive") is True:
        ws.finalize("inconclusive")
        return EXIT_INCONCLUSIVE
    ws.finalize("complete")
    return EXIT_OK


def _check(model, exp: dict, seed: int) -> _Outcome:
    report = check_conditions(
        model,
        nondegeneracy_samples=exp["nondegeneracy_samples"],
        sphere_samples=exp["sphere_samples"],
    )
    return _Outcome({"conditions": report.as_dict()})


def _simulate(model, exp: dict, seed: int) -> _Outcome:
    z0 = _initial_state(model, exp["initial"])
    trace = integrate(
        model, z0, exp["t_end"], exp["h"],
        seed_stream(seed, 0),
        record_every=exp["record_every"],
        record_states=exp["record_states"],
    )
    return _Outcome(
        {
            "h": exp["h"],
            "t_end": float(trace.times[-1]),
            "samples": int(len(trace.times)),
            "H_first": float(trace.H[0]),
            "H_last": float(trace.H[-1]),
            "Gamma_last": float(trace.Gamma[-1]),
            "M_last": float(trace.M[-1]),
            "residual_last": float(trace.residual()[-1]),
        },
        tables={"trace_main.csv": _trace_table(trace)},
        arrays={
            "states_steps.npy": trace.times,
            "states_p.npy": np.stack([s.p for s in trace.states]),
            "states_q.npy": np.stack([s.q for s in trace.states]),
        } if exp["record_states"] else {},
    )


def _equilibrium_test(model, exp: dict, seed: int) -> _Outcome:
    rep = gibbs_invariance_test(
        model,
        exp["observables"],
        exp["n_samples"],
        exp["t_check"],
        seed,
        h=exp["h"],
        sample_temperature=exp["sample_temperature"],
    )
    return _Outcome(asdict(rep))


def _lyapunov_scan(model, exp: dict, seed: int) -> _Outcome:
    conditions = check_conditions(model)
    starts = [initial_state_at_energy(model, H0, exp["placement"]) for H0 in exp["energy_grid"]]
    report = drift_scan(model, starts, exp["theta"], exp["t_star"], exp["ensemble"], seed,
                        h0=exp["h"])
    levels = _csv("H0,mean,se,ci_lo,ci_hi,n,A1,A2,A3,blowups,mean_gamma,h", [
        (lv.H0, lv.mean, lv.se, lv.ci95[0], lv.ci95[1], float(lv.n),
         float(lv.events["A1"]), float(lv.events["A2"]), float(lv.events["A3"]),
         float(lv.blowups), lv.mean_gamma, lv.h)
        for lv in report.levels
    ])
    return _Outcome(
        {"conditions_pass": conditions.all_pass, "c1_ok": conditions.c1_ok, **asdict(report),
         "placement": exp["placement"]},
        tables={"drift_levels.csv": levels},
    )


def _dissipation_scan(model, exp: dict, seed: int) -> _Outcome:
    starts = [initial_state_at_energy(model, H0, exp["placement"]) for H0 in exp["energy_grid"]]
    reports = dissipation_scan(model, starts, exp["lambda"], exp["epsilon"], exp["ensemble"], seed,
                               h0=exp["h"])
    return _Outcome({"levels": [asdict(rep) for rep in reports]})


def _decay_fit(model, exp: dict, seed: int) -> _Outcome:
    z0 = _initial_state(model, exp["initial"])
    rep = observable_decay_fit(
        model, exp["observable"], z0,
        horizon=exp["horizon"],
        ensemble=exp["ensemble"],
        seed=seed,
        h=exp["h"],
        grid_points=exp["grid_points"],
        stationary_samples=exp["stationary_samples"],
    )
    curve = _csv("t,curve,noise,in_fit", [(t, c, s, int(m)) for t, c, s, m in rep.curve_rows()])
    return _Outcome(
        {"observable": exp["observable"], **rep.as_dict()},
        tables={"decay_curve.csv": curve},
    )


def _counterexample_c4(model, exp: dict, seed: int) -> _Outcome:
    model = c4_counterexample_model()
    z0 = c4_initial_state()
    h = exp["h"]
    x_stop = exp["x_stop"]
    trace = integrate_deterministic(
        model, z0, t_end=5.0, h=h,
        record_every=max(1, int(round(1e-3 / h))),
        record_states=True,
        guard=c4_guard,
        stop_when=lambda s: s.q[1, 0] <= x_stop,
    )
    p = np.array([s.p for s in trace.states])
    q = np.array([s.q for s in trace.states])
    p1, q1, x2 = p[:, 0], q[:, 0], q[:, 1, 0]
    spring = model.interaction[next(iter(model.topology.edges))]
    f1 = spring.gradient(q[:, 1] - q[:, 0])
    rows = [[float(v) for v in (t, *p1[i], *q1[i], x2[i], *f1[i])]
            for i, t in enumerate(trace.times)]
    return _Outcome(
        {
            "h": h,
            "x2_start": float(x2[0]),
            "x2_end": float(x2[-1]),
            "t_end": float(trace.times[-1]),
            "max_abs_p1": float(np.max(np.abs(p1))),
            "max_q1_drift": float(np.max(np.abs(q1 - q1[0]))),
            "max_f1_deviation": float(np.max(np.abs(f1 - np.array([0.0, 1.0, 0.0])))),
            "energy_drift": float(np.max(np.abs(trace.H - trace.H[0]))),
        },
        tables={"trace_c4.csv": _csv("t,p1_0,p1_1,p1_2,q1_0,q1_1,q1_2,x2,f1_0,f1_1,f1_2", rows)},
    )


# One function per ``config.EXPERIMENT_KINDS`` entry.
_RUNNERS = {
    "check": _check,
    "simulate": _simulate,
    "equilibrium-test": _equilibrium_test,
    "lyapunov-scan": _lyapunov_scan,
    "dissipation-scan": _dissipation_scan,
    "decay-fit": _decay_fit,
    "counterexample-c4": _counterexample_c4,
}
