"""Layer instrumentation installed from outside the program.

The benchmark never edits ``src/``.  It wraps the public functions of each
oscnet module at run time, in every place a caller looks the name up
(``diagnostics`` and ``runner`` hold their own references to
``seed_stream``, ``integrate`` and so on), and restores the originals
afterwards.

Two levels:

* counting (``trace=False``, every run): exact work counts at coarse
  boundaries -- member-steps and blown members per integrator run, normals
  per noise draw, record callbacks.  No clock is read.
* tracing (``trace=True``): additionally a span per call at every layer
  boundary (name, start, end, parent span, thread).  Spans stay in memory
  and are reduced to per-layer figures when the unit ends.

Parents are tracked per thread.  A span opened in a worker thread whose
own stack is empty takes the innermost open span of the thread that made
the instrument as its parent: the only worker threads in a run are the
ensemble pool threads, started and waited for by a diagnostics call on
that thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span record layout in the flat per-thread arrays.
_SID, _NAME, _PARENT, _THREAD, _START, _END = range(6)
_FIELDS = 6

# The bundled configs, one span each in the cli-configs workload.
CLI_CONFIGS = ("check_chain11", "counterexample_c4", "dissipation_harmonic3",
               "equilibrium_chain3", "lyapunov_harmonic3", "simulate_chain3")

# Every per-layer metric with its unit, in report order.  A layer that does
# no work on a workload reports 0.
PER_LAYER = {
    "dynamics.self_s": "s",
    "dynamics.self_ns_per_member_step": "ns",
    "dynamics.setup_s": "s",
    "dynamics.member_steps": "count",
    "dynamics.blown_members": "count",
    "potentials.gradient_calls": "count",
    "potentials.gradient_s": "s",
    "potentials.gradient_ns_per_point": "ns",
    "potentials.value_calls": "count",
    "potentials.value_s": "s",
    "rng.draw_calls": "count",
    "rng.normals_drawn": "count",
    "rng.draw_s": "s",
    "rng.streams": "count",
    "rng.seed_stream_s": "s",
    "diagnostics.records": "count",
    "diagnostics.record_s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.oracle_s": "s",
    "diagnostics.sample_gibbs_s": "s",
    "diagnostics.effective_sample_ratio": "ratio",
    "conditions.check_calls": "count",
    "conditions.check_s": "s",
    "config.parse_s": "s",
    "runner.self_s": "s",
    "runner.artifact_bytes": "count",
    **{f"cli.{stem}_s": "s" for stem in CLI_CONFIGS},
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "host.calibration_s": "s",
}

# Public entry points of ``oscnet.diagnostics`` that get a span each.
DIAGNOSTICS_ENTRY_POINTS = (
    "gaussian_stationary_covariance",
    "run_ensemble",
    "stationary_moment_test",
    "initial_state_at_energy",
    "drift_estimate",
    "drift_scan",
    "dissipation_tail",
    "observable_decay_fit",
    "sample_gibbs",
    "gibbs_invariance_test",
)


class _Thread:
    """Per-thread span stack, span buffer and counters."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.spans = array("q")
        self.counts: dict[str, int] = {}


class Instrument:
    """Counters (always) and spans (when ``trace``) for one timed unit."""

    def __init__(self, trace: bool):
        self.trace = trace
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._register = threading.Lock()
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._main = self._thread()

    # -- per-thread state ------------------------------------------------

    def _thread(self) -> _Thread:
        th = getattr(self._local, "th", None)
        if th is None:
            with self._register:
                th = _Thread(len(self._threads))
                self._threads.append(th)
            self._local.th = th
        return th

    def add(self, key: str, value: int) -> None:
        counts = self._thread().counts
        counts[key] = counts.get(key, 0) + int(value)

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for th in self._threads:
            for key, value in th.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _enter(self, nid: int):
        th = self._thread()
        stack = th.stack
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._main.stack
            parent = main_stack[-1] if (th is not self._main and main_stack) else 0
        sid = next(self._ids)
        stack.append(sid)
        return th, sid, nid, parent, time.perf_counter_ns()

    @staticmethod
    def _leave(frame) -> None:
        end = time.perf_counter_ns()
        th, sid, nid, parent, start = frame
        th.stack.pop()
        th.spans.extend((sid, nid, parent, th.index, start, end))

    @contextmanager
    def span(self, name: str):
        """Span around benchmark code; a no-op when not tracing."""
        if not self.trace:
            yield
            return
        frame = self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._leave(frame)

    def spans(self) -> tuple[np.ndarray, list[str]]:
        """All recorded spans as an (n, 6) int64 array, and the name table."""
        parts = [np.frombuffer(th.spans, dtype=np.int64).reshape(-1, _FIELDS)
                 for th in self._threads if len(th.spans)]
        if not parts:
            return np.zeros((0, _FIELDS), dtype=np.int64), list(self._names)
        return np.concatenate(parts), list(self._names)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span named ``name`` (when tracing) and an optional
        ``after(args, kwargs, result)`` hook that updates counters."""
        if self.trace:
            nid = self.name_id(name)
            enter, leave = self._enter, self._leave

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                if after is not None:
                    after(args, kwargs, result)
                return result
        elif after is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
        else:
            return fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, replacement) -> None:
        """Replace ``original`` in every module namespace that holds it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported oscnet package."""
        from oscnet import conditions, config, diagnostics, dynamics, potentials, rng, runner

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "oscnet" or name.startswith("oscnet."))]
        inst = self

        # rng: every stream handed to the program is a counting proxy.
        orig_seed_stream = rng.seed_stream
        draw_nid = self.name_id("rng.draw")

        class Stream:
            __slots__ = ("_gen",)

            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, *args, **kwargs):
                if inst.trace:
                    frame = inst._enter(draw_nid)
                    try:
                        out = self._gen.standard_normal(*args, **kwargs)
                    finally:
                        inst._leave(frame)
                else:
                    out = self._gen.standard_normal(*args, **kwargs)
                inst.add("rng.draw_calls", 1)
                inst.add("rng.normals_drawn", np.size(out))
                return out

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        def count_stream(args, kwargs, result):
            inst.add("rng.streams", 1)

        traced_seed_stream = self.wrap("rng.seed_stream", orig_seed_stream, count_stream)

        @functools.wraps(orig_seed_stream)
        def seed_stream(seed, index=0):
            return Stream(traced_seed_stream(seed, index))

        self._patch_everywhere(modules, orig_seed_stream, seed_stream)

        def count_draw(args, kwargs, result):
            inst.add("rng.draw_calls", 1)
            inst.add("rng.normals_drawn", np.size(result))

        self._patch(dynamics.PrecomputedNoise, "standard_normal",
                    self.wrap("rng.draw", dynamics.PrecomputedNoise.standard_normal, count_draw))

        # dynamics: the three stepping loops and integrator construction.
        BI = dynamics.BatchIntegrator
        record_nid = self.name_id("diagnostics.record")
        orig_run = self.wrap("dynamics.BatchIntegrator.run", BI.run)

        @functools.wraps(BI.run)
        def run(bi, n_steps, record_stride=1, on_record=None):
            if on_record is not None:
                callback = on_record

                def on_record(*args):
                    inst.add("diagnostics.records", 1)
                    if not inst.trace:
                        return callback(*args)
                    frame = inst._enter(record_nid)
                    try:
                        return callback(*args)
                    finally:
                        inst._leave(frame)

            orig_run(bi, n_steps, record_stride=record_stride, on_record=on_record)
            inst.add("dynamics.member_steps", int(n_steps) * bi.m)
            inst.add("dynamics.blown_members", int(np.count_nonzero(bi.blown)))

        self._patch(BI, "run", run)
        if self.trace:
            self._patch(BI, "__init__", self.wrap("dynamics.BatchIntegrator.__init__", BI.__init__))

        def count_path(args, kwargs, trace):
            h = kwargs["h"] if "h" in kwargs else args[3]
            inst.add("dynamics.member_steps", int(round(float(trace.times[-1]) / h)))

        for fname in ("integrate", "integrate_deterministic"):
            orig = getattr(dynamics, fname)
            self._patch_everywhere(modules, orig, self.wrap(f"dynamics.{fname}", orig, count_path))

        if not self.trace:
            return

        # potentials: the three analytic families.
        def count_points(kind):
            def after(args, kwargs, result):
                spec, x = args[0], args[1]
                inst.add(f"potentials.{kind}_calls", 1)
                inst.add(f"potentials.{kind}_points", np.size(x) // spec.dim)
            return after

        for cls in (potentials.SoftPower, potentials.EvenPower, potentials.Quadratic):
            for kind in ("gradient", "value"):
                self._patch(cls, kind, self.wrap(f"potentials.{kind}",
                                                 cls.__dict__[kind], count_points(kind)))

        # diagnostics, conditions, config, runner: public entry points.
        def effective_samples(args, kwargs, report):
            inst.add("diagnostics.effective_samples", report.effective_samples)
            inst.add("diagnostics.recorded_samples", report.recorded_samples)

        for fname in DIAGNOSTICS_ENTRY_POINTS:
            orig = getattr(diagnostics, fname)
            after = effective_samples if fname == "stationary_moment_test" else None
            self._patch_everywhere(modules, orig, self.wrap(f"diagnostics.{fname}", orig, after))

        def count_check(args, kwargs, result):
            inst.add("conditions.check_calls", 1)

        for owner, fname, span in ((conditions, "check_conditions", "conditions.check_conditions"),
                                   (config, "parse_config", "config.parse_config"),
                                   (runner, "run", "runner.run")):
            orig = getattr(owner, fname)
            after = count_check if owner is conditions else None
            self._patch_everywhere(modules, orig, self.wrap(span, orig, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals: np.ndarray) -> int:
    """Length of the union of [start, end) intervals, shape (k, 2)."""
    order = np.argsort(intervals[:, 0], kind="stable")
    total = 0
    cur_start = cur_end = None
    for start, end in intervals[order].tolist():
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per span: duration minus the part of it that child spans cover (ns).

    Children on the parent's own thread nest and never overlap, so their
    durations add up.  Children on other threads (ensemble pool workers)
    run concurrently, so for those parents the union of intervals is used.
    """
    n = len(spans)
    dur = spans[:, _END] - spans[:, _START]
    if n == 0:
        return dur
    pos_of = np.full(int(spans[:, _SID].max()) + 1, -1, dtype=np.int64)
    pos_of[spans[:, _SID]] = np.arange(n)
    ppos = pos_of[spans[:, _PARENT]]
    ppos[spans[:, _PARENT] == 0] = -1
    children = np.nonzero(ppos >= 0)[0]
    same = spans[children, _THREAD] == spans[ppos[children], _THREAD]
    covered = np.zeros(n, dtype=np.int64)
    np.add.at(covered, ppos[children[same]], dur[children[same]])
    for p in np.unique(ppos[children[~same]]):
        kids = children[ppos[children] == p]
        covered[p] = _covered(spans[kids][:, [_START, _END]])
    return dur - covered


def layer_metrics(spans: np.ndarray, names: list[str], counts: dict[str, int]) -> dict[str, float]:
    """Reduce one traced unit's spans and counters to the per-layer figures
    of PER_LAYER, except those only the whole run can give (artifact bytes,
    tracing overhead, host calibration)."""
    dur = spans[:, _END] - spans[:, _START]
    self_ns = self_times(spans)
    total_s = {nm: float(dur[spans[:, _NAME] == i].sum()) / 1e9 for i, nm in enumerate(names)}
    self_s = {nm: float(self_ns[spans[:, _NAME] == i].sum()) / 1e9 for i, nm in enumerate(names)}

    def tot(nm):
        return total_s.get(nm, 0.0)

    def slf(nm):
        return self_s.get(nm, 0.0)

    def count(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    dyn_self = sum(slf(nm) for nm in ("dynamics.BatchIntegrator.run", "dynamics.integrate",
                                      "dynamics.integrate_deterministic"))
    out = {
        "dynamics.self_s": dyn_self,
        "dynamics.self_ns_per_member_step": ratio(dyn_self * 1e9, count("dynamics.member_steps")),
        "dynamics.setup_s": tot("dynamics.BatchIntegrator.__init__"),
        "dynamics.member_steps": count("dynamics.member_steps"),
        "dynamics.blown_members": count("dynamics.blown_members"),
        "potentials.gradient_calls": count("potentials.gradient_calls"),
        "potentials.gradient_s": tot("potentials.gradient"),
        "potentials.gradient_ns_per_point": ratio(tot("potentials.gradient") * 1e9,
                                                  count("potentials.gradient_points")),
        "potentials.value_calls": count("potentials.value_calls"),
        "potentials.value_s": tot("potentials.value"),
        "rng.draw_calls": count("rng.draw_calls"),
        "rng.normals_drawn": count("rng.normals_drawn"),
        "rng.draw_s": tot("rng.draw"),
        "rng.streams": count("rng.streams"),
        "rng.seed_stream_s": tot("rng.seed_stream"),
        "diagnostics.records": count("diagnostics.records"),
        "diagnostics.record_s": tot("diagnostics.record"),
        "diagnostics.self_s": sum(slf(f"diagnostics.{fn}") for fn in DIAGNOSTICS_ENTRY_POINTS),
        "diagnostics.oracle_s": tot("diagnostics.gaussian_stationary_covariance"),
        "diagnostics.sample_gibbs_s": tot("diagnostics.sample_gibbs"),
        "diagnostics.effective_sample_ratio": ratio(count("diagnostics.effective_samples"),
                                                    count("diagnostics.recorded_samples")),
        "conditions.check_calls": count("conditions.check_calls"),
        "conditions.check_s": tot("conditions.check_conditions"),
        "config.parse_s": tot("config.parse_config"),
        "runner.self_s": slf("runner.run"),
        "trace.unattributed_s": slf("bench.unit"),
    }
    for stem in CLI_CONFIGS:
        out[f"cli.{stem}_s"] = tot(f"cli.{stem}")
    return out
