"""oscnet benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout (the program is imported from its
``src/``).  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics from a traced run.  ``--out`` also writes the full
result record (seed, machine, per-unit timings, checks, counts).  The exit
code is 0 only when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the cli-configs workload runs two ensemble pool threads
# and the machine may have only two cores.  Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# One CPU for the run and the set-up probes it starts.  On a few cores of
# a shared host, two pool threads spread over two CPUs wait on each other
# through the GIL whenever another tenant slows either CPU; on one CPU they
# take turns, and an operation's time follows the work it does.
PINNED_CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 5
READY = "perfbench-ready"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full result record here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import oscnet from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "oscnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no oscnet sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import oscnet

    if Path(oscnet.__file__).resolve().parent != (src / "oscnet").resolve():
        raise SystemExit(f"error: imported oscnet from {oscnet.__file__}, not from {src}")
    return oscnet


def _probe_setup(args) -> float:
    """Wall time from launching a fresh interpreter to the first timed unit
    being ready: interpreter start, imports, model/config build and
    integrator construction."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != READY or code != 0:
        raise SystemExit(f"error: setup probe failed (exit {code}, said {line!r})")
    return elapsed


def _calibrate() -> float:
    """A fixed loop timed in every run, to spot a slowed host.  Reported
    only; never used to scale a metric."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=float)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def _machine() -> dict:
    import platform

    import numpy as np
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "pinned_cpu": PINNED_CPU,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def _run_unit(wl, traced: bool):
    from instrument import Instrument, layer_metrics

    inst = Instrument(trace=traced)
    op_s = {}

    @contextmanager
    def timed(op):
        t0 = time.perf_counter()
        yield
        op_s[op] = time.perf_counter() - t0

    inst.install()
    try:
        t0 = time.perf_counter()
        with inst.span("bench.unit"):
            result = wl.unit(inst, timed)
        wall = time.perf_counter() - t0
    finally:
        inst.uninstall()
    counts = inst.counts()
    checks, values, result_digest = wl.check(result)
    layers = spans = None
    if traced:
        spans, names = inst.spans()
        layers = layer_metrics(spans, names, counts)
        layers["runner.artifact_bytes"] = values.get("artifact_bytes", 0)
        spans = (spans, names)
    return {
        "traced": traced,
        "wall_s": wall,
        "op_s": op_s,
        "counts": counts,
        "checks": checks,
        "values": values,
        "digest": result_digest,
        "layers": layers,
        "spans": spans,
    }


def _write_spans(path: Path, units) -> None:
    """The spans of every traced unit k as arrays ``unit<k>_spans`` (columns:
    span id, name id, parent span id, thread, start ns, end ns) and
    ``unit<k>_names`` (the name of each name id)."""
    import numpy as np

    arrays = {}
    for k, u in enumerate(units, start=1):
        if u["spans"] is not None:
            arrays[f"unit{k}_spans"], names = u["spans"]
            arrays[f"unit{k}_names"] = np.array(names)
    np.savez_compressed(path, **arrays)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            workloads.setup(args.workload, args.seed, ROOT, Path(tmp))
            print(READY, flush=True)
        return 0

    setup_samples = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    calibration = [_calibrate()]
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        wl = workloads.setup(args.workload, args.seed, ROOT, Path(tmp))
        # Units repeat while the next one is expected to end within the
        # measuring time.  Traced runs alternate untraced and traced units,
        # so that the tracing overhead is measured within the run.
        units = []
        min_units = 2 if args.trace else 1
        t_start = time.perf_counter()
        while len(units) < min_units or (time.perf_counter() - t_start
                                         + statistics.median(u["wall_s"] for u in units)
                                         <= args.seconds):
            units.append(_run_unit(wl, traced=bool(args.trace) and len(units) % 2 == 1))
            if len(units) == 1:
                # High-water mark of set-up plus one solution; later units
                # only add allocator fragmentation, which would make the
                # figure depend on how many units fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(_calibrate())

    # Correctness: every check of every unit, the declared work, and
    # bit-identical results across the run's units.
    attempted = failed = 0
    problems = []
    for k, u in enumerate(units):
        steps = u["counts"].get("dynamics.member_steps", 0)
        blown = u["counts"].get("dynamics.blown_members", 0)
        u["checks"]["member_steps_declared"] = steps == wl.member_steps
        u["checks"]["same_result_as_unit_1"] = u["digest"] == units[0]["digest"]
        attempted += wl.trajectories + len(u["checks"])
        failed += blown + sum(not ok for ok in u["checks"].values())
        problems += [f"unit {k + 1}: {name}" for name, ok in u["checks"].items() if not ok]
        if blown:
            problems.append(f"unit {k + 1}: {blown} blown members")
    correct = failed == 0

    # Every unit does the same work, as a fixed sequence of operations.
    # Other tenants of a shared host slow whole stretches of a run by up to
    # 1.5x, so an operation's time is its fastest repeat among the run's
    # untraced units (interference only ever adds time), and the time to
    # solution is the sum over the unit's operations.
    plain = [u for u in units if not u["traced"]]
    walls = [u["wall_s"] for u in plain]
    wall_s = sum(min(u["op_s"][op] for u in plain) for op in plain[0]["op_s"])
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "member_steps_per_s": (wl.member_steps / wall_s, "member-steps/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "completed_ratio": (1.0 - failed / attempted, "ratio"),
    }
    per_layer = {}
    traced = [u for u in units if u["traced"]]
    if traced:
        from instrument import PER_LAYER

        overhead = statistics.median(u["wall_s"] for u in traced) / statistics.median(walls) - 1.0
        for key, unit in PER_LAYER.items():
            if key == "trace.overhead_ratio":
                value = overhead
            elif key == "host.calibration_s":
                value = statistics.median(calibration)
            else:
                value = statistics.fmean(u["layers"][key] for u in traced)
            per_layer[key] = (value, unit)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "calibration_s": calibration,
        "setup_samples_s": setup_samples,
        "units": [{k: u[k] for k in ("traced", "wall_s", "op_s", "counts", "checks", "values",
                                     "digest")}
                  for u in units],
        "declared_member_steps": wl.member_steps,
        "problems": problems,
        "end_to_end": {k: {"value": v, "unit": unit} for k, (v, unit) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": unit} for k, (v, unit) in per_layer.items()},
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        if traced:
            _write_spans(out.with_name(out.stem + ".spans.npz"), units)

    print(f"workload {args.workload}  seed {args.seed}  units {len(units)} "
          f"({len(traced)} traced)  correct {correct}")
    for name in problems:
        print(f"  FAILED {name}")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"  calibration_s {' '.join(f'{c:.4f}' for c in calibration)}")
    print(f"  unit wall_s over {len(walls)} untraced units: min {min(walls):.4f} "
          f"median {statistics.median(walls):.4f} max {max(walls):.4f}")
    shown = per_layer if args.trace else end_to_end
    for key, (value, unit) in shown.items():
        print(f"  {key:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
