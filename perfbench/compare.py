"""Compare benchmark result sets by the rule in perfbench/README.md.

    # steadiness of one set: median, quartiles, spread against each bound
    python3 perfbench/compare.py spread DIR

    # run alternating pairs of two checkouts (same seed within a pair,
    # a fresh seed per pair, the side that runs first alternating)
    python3 perfbench/compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload NAME [--pairs 10] [--seed 1] --out DIR

    # verdict per workload and end-to-end metric
    python3 perfbench/compare.py report PARENT_DIR CHANGE_DIR

DIR holds result records written by ``run.py --out``; ``pairs`` writes
them to DIR/parent and DIR/change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load_bench() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load_records(directory) -> dict:
    """{(workload, seed): record} for every end-to-end record in ``directory``."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def metric_values(records, workload, name):
    return [rec["end_to_end"][name]["value"] for (w, _), rec in sorted(records.items())
            if w == workload]


def cmd_spread(args) -> int:
    bench = load_bench()
    records = load_records(args.dir)
    worst = 0.0
    print(f"{'workload':16s} {'metric':20s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            vals = metric_values(records, wl, m["name"])
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
                flag = "  over bound" if s > m["bound"] else (
                    "  over bound/3" if s > m["bound"] / 3 else "")
            print(f"{wl:16s} {m['name']:20s} {len(vals):3d} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.4f} {m['bound']:6.3f}{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def verdict(parent, change, bound, better) -> tuple[str, float]:
    """Apply the rule to paired values; returns (verdict, win share)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if share >= WIN_SHARE and gain > (p3 - p1):
        return "gain", share
    if spread(parent) > bound and not (all_better or all_worse):
        return "unresolved", share
    if -gain > bound * abs(pm):
        return "regression", share
    return "no regression", share


def cmd_report(args) -> int:
    bench = load_bench()
    parent = load_records(args.parent)
    change = load_records(args.change)
    regressions = 0
    print(f"{'workload':16s} {'metric':20s} {'n':>3s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>5s}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        keys = sorted(k for k in parent if k[0] == wl and k in change)
        if not keys:
            continue
        for m in bench["end_to_end"]:
            p = [parent[k]["end_to_end"][m["name"]]["value"] for k in keys]
            c = [change[k]["end_to_end"][m["name"]]["value"] for k in keys]
            v, share = verdict(p, c, m["bound"], m["better"])
            regressions += v == "regression"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{wl:16s} {m['name']:20s} {len(keys):3d} "
                  f"{pq[1]:12.6g} [{pq[0]:10.6g}, {pq[2]:10.6g}] "
                  f"{cq[1]:12.6g} [{cq[0]:10.6g}, {cq[2]:10.6g}] {share:5.2f}  {v}")
    return 1 if regressions else 0


def cmd_pairs(args) -> int:
    bench = load_bench()
    out = Path(args.out)
    sides = {"parent": Path(args.parent_checkout), "change": Path(args.change_checkout)}
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            record = (out / side / f"{args.workload}-{seed}.json").resolve()
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0", "--out", str(record)]
            code = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL).returncode
            print(f"pair {i + 1}/{args.pairs} {side:6s} seed {seed} exit {code}", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    rp = sub.add_parser("report")
    rp.add_argument("parent")
    rp.add_argument("change")
    pp = sub.add_parser("pairs")
    pp.add_argument("parent_checkout")
    pp.add_argument("change_checkout")
    pp.add_argument("--workload", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--seed", type=int, default=1)
    pp.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return {"spread": cmd_spread, "report": cmd_report, "pairs": cmd_pairs}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
