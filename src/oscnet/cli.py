"""Command-line entry point.

Usage:
    oscnet <command> --config <path> [--seed N] [--out DIR] [--threads N]
    oscnet fixtures

Commands are the experiment kinds; the config's ``experiment.kind`` must
agree with the command.  ``fixtures`` lists the built-in topologies and
the bundled counterexample model.  ``--threads`` is accepted for
compatibility and has no effect: ensembles run on one thread, and their
results never depended on the thread count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EXPERIMENT_KINDS, parse_config, seed_problem
from .errors import ConfigError
from .runner import EXIT_VALIDATION, run
from .topology import builtin_fixture, controls, fixture_names, fixture_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscnet",
        description="Simulation and verification toolkit for oscillator networks "
                    "coupled to Langevin heat baths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment from a config file")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
    sub.add_parser("fixtures", help="list built-in topologies and bundled models")
    return parser


def _list_fixtures() -> None:
    print(f"{'name':18s} {'vertices':>8s} {'edges':>6s} {'baths':>6s} {'controlled':>10s} {'max depth':>9s}")
    for name in fixture_names():
        topo = builtin_fixture(name)
        rep = controls(topo)
        depth = rep.max_depth if rep.max_depth is not None else "-"
        print(f"{name:18s} {topo.vertex_count:8d} {len(topo.edges):6d} "
              f"{len(topo.baths):6d} {str(rep.controlled):>10s} {str(depth):>9s}")
    print()
    print("bundled model: counterexample-c4 (two masses in 3D, locally constant "
          "spring force; run the counterexample-c4 experiment)")
    print()
    print("vertex tables:")
    for name in fixture_names():
        names, edges, baths = fixture_table(name)
        print(f"  {name}: baths={list(baths)}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fixtures":
        _list_fixtures()
        return 0
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.seed is not None and (problem := seed_problem(args.seed)):
            raise ConfigError([f"--seed: {problem}"])
        config = parse_config(text)
        code = run(config, command=args.command, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
