"""Command-line interface.

Subcommands: run a configured experiment to CSV, validate a config plus
its mixing matrix, compare algorithms on one instance, export the
communication graph as an edge list. Exit codes: 0 success, 1 validation
failure, 2 runtime error, 3 divergence. All behavior flows from flags and
the config file; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import sys

from .algorithms import ALGORITHMS
from .errors import GiantNetError, ParseError, ValidationError
from .harness import (
    COMPARE_TARGET,
    build_network,
    compare,
    format_comparison,
    load_config,
    run_experiment,
    validate_experiment,
    write_comparison_csv,
)
from .topology import write_edge_list

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_DIVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giantnet",
        description="Distributed Newton-type optimization simulator and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its metrics CSV")
    p_run.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_run.add_argument("--out", default=None, help="CSV output path (overrides config output)")
    p_run.set_defaults(handler=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config and its mixing matrix")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="tune and compare algorithms on one instance")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--algos", default=",".join(ALGORITHMS), help="comma-separated algorithm names")
    p_cmp.add_argument("--target", type=float, default=COMPARE_TARGET, help="optimality-gap target")
    p_cmp.add_argument("--out", default=None, help="summary CSV output path")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_graph = sub.add_parser("graph", help="export the communication graph as an edge list")
    p_graph.add_argument("--config", required=True)
    p_graph.add_argument("--out", default=None, help="edge-list path (default: stdout)")
    p_graph.set_defaults(handler=_cmd_graph)

    return parser


def _cmd_run(cfg, args) -> int:
    out = args.out or cfg.output
    log = run_experiment(cfg, out)
    final = log.final
    print(
        f"wrote {out}: {len(log)} records, final iter {final.iteration}, "
        f"opt_gap {final.opt_gap:.6e}, grad_norm {final.grad_norm:.6e}"
    )
    if log.diverged:
        print("run diverged: state left the admissible range", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_validate(cfg, args) -> int:
    report = validate_experiment(cfg)
    print(report)
    if not report.passed:
        return EXIT_VALIDATION
    print("config and mixing matrix: OK")
    return EXIT_OK


def _cmd_compare(cfg, args) -> int:
    algorithms = tuple(a.strip() for a in args.algos.split(",") if a.strip())
    summary = compare(cfg, algorithms, target=args.target)
    print(format_comparison(summary))
    if args.out:
        write_comparison_csv(summary, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_graph(cfg, args) -> int:
    graph, _ = build_network(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_edge_list(graph, fh)
        print(f"wrote {args.out}: {len(graph.edges)} edges")
    else:
        write_edge_list(graph, sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.handler(cfg, args)
    except (GiantNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
