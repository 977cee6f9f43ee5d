"""Command-line surface.

Subcommands: simulate, params, verify, analyze, density.
Exit codes: 0 success, 1 usage error, 2 verification failure,
3 partial trial failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, density
from .config import parse_config
from .density import EXACT_CAP_LIMIT, bounded_density_scan
from .graphs import read_edge_list
from .harness import aggregate_stats, run_experiment
from .patterns import parse_pattern, validate_as_constraint
from .theory import Constants
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_PARTIAL_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hfree",
                     description="Constraint-free random graph process toolkit")
    parser.add_argument("--version", action="version", version=f"hfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run seeded experiment trials")
    p_sim.add_argument("--config", required=True, help="experiment config file")
    p_sim.add_argument("--out", required=True, help="output directory (write-once)")
    p_sim.add_argument("--seed", type=int, default=None, help="override base seed")
    p_sim.add_argument("--workers", type=int, default=None, help="worker pool size")
    p_sim.add_argument("--force", action="store_true",
                       help="clear a non-empty output directory")

    p_par = sub.add_parser("params", help="print constants for (pattern, n)")
    p_par.add_argument("pattern", help="pattern spec, e.g. C3, K4, K3,3, Q3")
    p_par.add_argument("n", type=int)
    p_par.add_argument("--eps", default=None)
    p_par.add_argument("--mu", default=None)
    p_par.add_argument("--json", action="store_true", help="JSON output only")

    p_ver = sub.add_parser("verify", help="fast-vs-oracle equivalence checks")
    p_ver.add_argument("--scope", default="all",
                       choices=["closure", "density", "counts", "all"])
    p_ver.add_argument("--size", type=int, default=12, help="host size")
    p_ver.add_argument("--seeds", type=int, default=5, help="seeds per check")

    p_ana = sub.add_parser("analyze", help="aggregate tables from a run directory")
    p_ana.add_argument("dir", help="simulate output directory")
    p_ana.add_argument("--json", action="store_true", help="JSON output only")

    p_den = sub.add_parser("density", help="bounded density scan of a graph file")
    p_den.add_argument("graph", help="edge-list file (1-based 'u v' lines)")
    p_den.add_argument("--k", type=int, required=True, help="size cap")
    p_den.add_argument("--mode", default="exact", choices=["exact", "heuristic"])
    p_den.add_argument("--budget", type=int, default=0, help="node budget (0 = none)")
    p_den.add_argument("--threshold", type=float, default=None,
                       help="also report the e(A) < c|A| check at this c")
    p_den.add_argument("--pattern", default="C3",
                       help="forbidden pattern: on a host free of it, the exact "
                            "scan caps each size s <= 7 at ex(s, H)")
    return parser


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg.seed = args.seed
    failures = run_experiment(cfg, args.out, force=args.force, workers=args.workers)
    if failures:
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    print(f"ok: outputs in {args.out} (manifest {os.path.join(args.out, 'manifest.json')})")
    return EXIT_OK


def cmd_params(args) -> int:
    pattern = parse_pattern(args.pattern)
    validate_as_constraint(pattern)
    constants = Constants.for_run(pattern, args.n, eps=args.eps, mu=args.mu)
    data = constants.as_dict()
    if args.json:
        print(json.dumps(data, sort_keys=True))
        return EXIT_OK
    width = max(len(k) for k in data)
    for key in ("pattern", "n", "eps", "mu", "p", "m_steps", "beta", "c", "d", "log"):
        print(f"{key:<{width}}  {data[key]}")
    print()
    print(json.dumps(data, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    for flag, value in (("--size", args.size), ("--seeds", args.seeds)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    mismatches, compared = run_verification(scope=args.scope, size=args.size,
                                            seeds=args.seeds)
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        print(f"{len(mismatches)} mismatches", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    counts = " ".join(f"{name}={n}" for name, n in compared.items())
    print(f"ok: scope={args.scope} size={args.size} seeds={args.seeds}, no mismatches"
          f" (comparisons: {counts})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    summary = aggregate_stats(args.dir)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return EXIT_OK
    print(f"config {summary['config_hash']}")
    for n, row in summary["by_n"].items():
        norm = row["normalised_final_edges"]
        print(f"n={n}: trials={row['trials']} mean_final_edges={row['mean_final_edges']:.2f} "
              f"min={row['min']} median={row['median']} max={row['max']} "
              f"normalised={norm['mean']:.4f} ({norm['min']:.4f}-{norm['max']:.4f})")
    if "edge_exponent" in summary:
        fit = summary["edge_exponent"]
        print(f"edge exponent: slope={fit['slope']:.4f} stderr={fit['stderr']:.4f}")
    if "monitor" in summary:
        mon = summary["monitor"]
        print(f"monitor: checkpoints={mon['checkpoints']} "
              f"max_open_ratio={mon['max_open_ratio']:.4f}")
    return EXIT_OK


def cmd_density(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0 (0 = none), got {args.budget}")
    if args.threshold is not None and not 0 < args.threshold < float("inf"):
        raise ValueError(f"--threshold must be finite and > 0, got {args.threshold}")
    with open(args.graph) as fh:
        g = read_edge_list(fh)
    budget = args.budget or None
    pattern = parse_pattern(args.pattern)
    report = bounded_density_scan(g, args.k, mode=args.mode, node_budget=budget,
                                  pattern=pattern)
    print(json.dumps(report.as_row(), sort_keys=True))
    if args.threshold is None:
        return EXIT_OK
    # check e(A) < c|A| for |A| <= k, on an exact scan wherever the cap allows
    c = args.threshold
    if not report.optimal and args.k <= EXACT_CAP_LIMIT:
        report = density.bounded_density_scan(g, args.k, mode="exact",
                                              node_budget=budget, pattern=pattern)
    row = report.as_row()
    passed = float(report.density) < c
    detail = (f"max density {row['density']} vs threshold {c}"
              + ("" if report.optimal else " (heuristic lower bound only)"))
    print(json.dumps({"mode": "empirical", "threshold_c": c, "size_limit": args.k,
                      "passed": passed, "vacuous": False, "detail": detail,
                      "density": row["density"], "witness": row["witness"]},
                     sort_keys=True))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "params": cmd_params,
        "verify": cmd_verify,
        "analyze": cmd_analyze,
        "density": cmd_density,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
