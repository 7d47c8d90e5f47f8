"""Command line interface.

Subcommands: estimate (one run, JSON record on stdout), bench (repeated
runs persisted to a file, summary record on stdout), oracle (crude Monte
Carlo), list-problems. Options may also come from a JSON config file via
--config; explicit flags win over the file, which wins over defaults.
stdout carries only machine-parsable records; diagnostics go to stderr.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from types import NoneType
from typing import get_args, get_type_hints

from .bench import persist, run_repetitions, summary_record
from .core import RunConfig, run
from .oracle import mc_estimate
from .problems import PROBLEM_NAMES, PROBLEMS, problem_registry

_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

# per subcommand, the options a config file may set and their defaults;
# the required flags are absent because they always override the file
_OPTIONS = {
    "estimate": {**_RUN_DEFAULTS, "d": None},
    "bench": {**_RUN_DEFAULTS, "d": None, "threads": 1, "format": "jsonl"},
    "oracle": {"d": None, "seed": 0, "n_total": 1_000_000, "batch_size": 100_000},
}


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--z", type=float, required=True, help="failure threshold")
    p.add_argument("--d", type=int, help="problem dimension where variable")
    p.add_argument("--config", help="JSON file with option defaults")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field; a ``T | None`` field takes a T."""
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        kind = next((t for t in get_args(hints[f.name]) if t is not NoneType), hints[f.name])
        p.add_argument("--" + f.name.replace("_", "-"), type=kind, dest=f.name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safeice")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="single estimation run")
    _add_problem_args(est)
    _add_run_args(est)

    ben = sub.add_parser("bench", help="repeated runs with summary statistics")
    _add_problem_args(ben)
    _add_run_args(ben)
    ben.add_argument("--reps", type=int, required=True, help="number of repetitions")
    ben.add_argument("--p-ref", type=float, dest="p_ref", required=True)
    ben.add_argument("--out", required=True, help="output file path")
    ben.add_argument("--format", choices=("jsonl", "csv"))
    ben.add_argument("--threads", type=int, help="worker threads, at least 1")

    ora = sub.add_parser("oracle", help="crude Monte Carlo reference")
    _add_problem_args(ora)
    ora.add_argument("--seed", type=int)
    ora.add_argument("--n-total", type=int, dest="n_total")
    ora.add_argument("--batch-size", type=int, dest="batch_size")

    sub.add_parser("list-problems", help="list available problems")
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    merged = dict(_OPTIONS[args.command])
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _run_config(opts: dict) -> RunConfig:
    return RunConfig(**{f.name: opts[f.name] for f in fields(RunConfig)})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-problems":
        for name, (d, _) in PROBLEMS.items():
            print(json.dumps({"name": name, "d": d}))
        return 0

    try:
        opts = _merge_options(args)
        problem = problem_registry(opts["problem"], float(opts["z"]), opts["d"])
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "estimate":
            print(json.dumps(asdict(run(problem, _run_config(opts)))))
            return 0
        if args.command == "oracle":
            est = mc_estimate(
                problem,
                n_total=int(opts["n_total"]),
                batch_size=int(opts["batch_size"]),
                seed=int(opts["seed"]),
            )
            print(json.dumps(asdict(est)))
            return 0
        if args.command == "bench":
            stats = run_repetitions(
                problem,
                _run_config(opts),
                n_runs=int(opts["reps"]),
                p_ref=float(opts["p_ref"]),
                threads=int(opts["threads"]),
            )
            persist(stats, opts["out"], fmt=opts["format"])
            print(json.dumps(summary_record(stats)))
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
