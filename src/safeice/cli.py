"""Command line interface.

Subcommands: estimate (one run, JSON record on stdout), bench (repeated
runs written to a JSON lines file, summary record on stdout), oracle
(crude Monte Carlo), list-problems. Options come only as flags, and one
left unset is not passed on, so its default lives in the function it
configures. stdout carries only machine-parsable records, one strict
JSON object per line (a non-finite float is null); diagnostics go to
stderr.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import get_type_hints

from .bench import _check_repetitions, json_record, persist, run_repetitions
from .core import RunConfig, run
from .oracle import mc_estimate
from .problems import PROBLEMS, problem_registry


# one option per RunConfig field, of the field's type
_RUN_OPTIONS = get_type_hints(RunConfig)

# per subcommand, the type of each optional flag
_OPTIONS = {
    "estimate": {"d": int, **_RUN_OPTIONS},
    "bench": {"d": int, **_RUN_OPTIONS},
    "oracle": {"d": int, "seed": int, "n_total": int},
}
_HELP = {"d": "problem dimension where variable"}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """The required problem flags, then one flag per option of ``command``,
    spelt with - for _."""
    p.add_argument("--problem", required=True, choices=PROBLEMS)
    p.add_argument("--z", type=float, required=True, help="failure threshold")
    for name, kind in _OPTIONS[command].items():
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=kind, dest=name, help=_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safeice")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_options(sub.add_parser("estimate", help="single estimation run"), "estimate")

    ben = sub.add_parser("bench", help="repeated runs with summary statistics")
    _add_options(ben, "bench")
    ben.add_argument("--reps", type=int, required=True, help="number of repetitions")
    ben.add_argument("--p-ref", type=float, dest="p_ref", required=True)
    ben.add_argument("--out", required=True, help="output file path")

    _add_options(sub.add_parser("oracle", help="crude Monte Carlo reference"), "oracle")

    sub.add_parser("list-problems", help="list available problems")
    return parser


def _given(opts: dict, names) -> dict:
    """The options among ``names`` that a flag set."""
    return {name: opts[name] for name in names if name in opts}


def _run_config(opts: dict) -> RunConfig:
    return RunConfig(**_given(opts, _RUN_OPTIONS))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-problems":
        for name, (d, _) in PROBLEMS.items():
            print(json_record({"name": name, "d": d}))
        return 0

    opts = {key: value for key, value in vars(args).items() if value is not None}
    try:
        problem = problem_registry(opts["problem"], opts["z"], **_given(opts, ["d"]))
        config = None if args.command == "oracle" else _run_config(opts)
        if args.command == "bench":
            _check_repetitions(opts["reps"], opts["p_ref"])
            # after the usage checks, so none leaves a file; before the first run
            open(opts["out"], "a").close()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "estimate":
            print(json_record(asdict(run(problem, config))))
            return 0
        if args.command == "oracle":
            est = mc_estimate(problem, **_given(opts, ["n_total", "seed"]))
            print(json_record(asdict(est)))
            return 0
        if args.command == "bench":
            runs, summary = run_repetitions(problem, config, opts["reps"], opts["p_ref"])
            persist(runs, summary, opts["out"])
            print(json_record(summary))
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
