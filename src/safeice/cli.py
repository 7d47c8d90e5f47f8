"""Command line interface.

Subcommands: estimate (one run, JSON record on stdout), bench (repeated
runs written to a JSON lines file, summary record on stdout), oracle
(crude Monte Carlo), list-problems. Options come only as flags, and one
left unset is not passed on, so its default lives in the function it
configures. stdout carries only machine-parsable records, one strict
JSON object per line (a non-finite float is null); diagnostics go to
stderr.

Exit codes: 0 success, 1 runtime failure, 2 usage error.

The module also holds the bench command's repetition runner, its summary
record and the strict JSON lines writer.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import asdict, replace
from typing import get_type_hints

import numpy as np

from .core import RunConfig, RunResult, _check_integer, cv, run
from .oracle import mc_estimate
from .problems import PROBLEMS, problem_registry


def run_repetitions(
    problem, config: RunConfig, n_runs: int, p_ref: float
) -> tuple[list[RunResult], dict]:
    """Run the configured method ``n_runs`` times, one after another, and
    return the runs with their ``summary_record``.

    Repetition i runs with seed config.seed + i, so results are
    reproducible.
    """
    _check_repetitions(n_runs, p_ref)
    runs = [run(problem, replace(config, seed=config.seed + i)) for i in range(n_runs)]
    return runs, summary_record(runs, p_ref)


def _check_repetitions(n_runs, p_ref) -> None:
    _check_integer("n_runs", n_runs, 2)  # the spread statistics need two
    # a bool, a non-number and a value outside (0, inf), NaN too
    if isinstance(p_ref, bool) or not isinstance(p_ref, numbers.Real) or not 0.0 < p_ref < np.inf:
        raise ValueError(f"p_ref must be a positive finite number, got {p_ref!r}")


def summary_record(runs: list[RunResult], p_ref: float) -> dict:
    """The aggregates of ``runs``: the last line of a bench output file and
    the ``safeice bench`` stdout.

    rel_error is |p_ref - mean(pf)| / p_ref and cv the sample coefficient
    of variation of the per-run estimates.
    """
    pf = [r.pf for r in runs]
    return {
        "summary": True,
        "p_ref": p_ref,
        "rel_error": abs(p_ref - float(np.mean(pf))) / p_ref,
        "cv": cv(pf),
        "mean_t": float(np.mean([r.iterations for r in runs])),
        "mean_k": float(np.mean([r.final_k for r in runs])),
        "n_runs": len(runs),
    }


def _strict(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_strict(x) for x in value]
    return value


def json_record(record: dict) -> str:
    """``record`` as one line of strict JSON, which has no Infinity or NaN:
    a non-finite float is written as null."""
    return json.dumps({key: _strict(value) for key, value in record.items()}, allow_nan=False)


def persist(runs: list[RunResult], summary: dict, path: str) -> None:
    """Write the JSON lines file: one ``json_record`` per run, then
    ``summary``.

    Run i's record is ``{"run": i, **asdict(run)}``, the ``estimate``
    record plus its index, traces included. Finite floats round-trip
    bit-exactly.
    """
    if not runs:
        raise ValueError("no runs to persist")
    records = [{"run": i, **asdict(r)} for i, r in enumerate(runs)]
    with open(path, "w") as fh:
        for rec in records + [summary]:
            fh.write(json_record(rec) + "\n")


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
