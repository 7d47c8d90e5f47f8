"""Command line interface.

Subcommands: estimate (one run, JSON record on stdout), bench (repeated
runs persisted to a file, summary record on stdout), oracle (crude Monte
Carlo), list-problems. Options may also come from a JSON config file via
--config; explicit flags win over the file, which wins over defaults.
stdout carries only machine-parsable records, one strict JSON object per
line (a non-finite float is null); diagnostics go to stderr.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import get_type_hints

from .bench import _check_repetitions, json_record, persist, run_repetitions
from .core import RunConfig, run
from .oracle import mc_estimate
from .problems import PROBLEMS, problem_registry


# one option per RunConfig field, of the field's type
_RUN_OPTIONS = get_type_hints(RunConfig)

# per subcommand, the options a config file may set and the type of each;
# the optional flags are built from it. An option neither flagged nor in
# the file is not passed on, so its default lives only in the callee. The
# required flags are absent because they always override the file.
_OPTIONS = {
    "estimate": {"d": int, **_RUN_OPTIONS},
    "bench": {"d": int, **_RUN_OPTIONS, "format": str},
    "oracle": {"d": int, "seed": int, "n_total": int},
}
_CHOICES = {"format": ("jsonl", "csv")}
_HELP = {"d": "problem dimension where variable"}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """The required problem flags, then one flag per option of ``command``,
    spelt with - for _."""
    p.add_argument("--problem", required=True, choices=PROBLEMS)
    p.add_argument("--z", type=float, required=True, help="failure threshold")
    p.add_argument("--config", help="JSON file with option defaults")
    for name, kind in _OPTIONS[command].items():
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=kind, dest=name, choices=_CHOICES.get(name), help=_HELP.get(name))


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


def _typed(key: str, value, kind: type):
    """A config-file value as its flag parses it: of the flag's type (an
    int also passes for a float) and among its choices, if it has any."""
    accepted = (int, float) if kind is float else kind
    valid = isinstance(value, accepted) and not isinstance(value, bool)
    if not valid or value not in _CHOICES.get(key, [value]):
        raise ValueError(f"config key {key!r}: invalid {kind.__name__} value {value!r}")
    return kind(value)


def _merge_options(args: argparse.Namespace) -> dict:
    """The options set by the config file, overridden by explicit flags."""
    types = _OPTIONS[args.command]
    merged = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {key: _typed(key, value, types[key]) for key, value in file_cfg.items()}
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            merged[key] = value
    return merged


def _given(opts: dict, names) -> dict:
    """The options among ``names`` that a flag or the config file set."""
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

    try:
        opts = _merge_options(args)
        problem = problem_registry(opts["problem"], opts["z"], **_given(opts, ["d"]))
        config = None if args.command == "oracle" else _run_config(opts)
        if args.command == "bench":
            _check_repetitions(opts["reps"], opts["p_ref"])
            # after the usage checks, so none leaves a file; before the first run
            open(opts["out"], "a").close()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
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
            persist(runs, summary, opts["out"], **({"fmt": opts["format"]} if "format" in opts else {}))
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
