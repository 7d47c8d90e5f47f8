"""Tests for the command line interface, in-process via main(argv) but for
one run of ``python -m safeice.cli`` in a subprocess."""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import safeice.cli as cli
import safeice.core as core
from safeice.cli import _OPTIONS, build_parser, main
from safeice.core import RunConfig
from safeice.problems import problem_registry

FAST = ["--n-per-iter", "200", "--k-init", "4"]


@pytest.fixture(autouse=True)
def _own_directory(tmp_path, monkeypatch):
    # bench opens its --out file before the first run, relative paths included
    monkeypatch.chdir(tmp_path)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------- list-problems


def test_list_problems(capsys):
    rc, out, _ = run_cli(capsys, ["list-problems"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    assert [r["name"] for r in records] == [
        "four-branch",
        "three-mode",
        "two-mode",
        "oscillator",
    ]
    by_name = {r["name"]: r["d"] for r in records}
    assert by_name["four-branch"] == 2
    assert by_name["two-mode"] is None
    assert by_name["oscillator"] == 10


def test_list_problems_matches_registry(capsys):
    _, out, _ = run_cli(capsys, ["list-problems"])
    for rec in map(json.loads, out.splitlines()):
        if rec["d"] is None:
            continue
        assert problem_registry(rec["name"], 0.0).dim == rec["d"]
        assert problem_registry(rec["name"], 0.0, rec["d"]).dim == rec["d"]
        with pytest.raises(ValueError, match=f"requires d = {rec['d']}"):
            problem_registry(rec["name"], 0.0, rec["d"] + 1)


def test_module_runs_without_a_runtime_warning():
    # runpy warns when the package root has already imported safeice.cli,
    # so the root must not import it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "safeice.cli", "list-problems"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------------- estimate


def test_estimate_record(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--d", "2", "--seed", "5"] + FAST,
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1  # stdout carries exactly one record
    rec = json.loads(lines[0])
    assert set(rec) == {
        "pf",
        "iterations",
        "final_k",
        "lsf_evals",
        "converged",
        "seed",
        "sigma_trace",
        "lambda_trace",
        "k_trace",
        "n_failures",
        "se",
        "ess",
    }
    assert rec["pf"] > 0.0
    assert rec["seed"] == 5
    assert rec["lsf_evals"] == 200 * (rec["iterations"] + 1)
    assert len(rec["sigma_trace"]) == rec["iterations"] + 1
    assert 0 < rec["n_failures"] <= 200  # failures in the final batch
    # the final batch's standard error and Kish ESS of its failure weights
    assert 0.0 < rec["se"] < rec["pf"]
    assert 1.0 <= rec["ess"] <= rec["n_failures"]


def test_estimate_deterministic_bytes(capsys):
    argv = (
        ["estimate", "--problem", "two-mode", "--z", "3.5", "--d", "2", "--seed", "42"]
        + FAST
    )
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_readme_estimate_record_is_current(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command, block = re.search(
        r"(safeice estimate [^\n]*--seed 42)\n.*?`estimate` prints one JSON record:\s*```json\n(.*?)```",
        readme,
        re.S,
    ).groups()
    rc, out, _ = run_cli(capsys, command.split()[1:])
    assert rc == 0
    assert json.loads(out) == json.loads(block)
    # the worked example names the pf of its first command
    pf, command = re.search(
        r"The z = 3\.5 run prints pf ([^:\s]+):\s*```sh\n([^\n]*)\n", readme
    ).groups()
    rc, out, _ = run_cli(capsys, command.split()[1:])
    assert rc == 0
    assert json.loads(out)["pf"] == float(pf)
    # the bench example prints its summary last and shows its file byte for byte
    command, printed, written = re.search(
        r"\$ (safeice bench [^\n]*--out bench\.jsonl)\n(.*?)\$ cat bench\.jsonl\n(.*?)```",
        readme,
        re.S,
    ).groups()
    rc, out, _ = run_cli(capsys, command.split()[1:])
    assert rc == 0
    assert printed.splitlines(keepends=True)[-1] == out
    assert Path("bench.jsonl").read_text() == written


def test_estimate_ice_keeps_k(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--method", "ice"] + FAST,
    )
    assert rc == 0
    rec = json.loads(out)
    assert all(k == 4 for k in rec["k_trace"])
    assert all(lam == 1.0 for lam in rec["lambda_trace"])


# --------------------------------------------------------------- usage errors


def test_unknown_problem_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--problem", "banana", "--z", "1.0"])
    assert exc.value.code == 2


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--z", "1.0"])
    assert exc.value.code == 2


def test_bad_numeric_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--problem", "two-mode", "--z", "abc"])
    assert exc.value.code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_dimension_mismatch_exits_2(capsys):
    rc, out, err = run_cli(capsys, ["estimate", "--problem", "four-branch", "--z", "0", "--d", "3"])
    assert rc == 2
    assert out == ""
    assert "error:" in err


def test_threads_is_a_bench_option_only(capsys):
    # bench no longer takes --threads either; estimate never did
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--problem", "two-mode", "--z", "2.0", "--threads", "1"])
    assert exc.value.code == 2


def test_unknown_method_exits_2(capsys):
    rc, out, err = run_cli(
        capsys, ["estimate", "--problem", "two-mode", "--z", "2.0", "--method", "bogus"]
    )
    assert rc == 2
    assert out == ""
    assert "method must be 'safe-ice' or 'ice'" in err


def test_out_of_range_numeric_exits_2(capsys):
    rc, _, err = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--n-per-iter", "5"],
    )
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("estimate", "--seed", "-1", "seed"),
        ("estimate", "--z", "nan", "z"),
        ("bench", "--p-ref", "nan", "p_ref"),
        ("bench", "--p-ref", "inf", "p_ref"),
    ],
)
def test_nan_or_negative_seed_exits_2_naming_the_field(capsys, command, flag, value, field):
    # a NaN or an infinity fails every range check, and a negative seed is
    # refused before numpy can reject it in its own words
    rc, out, err = run_cli(capsys, SUBCOMMAND_ARGV[command] + [flag, value])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {field} must be")


# ---------------------------------------------------------------- option flags


SUBCOMMAND_ARGV = {
    "estimate": ["estimate", "--problem", "two-mode", "--z", "2.0"],
    "bench": ["bench", "--problem", "two-mode", "--z", "2.0", "--p-ref", "0.05", "--reps", "2",
              "--out", "unused.jsonl"],
    "oracle": ["oracle", "--problem", "two-mode", "--z", "2.0"],
}


# settings held in module constants, oracle's batch size, which cannot
# change its answer, bench's thread count (it runs its repetitions one
# after another), bench's output format (it writes JSON lines only) and
# the config file itself
REMOVED = [
    (command, name)
    for command in ("estimate", "bench")
    for name in ("sigma0", "delta_star", "delta_target", "max_outer", "max_em", "em_tol")
] + [("oracle", "batch_size"), ("bench", "threads"), ("bench", "format")] + [
    (command, "config") for command in ("estimate", "bench", "oracle")
]


@pytest.mark.parametrize("command, name", REMOVED)
def test_removed_setting_is_neither_flag_nor_config_key(tmp_path, capsys, command, name):
    # options come only as flags: a --config file holding the setting is
    # refused like the flag, as an unrecognized argument
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({name: 1}))
    for extra in (["--" + name.replace("_", "-"), "1"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(SUBCOMMAND_ARGV[command] + extra)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_config_options_match_parser_flags():
    # _OPTIONS holds every optional flag of each subcommand
    subs = _subparsers()
    assert set(_OPTIONS) == set(subs) - {"list-problems"}
    for command, options in _OPTIONS.items():
        optional = {a.dest for a in subs[command]._actions if a.option_strings and not a.required}
        assert set(options) == optional - {"help"}, command


# spelt out so that renaming a RunConfig field cannot rename its flag unnoticed
RUN_FLAGS = {
    "--n-per-iter": 200,
    "--k-init": 4,
    "--seed": 7,
    "--method": "ice",
}


def _recording(monkeypatch, names):
    """Replace each of ``names`` in the CLI by a stub that records its
    arguments after the problem; returns the list of records."""
    seen = []

    def stub(name):
        def callee(*args, **kwargs):
            seen.append((name, args[1:], kwargs))
            return [], {}

        return callee

    for name in names:
        monkeypatch.setattr(cli, name, stub(name))
    return seen


@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_run_flags_reach_run_config(monkeypatch, capsys, command):
    expected = {flag[2:].replace("-", "_"): value for flag, value in RUN_FLAGS.items()}
    assert set(expected) == {f.name for f in fields(RunConfig)}
    assert all(getattr(RunConfig(), name) != value for name, value in expected.items())
    seen = _recording(monkeypatch, ["run", "run_repetitions", "persist"])
    argv = list(SUBCOMMAND_ARGV[command])
    for flag, value in RUN_FLAGS.items():
        argv += [flag, str(value)]
    run_cli(capsys, argv)
    assert seen[0][1][0] == RunConfig(**expected)


def test_unset_options_are_left_to_the_callee(monkeypatch, capsys):
    # no default lives in the CLI: an option not flagged is not passed on,
    # so RunConfig and mc_estimate apply their own
    seen = _recording(monkeypatch, ["run", "run_repetitions", "persist", "mc_estimate"])
    for argv in SUBCOMMAND_ARGV.values():
        run_cli(capsys, argv)
    assert seen == [
        ("run", (RunConfig(),), {}),
        ("run_repetitions", (RunConfig(), 2, 0.05), {}),
        ("persist", ({}, "unused.jsonl"), {}),
        ("mc_estimate", (), {}),
    ]


# --------------------------------------------------------------------- oracle


def test_oracle_record(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["oracle", "--problem", "two-mode", "--z", "1.0", "--n-total", "20000", "--seed", "1"],
    )
    assert rc == 0
    rec = json.loads(out)
    assert set(rec) == {"pf", "n_total", "n_failures", "cv"}
    assert rec["n_total"] == 20000
    assert rec["pf"] == pytest.approx(0.3173, abs=0.02)


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


def test_oracle_without_failures_prints_strict_json(capsys):
    # no failure in 1000 draws makes the binomial cv infinite
    rc, out, _ = run_cli(
        capsys, ["oracle", "--problem", "two-mode", "--z", "8", "--d", "2", "--n-total", "1000"]
    )
    assert rc == 0
    rec = _strict_json(out)
    assert rec["n_failures"] == 0
    assert rec["cv"] is None


def test_oracle_deterministic(capsys):
    argv = ["oracle", "--problem", "two-mode", "--z", "2.5", "--n-total", "50000", "--seed", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


# ---------------------------------------------------------------------- bench


BENCH_BASE = ["bench", "--problem", "two-mode", "--z", "2.0", "--p-ref", "0.0455"] + FAST


def test_bench_writes_runs_and_summary(tmp_path, capsys):
    out_path = tmp_path / "r.jsonl"
    rc, out, _ = run_cli(capsys, BENCH_BASE + ["--reps", "2", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3  # 2 runs + 1 summary
    assert json.loads(lines[0])["run"] == 0
    assert json.loads(lines[2])["summary"] is True
    stdout_summary = json.loads(out)
    assert stdout_summary["n_runs"] == 2
    assert stdout_summary["summary"] is True


def test_bench_rows_are_the_estimate_records(tmp_path, capsys):
    # row i, without its "run" key, is `estimate --seed S+i` byte for byte
    out_path = tmp_path / "r.jsonl"
    opts = ["--problem", "two-mode", "--z", "2.0"] + FAST
    rc, out, _ = run_cli(capsys, ["bench", *opts, "--seed", "5", "--reps", "2", "--p-ref", "0.0455",
                                  "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    for i, line in enumerate(lines[:2]):
        _, estimate, _ = run_cli(capsys, ["estimate", *opts, "--seed", str(5 + i)])
        prefix = f'{{"run": {i}, '
        assert line.startswith(prefix)
        assert "{" + line[len(prefix):] + "\n" == estimate
        assert {"se", "ess"} <= set(json.loads(line))
    assert lines[2] + "\n" == out


@pytest.mark.parametrize(
    "flag, value, field",
    [("--p-ref", "nan", "p_ref"), ("--reps", "1", "n_runs"), ("--out", "missing/x.jsonl", None)],
)
def test_bench_rejects_a_bad_argument_before_any_run(monkeypatch, capsys, flag, value, field):
    def no_run(problem, config):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(cli, "run", no_run)
    rc, out, err = run_cli(capsys, SUBCOMMAND_ARGV["bench"] + [flag, value])
    assert rc == 2
    assert out == ""
    # a --out in a missing directory cannot be opened
    assert err.startswith(f"error: {field} must be" if field else "error: [Errno 2]")


def test_bench_failing_before_any_run_keeps_an_existing_out_file(tmp_path, capsys):
    out_path = tmp_path / "r.jsonl"
    out_path.write_text("kept\n")
    rc, _, _ = run_cli(capsys, BENCH_BASE + ["--reps", "1", "--out", str(out_path)])
    assert rc == 2
    assert out_path.read_text() == "kept\n"


@pytest.mark.parametrize(
    "flag, value", [("--reps", "1"), ("--p-ref", "-1"), ("--n-per-iter", "5"), ("--method", "mc")]
)
def test_bench_usage_error_leaves_no_out_file(tmp_path, capsys, flag, value):
    out_path = tmp_path / "r.jsonl"
    rc, out, err = run_cli(capsys, BENCH_BASE + ["--reps", "2", "--out", str(out_path), flag, value])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_bench_without_failures_writes_strict_json(monkeypatch, tmp_path, capsys):
    # every pf is 0, so the cv across runs is infinite
    monkeypatch.setattr(core, "MAX_OUTER", 1)
    out_path = tmp_path / "y.jsonl"
    argv = ["bench", "--problem", "two-mode", "--z", "40", "--d", "2", "--reps", "2",
            "--n-per-iter", "100", "--p-ref", "1e-15", "--out", str(out_path)]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert _strict_json(out)["cv"] is None
    lines = out_path.read_text().splitlines()
    assert [_strict_json(line)["pf"] for line in lines[:2]] == [0.0, 0.0]
    assert _strict_json(lines[2]) == _strict_json(out)
