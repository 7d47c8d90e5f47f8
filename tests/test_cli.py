"""Tests for the command line interface (all in-process via main(argv))."""

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import safeice.bench as bench
from safeice.cli import _OPTIONS, _merge_options, _run_config, build_parser, main
from safeice.core import RunConfig
from safeice.problems import problem_registry

FAST = ["--n-per-iter", "200", "--k-init", "4"]


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

    rc, _, err = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--sigma0", "-1"],
    )
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("estimate", "--delta-star", "nan", "delta_star"),
        ("estimate", "--em-tol", "nan", "em_tol"),
        ("estimate", "--seed", "-1", "seed"),
        ("bench", "--p-ref", "nan", "p_ref"),
        ("estimate", "--sigma0", "inf", "sigma0"),
        ("estimate", "--delta-target", "inf", "delta_target"),
        ("estimate", "--delta-star", "inf", "delta_star"),
        ("estimate", "--em-tol", "inf", "em_tol"),
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


# ---------------------------------------------------------------- config file


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "n_per_iter": 200, "k_init": 4}))
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--config", str(cfg)],
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["seed"] == 9
    assert rec["lsf_evals"] % 200 == 0


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "n_per_iter": 200, "k_init": 4}))
    rc, out, _ = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--config", str(cfg), "--seed", "3"],
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["seed"] == 3


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    rc, _, err = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--config", str(cfg)],
    )
    assert rc == 2
    assert "unknown config keys" in err


SUBCOMMAND_ARGV = {
    "estimate": ["estimate", "--problem", "two-mode", "--z", "2.0"],
    "bench": ["bench", "--problem", "two-mode", "--z", "2.0", "--p-ref", "0.05", "--reps", "2",
              "--out", "unused.jsonl"],
    "oracle": ["oracle", "--problem", "two-mode", "--z", "2.0"],
}


@pytest.mark.parametrize(
    "command, key",
    [
        ("estimate", "z"),
        ("estimate", "problem"),
        ("estimate", "n_total"),
        ("estimate", "batch_size"),
        ("estimate", "threads"),
        ("estimate", "format"),
        ("bench", "batch_size"),
        ("bench", "threads"),
        ("bench", "n_total"),
        ("bench", "out"),
        ("bench", "reps"),
        ("bench", "p_ref"),
        ("oracle", "k_init"),
        ("oracle", "method"),
        ("oracle", "format"),
        ("oracle", "threads"),
    ],
)
def test_config_key_outside_subcommand_exits_2(tmp_path, capsys, command, key):
    # a key the subcommand does not read, or one a required flag always overrides
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: 1}))
    rc, out, err = run_cli(capsys, SUBCOMMAND_ARGV[command] + ["--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "unknown config keys" in err


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_config_options_match_parser_flags():
    subs = _subparsers()
    with_config = {name for name, p in subs.items() if any(a.dest == "config" for a in p._actions)}
    assert set(_OPTIONS) == with_config
    for command, options in _OPTIONS.items():
        optional = {a.dest for a in subs[command]._actions if a.option_strings and not a.required}
        assert set(options) == optional - {"help", "config"}, command


# spelt out so that renaming a RunConfig field cannot rename its flag unnoticed
RUN_FLAGS = {
    "--n-per-iter": 200,
    "--k-init": 4,
    "--delta-star": 2.0,
    "--delta-target": 3.0,
    "--sigma0": 5.0,
    "--max-outer": 5,
    "--max-em": 3,
    "--em-tol": 1e-3,
    "--seed": 7,
    "--method": "ice",
}


@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_run_flags_reach_run_config(command):
    expected = {flag[2:].replace("-", "_"): value for flag, value in RUN_FLAGS.items()}
    assert set(expected) == {f.name for f in fields(RunConfig)}
    assert all(getattr(RunConfig(), name) != value for name, value in expected.items())
    argv = list(SUBCOMMAND_ARGV[command])
    for flag, value in RUN_FLAGS.items():
        argv += [flag, str(value)]
    args = build_parser().parse_args(argv)
    assert _run_config(_merge_options(args)) == RunConfig(**expected)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("estimate", "n_per_iter", "200"),
        ("estimate", "n_per_iter", 200.5),
        ("estimate", "seed", "abc"),
        ("estimate", "k_init", True),
        ("estimate", "sigma0", "10"),
        ("estimate", "method", 3),
        ("estimate", "d", 2.0),
        ("bench", "format", "xml"),
        ("bench", "format", 1),
        ("oracle", "n_total", "1000"),
        ("oracle", "batch_size", 1e3),
    ],
)
def test_config_value_the_flag_rejects_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    rc, out, err = run_cli(capsys, SUBCOMMAND_ARGV[command] + ["--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: config key '{key}'")


def test_config_int_for_float_flag_matches_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sigma0": 8, "delta_target": 3}))
    argv = SUBCOMMAND_ARGV["estimate"] + FAST
    rc, from_file, _ = run_cli(capsys, argv + ["--config", str(cfg)])
    assert rc == 0
    _, from_flags, _ = run_cli(capsys, argv + ["--sigma0", "8", "--delta-target", "3"])
    assert from_file == from_flags


def test_unset_options_are_left_to_the_callee():
    # no default lives in the CLI: an option neither flagged nor in a file
    # is absent, so RunConfig, mc_estimate and persist apply their own
    for command, argv in SUBCOMMAND_ARGV.items():
        opts = _merge_options(build_parser().parse_args(argv))
        assert set(opts).isdisjoint(_OPTIONS[command]), command
    assert _run_config({}) == RunConfig()


def test_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    rc, _, err = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--config", str(cfg)],
    )
    assert rc == 2
    assert "error:" in err


def test_config_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    rc, _, err = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--config", str(cfg)],
    )
    assert rc == 2
    assert "JSON object" in err


def test_config_missing_file(capsys):
    rc, _, err = run_cli(
        capsys,
        ["estimate", "--problem", "two-mode", "--z", "2.0", "--config", "/no/such/file.json"],
    )
    assert rc == 2
    assert "error:" in err


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
    "flag, value, field", [("--p-ref", "nan", "p_ref"), ("--reps", "1", "n_runs")]
)
def test_bench_rejects_a_bad_argument_before_any_run(monkeypatch, capsys, flag, value, field):
    def no_run(problem, config):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(bench, "run", no_run)
    rc, out, err = run_cli(capsys, SUBCOMMAND_ARGV["bench"] + [flag, value])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {field} must be")


def test_bench_without_failures_writes_strict_json(tmp_path, capsys):
    # every pf is 0, so the cv across runs is infinite
    out_path = tmp_path / "y.jsonl"
    argv = ["bench", "--problem", "two-mode", "--z", "40", "--d", "2", "--reps", "2",
            "--max-outer", "1", "--n-per-iter", "100", "--p-ref", "1e-15", "--out", str(out_path)]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert _strict_json(out)["cv"] is None
    lines = out_path.read_text().splitlines()
    assert [_strict_json(line)["pf"] for line in lines[:2]] == [0.0, 0.0]
    assert _strict_json(lines[2]) == _strict_json(out)


def test_bench_csv_format(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    rc, _, _ = run_cli(
        capsys, BENCH_BASE + ["--reps", "2", "--out", str(out_path), "--format", "csv"]
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4  # header + 2 runs + summary
    assert lines[0].startswith("run,pf,iterations,final_k,lsf_evals,converged,seed,n_failures,se,ess,")
    for line in lines[1:3]:
        se, ess = (float(x) for x in line.split(",")[8:10])
        assert se > 0.0 and ess >= 1.0


def test_bench_unwritable_path_is_runtime_failure(capsys):
    rc, _, err = run_cli(
        capsys, BENCH_BASE + ["--reps", "2", "--out", "/no/such/dir/r.jsonl"]
    )
    assert rc == 1
    assert "failure:" in err


def test_bench_threads_from_config_file(tmp_path, capsys):
    # bench runs its repetitions one after another: a thread count is
    # rejected both as a flag and as a config key
    with pytest.raises(SystemExit) as exc:
        main(SUBCOMMAND_ARGV["bench"] + ["--threads", "1"])
    assert exc.value.code == 2
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"threads": 1}))
    rc, out, err = run_cli(capsys, SUBCOMMAND_ARGV["bench"] + ["--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "unknown config keys" in err
