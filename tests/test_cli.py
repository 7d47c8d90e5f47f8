"""Tests for the command line interface (all in-process via main(argv))."""

import json

import pytest

from safeice.cli import main
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
    }
    assert rec["pf"] > 0.0
    assert rec["seed"] == 5
    assert rec["lsf_evals"] == 200 * (rec["iterations"] + 1)
    assert len(rec["sigma_trace"]) == rec["iterations"] + 1
    assert 0 < rec["n_failures"] <= 200  # failures in the final batch


def test_estimate_deterministic_bytes(capsys):
    argv = (
        ["estimate", "--problem", "two-mode", "--z", "3.5", "--d", "2", "--seed", "42"]
        + FAST
        + ["--threads", "1"]
    )
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


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


def test_bench_csv_format(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    rc, _, _ = run_cli(
        capsys, BENCH_BASE + ["--reps", "2", "--out", str(out_path), "--format", "csv"]
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4  # header + 2 runs + summary
    assert lines[0].startswith("run,seed,pf")


def test_bench_unwritable_path_is_runtime_failure(capsys):
    rc, _, err = run_cli(
        capsys, BENCH_BASE + ["--reps", "2", "--out", "/no/such/dir/r.jsonl"]
    )
    assert rc == 1
    assert "failure:" in err


def test_bench_threads_env_fallback(tmp_path, capsys, monkeypatch):
    # the env variable supplies the thread count and must not change results
    serial = tmp_path / "serial.jsonl"
    run_cli(capsys, BENCH_BASE + ["--reps", "3", "--out", str(serial), "--threads", "1"])
    threaded = tmp_path / "threaded.jsonl"
    monkeypatch.setenv("SAFE_ICE_THREADS", "3")
    run_cli(capsys, BENCH_BASE + ["--reps", "3", "--out", str(threaded)])
    assert serial.read_text() == threaded.read_text()
