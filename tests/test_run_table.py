"""``tests/run_table.py compare``, the bit-for-bit gate over the seeded
run sets, run as a command on small synthetic tables."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import oracles

RUN_TABLE = Path(__file__).resolve().parent / "run_table.py"
SET = "four-branch safe-ice 0-599"  # a set with a reference pf, so the accuracy lines print


def table_rows():
    return [
        {"set": SET, "seed": seed, "pf": pf.hex(), "iterations": 2, "final_k": 4, "lsf_evals": 3000, "converged": True}
        for seed, pf in enumerate((8.9e-4, 1.1e-3, 9.6e-4))
    ]


def compare(tmp_path, before, after):
    paths = []
    for name, rows in (("before.jsonl", before), ("after.jsonl", after)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(RUN_TABLE), "compare", *paths], capture_output=True, text=True, timeout=60
    )


def test_equal_tables_pass(tmp_path):
    done = compare(tmp_path, table_rows(), table_rows())
    assert done.returncode == 0, done.stderr
    assert "structure changed in 0 of 3 runs" in done.stdout
    assert f"{SET}: pf bit-equal in 3 of 3" in done.stdout
    assert "mean pf/ref" in done.stdout


def test_one_pf_bit_fails(tmp_path):
    after = table_rows()
    after[1]["pf"] = math.nextafter(float.fromhex(after[1]["pf"]), math.inf).hex()  # its last bit
    done = compare(tmp_path, table_rows(), after)
    assert done.returncode == 1, done.stderr
    assert "structure changed in 0 of 3 runs" in done.stdout
    assert f"{SET}: pf bit-equal in 2 of 3" in done.stdout


@pytest.mark.parametrize("field, value", [("iterations", 3), ("final_k", 5), ("lsf_evals", 4000), ("converged", False)])
def test_one_structure_field_fails(tmp_path, field, value):
    after = table_rows()
    after[2][field] = value
    done = compare(tmp_path, table_rows(), after)
    assert done.returncode == 1, done.stderr
    assert "structure changed in 1 of 3 runs" in done.stdout
    assert f"seed 2: {field}" in done.stdout


@pytest.mark.parametrize("change", ["drop", "add", "rename"])
def test_tables_of_different_runs_are_refused(tmp_path, change):
    after = table_rows()
    if change == "drop":
        after.pop()
    elif change == "add":
        after.append(dict(after[0], seed=3))
    else:
        after[0]["set"] = "oscillator 1000-1009"
    done = compare(tmp_path, table_rows(), after)
    assert done.returncode == 2
    assert "the two tables hold different runs" in done.stderr
    assert "pf bit-equal" not in done.stdout


def test_coverage_and_error_at_equal_work(tmp_path):
    # against the four-branch reference: one run inside 2 se, one below and
    # one above; rel MSE (0 + 0.25 + 0.25) / 3 times 3,000 evaluations / 1000
    ref = oracles.four_branch_pf_by_quadrature(2**16)
    rows = table_rows()
    for row, ratio, se in zip(rows, (1.0, 0.5, 1.5), (0.01, 0.1, 0.1)):
        row.update(pf=(ratio * ref).hex(), se=(se * ref).hex())
    done = compare(tmp_path, rows, rows)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("rel MSE x mean LSF evals / 1000 0.5\n") == 2
    assert done.stdout.count("±2 se covers 1 of 3; misses below 1 (0 at pf 0), above 1") == 2


def test_coverage_needs_se_in_both_tables(tmp_path):
    # a table from before se was written compares equal, without coverage
    after = table_rows()
    for row in after:
        row["se"] = (0.5 * float.fromhex(row["pf"])).hex()
    done = compare(tmp_path, table_rows(), after)
    assert done.returncode == 0, done.stderr
    assert "rel MSE x mean LSF evals / 1000" in done.stdout
    assert "se covers" not in done.stdout
