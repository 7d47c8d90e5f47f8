"""Run-structure table of seeded estimator runs, for changes that move
the digests in the last bits.

    PYTHONPATH=src python tests/run_table.py run OUT.jsonl
    python tests/run_table.py compare BEFORE.jsonl AFTER.jsonl

``run`` makes every run of SETS with the ``safeice`` on PYTHONPATH, one
after another, and writes one JSON line per run: set, seed, pf and se as
hex, iterations, final_k, lsf_evals and converged. Point PYTHONPATH at a
checkout of the parent commit's ``src`` to make the "before" table; the
repository's ``src`` is used when PYTHONPATH holds no ``safeice``.

``compare`` prints the runs whose structure (iterations, final_k,
lsf_evals, converged) changed, the largest relative pf difference in each
set with its seed, and for each set with a reference pf the relative
RMSE against it, the RMSE without the largest 1% of errors (5% in a set
of fewer than 600 runs), the runs above twice the reference, the largest
ratio pf / reference and the mean of that ratio with its standard error.
It also prints the relative MSE times the mean LSF evaluations per run
over 1000, an error at equal LSF work, and, where both tables carry se,
the runs whose |pf - reference| <= 2 se and the misses below and above.
The reference is the exact 2 Phi(-z) for two-mode and the ray quadrature
``oracles.four_branch_pf_by_quadrature`` for four-branch; se is not
compared, so a table without it, made by an older ``run``, compares
with one that has it. ``compare`` exits with status
1 when any run's pf bits or structure changed and 0 otherwise, so one
command's status says whether a change is bit for bit over every set. It
refuses, with status 2, two tables that do not hold the same runs.

pytest does not collect this file; a full ``run`` takes a few minutes on
one core.
"""

from __future__ import annotations

import os

# BLAS threading can change the last bits of a product; pin it as
# perfbench/run.py does, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import math
import sys
from pathlib import Path
from typing import NamedTuple

# after PYTHONPATH, so that a checkout named there keeps its safeice
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from oracles import four_branch_pf_by_quadrature  # noqa: E402

STRUCTURE = ("iterations", "final_k", "lsf_evals", "converged")


def two_mode_pf(z: float) -> float:
    """The exact two-mode pf, 2 Phi(-z), in any dimension."""
    return math.erfc(z / math.sqrt(2.0))


FOUR_BRANCH_PF = four_branch_pf_by_quadrature(2**16)


class RunSet(NamedTuple):
    """One set of runs: the problem, its threshold z and dimension d, the
    method, N per level, the seeds, the reference pf and K0."""

    problem: str
    z: float
    d: int
    method: str
    n_per_iter: int
    seeds: range
    ref: float | None  # the reference pf, or None
    k_init: int = 20


SETS = {
    "four-branch safe-ice 10000-10599": RunSet("four-branch", 0.0, 2, "safe-ice", 1000, range(10000, 10600), FOUR_BRANCH_PF),
    "four-branch safe-ice 0-599": RunSet("four-branch", 0.0, 2, "safe-ice", 1000, range(600), FOUR_BRANCH_PF),
    "four-branch ice 1000-1099": RunSet("four-branch", 0.0, 2, "ice", 1000, range(1000, 1100), FOUR_BRANCH_PF),
    "two-mode z=3.5 d=2 ice 0-59": RunSet("two-mode", 3.5, 2, "ice", 1000, range(60), two_mode_pf(3.5)),
    "two-mode-rare 1000-1009": RunSet("two-mode", 5.5, 20, "safe-ice", 10_000, range(1000, 1010), two_mode_pf(5.5)),
    "oscillator 1000-1009": RunSet("oscillator", 0.05, 10, "safe-ice", 1000, range(1000, 1010), None),
}
# Safe-ICE against ICE on two-mode at the default N, at d = 2 and at d = 20
SETS.update(
    {
        f"two-mode z={z:g} d={d} {method} 0-{n_seeds - 1}": RunSet("two-mode", z, d, method, 1000, range(n_seeds), two_mode_pf(z))
        for d, z, n_seeds in ((2, 5.5, 20), (20, 3.5, 100), (20, 5.5, 100), (20, 7.0, 100))
        for method in ("safe-ice", "ice")
    }
)
# ICE at d = 2 from the 2 components that ACCEPTANCE line 2 starts it with
SETS.update(
    {
        "two-mode z=3.5 d=2 ice k_init=2 0-59": RunSet("two-mode", 3.5, 2, "ice", 1000, range(60), two_mode_pf(3.5), k_init=2),
        "four-branch ice k_init=2 1000-1099": RunSet("four-branch", 0.0, 2, "ice", 1000, range(1000, 1100), FOUR_BRANCH_PF, k_init=2),
    }
)


def make_table(path: str) -> None:
    from safeice.core import RunConfig, run
    from safeice.problems import problem_registry

    logging.getLogger("safeice").setLevel(logging.ERROR)
    with open(path, "w") as fh:
        for name, spec in SETS.items():
            prob = problem_registry(spec.problem, spec.z, spec.d)
            for seed in spec.seeds:
                config = RunConfig(n_per_iter=spec.n_per_iter, k_init=spec.k_init, seed=seed, method=spec.method)
                r = run(prob, config)
                row = {"set": name, "seed": seed, "pf": float(r.pf).hex(), "se": float(r.se).hex()}
                row.update({f: getattr(r, f) for f in STRUCTURE})
                fh.write(json.dumps(row) + "\n")
            print(f"{name}: {len(spec.seeds)} runs", flush=True)


def load(path: str) -> dict:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return {(row["set"], row["seed"]): row for row in rows}


def relative_change(before: float, after: float) -> float:
    if before == after:
        return 0.0
    return abs(after - before) / abs(before) if before else math.inf


def n_trimmed(n_runs: int) -> int:
    """The largest errors left out of the trimmed RMSE: 1% of a set of
    600 runs or more, else 5%."""
    return n_runs // 100 if n_runs >= 600 else n_runs // 20


def accuracy(pfs: list, ref: float) -> tuple:
    """(relative RMSE, the same without the n_trimmed largest errors,
    runs above 2x, largest ratio, mean ratio, its standard error) of
    ``pfs`` against ``ref``."""
    ratios = [pf / ref for pf in pfs]
    errors = sorted((ratio - 1.0) ** 2 for ratio in ratios)
    rmse = math.sqrt(sum(errors) / len(errors))
    kept = len(errors) - n_trimmed(len(errors))
    trimmed = math.sqrt(sum(errors[:kept]) / kept)
    mean = sum(ratios) / len(ratios)
    se = math.sqrt(sum((ratio - mean) ** 2 for ratio in ratios) / (len(ratios) - 1) / len(ratios))
    return rmse, trimmed, sum(ratio > 2.0 for ratio in ratios), max(ratios), mean, se


def coverage(pfs: list, ses: list, ref: float) -> tuple:
    """(covered, misses below, of them at pf 0, misses above): the runs
    with |pf - ref| <= 2 se and those below and above that band."""
    below = [pf for pf, se in zip(pfs, ses) if pf < ref - 2.0 * se]
    above = sum(pf > ref + 2.0 * se for pf, se in zip(pfs, ses))
    return len(pfs) - len(below) - above, len(below), below.count(0.0), above


def compare(path_a: str, path_b: str) -> bool:
    """Print the comparison; True when every run has the same pf bits and
    structure in both tables."""
    a, b = load(path_a), load(path_b)
    if a.keys() != b.keys():
        print("the two tables hold different runs", file=sys.stderr)
        raise SystemExit(2)
    changed = [key for key in a if any(a[key][f] != b[key][f] for f in STRUCTURE)]
    print(f"structure changed in {len(changed)} of {len(a)} runs")
    for key in changed:
        diff = ", ".join(f"{f} {a[key][f]} -> {b[key][f]}" for f in STRUCTURE if a[key][f] != b[key][f])
        print(f"  {key[0]} seed {key[1]}: {diff}")
    for name in dict.fromkeys(s for s, _ in a):
        keys = [key for key in a if key[0] == name]
        pf_a = {key: float.fromhex(a[key]["pf"]) for key in keys}
        pf_b = {key: float.fromhex(b[key]["pf"]) for key in keys}
        rel = {key: relative_change(pf_a[key], pf_b[key]) for key in keys}
        worst = max(keys, key=lambda key: rel[key])
        n_same = sum(pf_a[key] == pf_b[key] for key in keys)
        print(f"{name}: pf bit-equal in {n_same} of {len(keys)}; largest rel pf diff {rel[worst]:.3g} (seed {worst[1]})")
        ref = SETS[name].ref if name in SETS else None
        if ref is None:
            continue
        with_se = all("se" in table[key] for table in (a, b) for key in keys)
        for label, table, pfs in (("before", a, pf_a), ("after", b, pf_b)):
            rmse, trimmed, above, ratio, mean, se = accuracy(list(pfs.values()), ref)
            evals = sum(table[key]["lsf_evals"] for key in keys) / len(keys)
            print(
                f"  {label}: rel RMSE {rmse:.4f}, without {n_trimmed(len(pfs))} largest {trimmed:.4f},"
                f" runs > 2x {above}, largest ratio {ratio:.2f}, mean pf/ref {mean:.4f} ± {se:.4f},"
                f" rel MSE x mean LSF evals / 1000 {rmse**2 * evals / 1000:.4g}"
            )
            if with_se:
                ses = [float.fromhex(table[key]["se"]) for key in keys]
                covered, low, at_zero, high = coverage(list(pfs.values()), ses, ref)
                print(
                    f"    ±2 se covers {covered} of {len(keys)}; misses below {low} ({at_zero} at pf 0), above {high}"
                )
    return not changed and all(a[key]["pf"] == b[key]["pf"] for key in a)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("before")
    cmp.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "run":
        make_table(args.out)
        return 0
    return 0 if compare(args.before, args.after) else 1


if __name__ == "__main__":
    sys.exit(main())
