"""Alternating A/B pairs of ``perfbench/run.py`` between two checkouts.

    python tests/ab_pairs.py BEFORE AFTER --workload W --pairs N --seconds S --seed S0

BEFORE and AFTER are two checkouts of the repository. Pair i runs each
checkout's own ``perfbench/run.py --workload W --seed S0 + 1000 i
--seconds S --trace 0`` once, one after the other, with BEFORE first in
the even pairs and AFTER first in the odd ones, so a drift of the host's
speed falls on both sides alike. BLAS runs on one thread, set only in the
environment of each process.

A pair whose two ``# digest`` lines differ is refused: the two sides did
not compute the same panel, so their times are not a comparison. So is a
pair in which either side's check failed. For each end-to-end metric of
``BENCHMARK.json`` the summary prints both medians over the pairs, both
interquartile ranges (``statistics.quantiles``' inclusive method, numpy's
default percentiles) and how many pairs each side won, by the metric's
``better`` direction; a tie counts for neither side. Each pair's line
gives both sides' metrics as JSON, so the pairs of several invocations
can be pooled.

pytest does not collect this file; ``tests/test_ab_pairs.py`` checks the
summary on canned records.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def end_to_end_metrics(path: Path = BENCHMARK) -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric of ``BENCHMARK.json``."""
    return [(m["name"], m["better"]) for m in json.loads(path.read_text())["end_to_end"]]


def iqr(values) -> float:
    """Upper minus lower quartile, numpy's default (linear) percentiles."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(pairs, metrics) -> dict:
    """Per metric (name, better): both medians, both IQRs and the pairs each
    side won, over ``pairs``, a list of (before, after) metric dicts."""
    out = {}
    for name, better in metrics:
        before = [b[name] for b, _ in pairs]
        after = [a[name] for _, a in pairs]
        sign = 1.0 if better == "higher" else -1.0
        out[name] = {
            "before_median": statistics.median(before),
            "after_median": statistics.median(after),
            "before_iqr": iqr(before),
            "after_iqr": iqr(after),
            "before_ahead": sum(sign * (b - a) > 0.0 for b, a in zip(before, after)),
            "after_ahead": sum(sign * (a - b) > 0.0 for b, a in zip(before, after)),
        }
    return out


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """The ``# digest`` and the result line of one ``--trace 0`` run."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("# digest "))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout} seed {seed}: check failed or runs failed: {result}")
    return digest, {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for an IQR")
    metrics = end_to_end_metrics()
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + 1000 * i
        sides = {}
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            sides[side] = run_side(getattr(args, side), args.workload, seed, args.seconds)
        (d_before, before), (d_after, after) = sides["before"], sides["after"]
        if d_before != d_after:
            raise SystemExit(f"pair {i} (seed {seed}) refused: digests differ, {d_before} against {d_after}")
        pairs.append((before, after))
        print(f"# pair {i} seed {seed} digest {d_before} {json.dumps({'before': before, 'after': after})}", flush=True)
    print(f"{'metric':<18} {'before':>11} {'iqr':>10} {'after':>11} {'iqr':>10}  ahead (before, after)")
    for name, s in summarise(pairs, metrics).items():
        print(f"{name:<18} {s['before_median']:>11.6g} {s['before_iqr']:>10.4g} {s['after_median']:>11.6g} "
              f"{s['after_iqr']:>10.4g}  {s['before_ahead']}, {s['after_ahead']} of {len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
