"""Crude Monte Carlo reference for the oscillator workload.

    python3 perfbench/oscillator_reference.py

Prints the JSON entry stored under "oscillator" in references.json. A
batch of 5000 keeps the (batch x 1601) forcing array near 64 MB; the
estimate does not depend on the batch size, only on the seed and the
sample count.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from safeice.oracle import mc_estimate  # noqa: E402
from safeice.problems import problem_registry  # noqa: E402

N_TOTAL = 10**7
BATCH_SIZE = 5000
SEED = 0


def main() -> None:
    start = time.perf_counter()
    problem = problem_registry("oscillator", 0.05, 10)
    mc = mc_estimate(problem, N_TOTAL, batch_size=BATCH_SIZE, seed=SEED)
    print(json.dumps({
        "pf": mc.pf,
        "cv": mc.cv,
        "n_total": N_TOTAL,
        "n_failures": mc.n_failures,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "wall_s": round(time.perf_counter() - start, 1),
    }))


if __name__ == "__main__":
    main()
