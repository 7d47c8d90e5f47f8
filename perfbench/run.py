"""Benchmark of the safe-ICE estimator: seeded workloads, end-to-end
metrics, a correctness check and a traced per-layer run.

    python3 perfbench/run.py --workload four-branch --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: run
i calls ``safeice.core.run_safe_ice`` with seed ``seed + i`` and the next
run starts when it returns. The first ``panel`` runs of a workload are
always made, however long they take; the accuracy figures, the
correctness check and the output digest use only them, so these are fixed
by the seed and do not depend on how fast the code is. Timing uses every
run made in the ``--seconds`` window.

With ``--trace 0`` the last line of stdout is a JSON object whose
``metrics`` are the gated end-to-end metrics; the lines above it print
every end-to-end metric with its unit, the environment and the digest.
With ``--trace 1`` the panel runs are made with the layers wrapped from
outside (see layers.py), then again untraced to give the tracing
overhead, and ``metrics`` are the per-layer metrics per run; the window
is not used, so the work counts too are fixed by the seed. A full record, and the spans of a
traced run, are written under perfbench/out/.

The exit code is 0 whenever the result line was printed; ``correct``
says whether the checks passed.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; one thread never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import safeice  # noqa: E402
from safeice import core  # noqa: E402
from safeice.problems import problem_registry  # noqa: E402

from layers import Tracer, WarningCounter  # noqa: E402

# A shared host's speed drifts by up to 1.8x over a few seconds (measured
# with the kernel below). The kernel is timed before and after every run,
# and each time is scaled to the speed at which the kernel takes
# CAL_REF_S, the usual speed of a 2-core x86_64 host with Python 3.11 and
# numpy 2.4.
CAL_REF_S = 0.016
_CAL_X = np.linspace(-3.0, 3.0, 1000)
# Warm-up runs use seeds this far above the base, outside any timed run.
WARMUP_OFFSET = 2**40
SETUP_SAMPLES = 5
# Start-up follows the host's speed less than the kernel does, as it also
# reads files: over 50 invocations per workload, log setup time rose by
# 0.73-0.81 per unit of log host slowdown.
SETUP_HOST_EXPONENT = 0.8
# end-to-end metrics printed on the last line: the ones steady enough from
# seed to seed to be gated (see README.md for why the accuracy ones are not)
GATED = ("runs_per_s", "run_s_p50", "run_s_tail", "setup_s", "peak_rss_mb", "lsf_evals_per_run")


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy operations and Python loop
    steps, like the estimator's own mix; it never runs estimator code, so
    a faster program does not make it faster."""
    start = time.perf_counter()
    for _ in range(800):
        np.abs(_CAL_X) ** 3 * _CAL_X + _CAL_X * 0.5
    total = 0
    for i in range(80_000):
        total += i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    problem: str
    z: float
    d: int
    panel: int
    n_per_iter: int = 1000


WORKLOADS = {
    # EM is most of a run; the LSF is cheap. K prunes from 20.
    "four-branch": Workload("four-branch", 0.0, 2, panel=100),
    # most smoothing levels; exact reference; long, wide arrays
    "two-mode-rare": Workload("two-mode", 5.5, 20, panel=20, n_per_iter=10_000),
    # the RK4 LSF is most of a run; EM is small
    "oscillator": Workload("oscillator", 0.05, 10, panel=20),
}


def build(name: str):
    w = WORKLOADS[name]
    problem = problem_registry(w.problem, w.z, w.d)
    config = core.RunConfig(method="safe-ice", n_per_iter=w.n_per_iter)
    return problem, config


@dataclass
class Run:
    seed: int
    seconds: float
    result: object = None
    error: str | None = None
    scaled: float = math.nan  # seconds at the reference host speed

    @property
    def ok(self) -> bool:
        return self.result is not None and math.isfinite(self.result.pf) and self.result.pf >= 0.0


def one_run(problem, config, seed: int) -> Run:
    start = time.perf_counter()
    try:
        # looked up on the module each time so a traced run sees the wrapper
        result = core.run_safe_ice(problem, replace(config, seed=seed))
    except Exception:  # a failed run is counted, not fatal
        return Run(seed, time.perf_counter() - start, error=traceback.format_exc())
    return Run(seed, time.perf_counter() - start, result)


def closed_loop(problem, config, base: int, seconds: float, min_runs: int, tracer=None, probe=None):
    """Run seeds base, base+1, ... one after another until at least
    ``min_runs`` are done and ``seconds`` have passed. Returns the runs
    and the calibration times taken around them.

    ``probe(elapsed)`` is called before each run and returns whether it
    did anything; its time is left out of the window, and the host speed
    is measured again after it."""
    runs = []
    cals = [calibrate()]
    start = time.perf_counter()
    paused = 0.0
    while len(runs) < min_runs or time.perf_counter() - start - paused < seconds:
        t = time.perf_counter()
        if probe is not None and probe(t - start - paused):
            cals[-1] = calibrate()
            paused += time.perf_counter() - t
        if tracer is not None:
            tracer.run_id = len(runs)
        run = one_run(problem, config, base + len(runs))
        cals.append(calibrate())
        run.scaled = run.seconds * CAL_REF_S / statistics.fmean(cals[-2:])
        runs.append(run)
    return runs, cals


def digest(runs) -> str:
    h = hashlib.sha256()
    for r in runs:
        if r.ok:
            res = r.result
            h.update(f"{r.seed},{res.pf.hex()},{res.iterations},{res.final_k},{res.lsf_evals}\n".encode())
        else:
            h.update(f"{r.seed},failed\n".encode())
    return h.hexdigest()


def tail(times) -> tuple[int, float]:
    """Highest whole percentile with at least 10 runs beyond it, and its
    nearest-rank value. With 10 runs or fewer, the maximum (p100)."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    q = (100 * (n - 10)) // n
    return q, xs[math.ceil(q * n / 100) - 1]


def accuracy(panel, ref_pf: float | None) -> dict:
    ok = [r for r in panel if r.ok]
    evals = statistics.fmean(r.result.lsf_evals for r in ok)
    metrics = {"lsf_evals_per_run": (evals, "count")}
    if ref_pf:
        rel = np.array([(r.result.pf - ref_pf) / ref_pf for r in ok])
        rel_rmse = float(np.sqrt(np.mean(rel**2)))
        mean_s = statistics.fmean(r.scaled for r in ok)
        metrics["rel_rmse"] = (rel_rmse, "ratio")
        metrics["s_to_10pct"] = (mean_s * rel_rmse**2 / 0.01, "s")
        metrics["evals_to_10pct"] = (evals * rel_rmse**2 / 0.01, "count")
    metrics["unconverged_frac"] = (sum(not r.result.converged for r in ok) / len(ok), "ratio")
    return metrics


def check(runs, panel, ref: dict | None) -> list:
    """Reasons the workload failed; empty when it passed.

    The median pf of the panel must lie within the tolerance around the
    reference, widened by three times the reference's own cv. The band is
    fixed by references.json, so a noisier estimator cannot widen it. The
    median and not the mean: single four-branch runs now and then
    overestimate pf by 10x or more (see README.md), and one such run moves
    the mean of a 100-run panel by 0.16.
    """
    reasons = []
    bad = [r.seed for r in runs if not r.ok]
    if bad:
        reasons.append(f"{len(bad)} runs raised or gave a non-finite or negative pf (seeds {bad[:5]})")
    if ref is None or not ref.get("pf"):
        return reasons + ["reference missing"]
    pfs = [r.result.pf for r in panel if r.ok]
    if not pfs:
        return reasons + ["no successful run to check"]
    ref_pf = ref["pf"]
    median = statistics.median(pfs)
    off = abs(median / ref_pf - 1.0)
    allowed = ref["tolerance"] + 3.0 * ref.get("cv", 0.0)
    if off > allowed:
        reasons.append(
            f"median pf {median:.4e} is {off:.3f} from reference {ref_pf:.4e};"
            f" allowed {allowed:.3f} (tolerance {ref['tolerance']} + 3 reference cv)"
        )
    return reasons


def environment() -> dict:
    # the ceiling keeps git from looking for a repository above the checkout
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "safeice").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


class SetupProbes:
    """Fresh processes that import, build the problem and finish one
    warm-up run, spread evenly over the timed window so that they meet the
    host at different speeds."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.due = [args.seconds * k / (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES)]
        self.samples = []

    def _run(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
        self.samples.append(time.perf_counter() - start)

    def __call__(self, elapsed: float) -> bool:
        if len(self.samples) < SETUP_SAMPLES and elapsed >= self.due[len(self.samples)]:
            self._run()
            return True
        return False

    def finish(self) -> list:
        while len(self.samples) < SETUP_SAMPLES:
            self._run()
        return self.samples


def summarise(runs) -> list:
    return [
        {"seed": r.seed, "seconds": r.seconds, "scaled_s": r.scaled, "error": r.error}
        if not r.ok
        else {
            "seed": r.seed, "seconds": r.seconds, "scaled_s": r.scaled, "pf": r.result.pf, "iterations": r.result.iterations,
            "final_k": r.result.final_k, "lsf_evals": r.result.lsf_evals, "converged": r.result.converged,
        }
        for r in runs
    ]


def end_to_end(args, problem, config, record: dict, warnings):
    probes = SetupProbes(args)
    panel_size = WORKLOADS[args.workload].panel
    runs, cals = closed_loop(problem, config, args.seed, args.seconds, panel_size, probe=probes)
    setup = probes.finish()
    panel = runs[:panel_size]
    done = [r for r in runs if r.ok]
    # with no successful run there is no run time to report; the check fails
    q = None
    metrics, wall = {}, {}
    if done:
        q, tail_s = tail([r.scaled for r in done])
        metrics.update({
            "runs_per_s": (len(done) / sum(r.scaled for r in done), "1/s"),
            "run_s_p50": (statistics.median(r.scaled for r in done), "s"),
            "run_s_tail": (tail_s, "s"),
        })
        wall.update({
            "wall_runs_per_s": (len(done) / sum(r.seconds for r in done), "1/s"),
            "wall_run_s_p50": (statistics.median(r.seconds for r in done), "s"),
        })
    # Scaled by the host speed over the whole window, not around each
    # probe: a probe is too long for one kernel timing to stand for it.
    host_slowdown = statistics.median(cals) / CAL_REF_S
    metrics["setup_s"] = (statistics.median(setup) / host_slowdown**SETUP_HOST_EXPONENT, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if any(r.ok for r in panel):
        metrics.update(accuracy(panel, (record["reference"] or {}).get("pf")))
    metrics["failed_frac"] = (1.0 - len(done) / len(runs), "ratio")
    wall["wall_setup_s"] = (statistics.median(setup), "s")
    wall["host_slowdown"] = (host_slowdown, "ratio")
    record.update(
        setup_s=setup,
        calibration_s=cals,
        tail_percentile=q,
        timed_runs=len(runs),
        panel_runs=len(panel),
        digest=digest(panel),
        warnings=dict(warnings.counts),
        all_metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        unscaled={k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        runs=summarise(runs),
    )
    print(f"# {len(runs)} runs, panel of {len(panel)} from seed {args.seed}; times scaled to the reference host speed")
    for name, (value, unit) in (metrics | wall).items():
        note = f"  (p{q} of {len(done)} runs)" if name == "run_s_tail" else ""
        print(f"{name:<18} {value:.6g} {unit}{note}")
    # a gated metric is missing only when runs failed, and then the check fails
    return {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in GATED if m in metrics}, runs, panel


def traced(args, problem, config, record: dict, warnings):
    tracer = Tracer()
    tracer.install(problem)
    before = warnings.counts.copy()
    try:
        runs, _ = closed_loop(problem, config, args.seed, 0.0, WORKLOADS[args.workload].panel, tracer)
    finally:
        tracer.uninstall()
    layer_warnings = warnings.counts - before
    plain, _ = closed_loop(problem, config, args.seed, 0.0, len(runs))
    overhead = statistics.median(t.scaled - p.scaled for t, p in zip(runs, plain))
    metrics = tracer.per_run_metrics(len(runs), layer_warnings, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv"
    tracer.write_spans(spans_path)
    record.update(
        traced_runs=len(runs),
        absent=tracer.absent,
        digest=digest(runs),
        untraced_digest=digest(plain),
        spans_file=str(spans_path.relative_to(ROOT)),
        runs=summarise(runs),
    )
    print(f"# {len(runs)} traced runs from seed {args.seed}; absent: {tracer.absent or 'none'}")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    return metrics, runs, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="import, build and warm up, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not Path(safeice.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"safeice was imported from {safeice.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    warnings = WarningCounter()
    warnings.attach()
    problem, config = build(args.workload)
    one_run(problem, config, args.seed + WARMUP_OFFSET)
    if args.setup_only:
        return 0

    refs = json.loads((HERE / "references.json").read_text())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "reference": refs.get(args.workload),
    }
    print("# env " + json.dumps(record["environment"]))
    measure = traced if args.trace else end_to_end
    metrics, runs, panel = measure(args, problem, config, record, warnings)
    reasons = check(runs, panel, record["reference"])
    if args.trace and record["digest"] != record["untraced_digest"]:
        reasons.append("traced and untraced runs of the same seeds differ")
    record["check"] = reasons
    print(f"# digest {record['digest']}")
    print("# check " + ("PASS" if not reasons else "FAIL: " + "; ".join(reasons)))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not reasons,
        "attempted": len(runs),
        "failed": sum(not r.ok for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
