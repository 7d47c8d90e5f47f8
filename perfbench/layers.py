"""Per-layer tracing of the safeice estimator, installed from outside it.

The tracer replaces the public functions of each layer module with thin
wrappers that record a span (name, start, end, parent span, run id) and
exact work counts, and puts the originals back on ``uninstall``. Nothing
in ``src/safeice`` knows about it.

A function is wrapped in every ``safeice`` module namespace that binds it,
so ``from .em import fit`` in ``core`` is seen as well as ``em.fit``. A
function that has been renamed or removed is listed in ``absent`` and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import logging
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _e_step_elems(counts, args, kwargs, result):
    counts["em.density_elems"] += len(_arg(args, kwargs, 0, "samples")) * _arg(args, kwargs, 1, "v").k


def _loglik_elems(counts, args, kwargs, result):
    # weighted_loglik evaluates the mixture only where the weight is positive
    positive = np.count_nonzero(np.asarray(_arg(args, kwargs, 1, "weights")) > 0.0)
    counts["em.density_elems"] += int(positive) * _arg(args, kwargs, 2, "v").k


def _pruned(counts, args, kwargs, result):
    counts["em.components_pruned"] += _arg(args, kwargs, 2, "v").k - result[0].k


def _fit_iterations(counts, args, kwargs, result):
    counts["em.fit.iterations"] += result.n_iterations


def _outer_iterations(counts, args, kwargs, result):
    counts["core.outer_iterations"] += result.iterations


def _points(counts, args, kwargs, result):
    counts["problems.evaluate.points"] += np.shape(args[0])[0]


@dataclass(frozen=True)
class Spec:
    """One wrapped function: ``module.attr`` is looked up and replaced in
    every safeice module that binds it; ``after`` adds its work counts."""

    name: str
    module: str
    attr: str
    after: object = None


SPECS = (
    Spec("core.run_safe_ice", "core", "run_safe_ice", _outer_iterations),
    Spec("core.select_sigma", "core", "select_sigma"),
    Spec("core.stop_cv", "core", "stop_cv"),
    Spec("core.estimate_pf", "core", "estimate_pf"),
    Spec("mixtures.safe_sample", "mixtures", "safe_sample"),
    Spec("mixtures.safe_logpdf", "mixtures", "safe_logpdf"),
    Spec("em.fit", "em", "fit", _fit_iterations),
    Spec("em.e_step", "em", "e_step", _e_step_elems),
    Spec("em.m_step_params", "em", "m_step_params"),
    Spec("em.weighted_loglik", "em", "weighted_loglik", _loglik_elems),
    Spec("em.prune", "em", "prune", _pruned),
    Spec("em.penalized_weight_update", "em", "penalized_weight_update"),
    Spec("em.beta_update", "em", "beta_update"),
)

# The problem's evaluator is an attribute of the Problem object, not a
# module function, so it is wrapped on the instance.
EVALUATE = Spec("problems.evaluate", "problems", "evaluate", _points)

# Per-run metrics reported by a traced run, with their units.
PER_LAYER = (
    [(f"problems.evaluate.{k}", u) for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count"), ("points", "count"))]
    + [(f"em.fit.{k}", u) for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count"), ("iterations", "count"))]
    + [(f"em.{f}.s", "s") for f in ("e_step", "m_step_params", "weighted_loglik", "prune", "penalized_weight_update", "beta_update")]
    + [("em.density_elems", "count"), ("em.components_pruned", "count")]
    + [(f"core.select_sigma.{k}", u) for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count"), ("cdf_elems", "count"))]
    + [("core.stop_cv.s", "s"), ("core.estimate_pf.s", "s"), ("core.outer_iterations", "count")]
    + [("core.run_safe_ice.s", "s"), ("core.run_safe_ice.self_s", "s")]
    + [(f"mixtures.{f}.{k}", u) for f in ("safe_sample", "safe_logpdf") for k, u in (("s", "s"), ("calls", "count"))]
    + [("mixtures.vmf_sample.calls", "count")]
    + [("em.warnings", "count"), ("core.warnings", "count")]
    + [("em.fit.share", "ratio"), ("problems.evaluate.share", "ratio"), ("trace.overhead_s", "s")]
)


class WarningCounter(logging.Handler):
    """Counts safeice log records per layer and keeps them off the console."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        self.counts[record.name.rsplit(".", 1)[-1] + ".warnings"] += 1

    def attach(self):
        log = logging.getLogger("safeice")
        log.addHandler(self)
        log.propagate = False


class Tracer:
    """Spans and counts for the runs made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = None
        self.absent: list = []
        self._stack: list = []
        self._open: Counter = Counter()
        self._undo: list = []

    def _wrap(self, spec: Spec, fn):
        tracer = self
        name = spec.name
        after = spec.after

        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.spans[span_id] = (tracer.run_id, span_id, parent, name, start, end)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _cdf_counter(self, fn):
        tracer = self

        def counted(x, *args, **kwargs):
            if tracer._open["core.select_sigma"]:
                tracer.counts["core.select_sigma.cdf_elems"] += np.size(x)
            return fn(x, *args, **kwargs)

        return counted

    def _replace(self, mod, attr, new):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _rebind(self, sites, fn, new) -> None:
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, new)

    def install(self, problem) -> None:
        modules = {
            n.rsplit(".", 1)[-1]: m
            for n, m in list(sys.modules.items())
            if n.startswith("safeice.") and m is not None
        }
        for spec in SPECS:
            fn = getattr(modules.get(spec.module), spec.attr, None)
            if not callable(fn):
                self.absent.append(spec.name)
                continue
            self._rebind(modules.values(), fn, self._wrap(spec, fn))
        # vmf_sample is a hot kernel: only its calls from mixtures are counted
        vmf = getattr(modules.get("mixtures"), "vmf_sample", None)
        if callable(vmf):

            def vmf_counted(*args, **kwargs):
                self.counts["mixtures.vmf_sample.calls"] += 1
                return vmf(*args, **kwargs)

            self._replace(modules["mixtures"], "vmf_sample", vmf_counted)
        else:
            self.absent.append("mixtures.vmf_sample")
        cdf = getattr(modules.get("special"), "log_normal_cdf", None)
        if callable(cdf):
            self._rebind(modules.values(), cdf, self._cdf_counter(cdf))
        else:
            self.absent.append("special.log_normal_cdf")
        if callable(getattr(problem, "evaluate", None)):
            self._replace(problem, "evaluate", self._wrap(EVALUATE, problem.evaluate))
        else:
            self.absent.append(EVALUATE.name)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def layer_totals(self) -> dict:
        """Busy seconds, self seconds and calls per span name, summed over
        all runs. Self time is the span minus its direct children, which
        never overlap because the estimator is single threaded."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for _, span_id, _, name, start, end in self.spans:
            t = totals[name]
            t["s"] += end - start
            t["self_s"] += end - start - child[span_id]
            t["calls"] += 1
        return totals

    def per_run_metrics(self, n_runs: int, warnings: Counter, overhead_s: float) -> dict:
        totals = self.layer_totals()
        flat = dict(self.counts)
        flat.update(warnings)
        for name, t in totals.items():
            for key, value in t.items():
                flat[f"{name}.{key}"] = value
        run_s = flat.get("core.run_safe_ice.s", 0.0)
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            elif name.endswith(".share"):
                value = flat.get(name[: -len("share")] + "s", 0.0) / run_s if run_s > 0 else 0.0
            else:
                value = flat.get(name, 0) / n_runs
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart\tend\n")
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(f"{run_id}\t{span_id}\t{'' if parent is None else parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
