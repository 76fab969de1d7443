"""Outside-in tracing of focalrisk's public functions.

``Tracer.install`` replaces each function in ``TRACED`` with a timing
wrapper, in every ``focalrisk`` module that holds it (the defining module
and every module that bound it with ``from ... import``), so calls inside
the package are seen too. Spans (name, start, end, parent, iteration, work)
are kept in memory; ``write`` dumps them as JSON lines. The package itself is
not changed, and untraced runs never see the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = {
    "simulate": ("replication_rng", "sample_truncated_normal", "run_replications",
                 "coverage_experiment", "aggregate_percentiles", "histogram", "write_summary"),
    "data_model": ("make_sample",),
    "risk": ("minimize_upper_risk", "upper_risk_closed_form", "closed_form_curve",
             "true_risk", "risk_curve"),
    "quadrature": ("integrate",),
    "conformal": ("rank_candidate", "focal_sets", "contour", "prediction_set",
                  "serialize_focal_system", "serialize_prediction_set"),
    "consistency": ("constants", "verify_pointwise", "verify_uniform"),
    "svgplot": ("render_curves", "render_histograms"),
    "cli": ("main",),
}


def _count_integrand(args, kwargs, box):
    f = args[0]

    def counted(y):
        box[0] += 1
        return f(y)

    return (counted, *args[1:])


def _set_work(work):
    def hook(args, kwargs, box):
        box[0] = work(args)
        return args

    return hook


# Work counted per call: values drawn, values sampled, curve cells, integrand evaluations.
WORK = {
    "simulate.sample_truncated_normal": _set_work(lambda a: int(a[0])),
    "data_model.make_sample": _set_work(lambda a: len(a[0])),
    "risk.closed_form_curve": _set_work(lambda a: len(a[2]) * a[1].n),
    "quadrature.integrate": _count_integrand,
}

# The per-layer metrics, in the order BENCHMARK.json lists them, and their units.
LAYER_UNITS = {
    "simulate.sample_s": "s", "simulate.sample_calls": "count", "simulate.values_drawn": "count",
    "simulate.engine_self_s": "s", "simulate.aggregate_s": "s", "simulate.write_s": "s",
    "data_model.make_sample_s": "s", "data_model.make_sample_calls": "count",
    "data_model.make_sample_per_item": "count",
    "risk.minimize_s": "s", "risk.minimize_calls": "count", "risk.golden_evals_per_minimize": "count",
    "risk.closed_form_scalar_s": "s", "risk.closed_form_curve_s": "s", "risk.curve_cells": "count",
    "risk.true_risk_s": "s", "risk.true_risk_calls": "count", "risk.risk_curve_self_s": "s",
    "quadrature.integrate_s": "s", "quadrature.integrals": "count",
    "quadrature.evals_per_integral": "count",
    "conformal.rank_candidate_s": "s", "conformal.rank_candidate_calls": "count",
    "conformal.focal_sets_s": "s", "conformal.contour_s": "s", "conformal.contour_calls": "count",
    "conformal.prediction_set_s": "s", "conformal.serialize_s": "s",
    "conformal.empty_focal_set_warnings": "count",
    "consistency.constants_s": "s", "consistency.constants_calls": "count",
    "consistency.verify_self_s": "s",
    "svgplot.render_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.iteration = 0
        self.empty_focal_set_warnings: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            box = [0]
            if hook is not None:
                args = hook(args, kwargs, box)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration, box[0])

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"focalrisk.{m}") for m in TRACED}
        package = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "focalrisk" or k.startswith("focalrisk."))]
        for mod_name, names in TRACED.items():
            for fname in names:
                original = getattr(mods[mod_name], fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def call(self, fn, *args):
        """Call fn, counting the EmptyFocalSetWarnings it raises (they are not printed)."""
        from focalrisk.errors import EmptyFocalSetWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return fn(*args)
            finally:
                self.empty_focal_set_warnings[self.iteration] += sum(
                    issubclass(w.category, EmptyFocalSetWarning) for w in caught)

    def per_iteration(self) -> dict[int, dict[str, dict[str, float]]]:
        """iteration -> name -> {"incl", "self", "calls", "work", "golden"} totals."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for index, (name, start, end, parent, it, work) in enumerate(self.spans):
            t = out[it][name]
            t["incl"] += end - start
            t["self"] += end - start - child[index]
            t["calls"] += 1
            t["work"] += work
            if parent >= 0 and self.spans[parent][0] == "risk.minimize_upper_risk":
                t["golden"] += 1
        return out

    def layer_metrics(self, iterations, datasets: int, bytes_written: dict[int, int],
                      overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per iteration, the median over the given traced iterations."""
        totals = self.per_iteration()
        rows = [_layer_row(totals[i], datasets, bytes_written[i],
                           self.empty_focal_set_warnings[i]) for i in iterations]
        metrics = {}
        for k in rows[0]:
            vals = [r[k] for r in rows]
            metrics[k] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
        metrics["trace.overhead_s"] = overhead_s
        return metrics

    def self_time_shares(self, iterations) -> dict[str, float]:
        """Share of traced self time per module, summed over the given iterations."""
        totals = self.per_iteration()
        by_module: dict[str, float] = defaultdict(float)
        for i in iterations:
            for name, t in totals[i].items():
                by_module[name.split(".")[0]] += t["self"]
        whole = sum(by_module.values()) or 1.0
        return {m: by_module[m] / whole for m in TRACED}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, it, work in self.spans:
                f.write(f'["{name}",{start!r},{end!r},{parent},{it},{work}]\n')


def _layer_row(t, datasets, bytes_written, warnings_count) -> dict[str, float]:
    def g(name, key="incl"):
        return t[name][key] if name in t else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "simulate.sample_s": g("simulate.replication_rng", "self") + g("simulate.sample_truncated_normal", "self"),
        "simulate.sample_calls": int(g("simulate.sample_truncated_normal", "calls")),
        "simulate.values_drawn": int(g("simulate.sample_truncated_normal", "work")),
        "simulate.engine_self_s": g("simulate.run_replications", "self") + g("simulate.coverage_experiment", "self"),
        "simulate.aggregate_s": g("simulate.aggregate_percentiles") + g("simulate.histogram"),
        "simulate.write_s": g("simulate.write_summary"),
        "data_model.make_sample_s": g("data_model.make_sample"),
        "data_model.make_sample_calls": int(g("data_model.make_sample", "calls")),
        "data_model.make_sample_per_item": ratio(g("data_model.make_sample", "calls"), datasets),
        "risk.minimize_s": g("risk.minimize_upper_risk"),
        "risk.minimize_calls": int(g("risk.minimize_upper_risk", "calls")),
        "risk.golden_evals_per_minimize": ratio(g("risk.upper_risk_closed_form", "golden"),
                                                g("risk.minimize_upper_risk", "calls")),
        "risk.closed_form_scalar_s": g("risk.upper_risk_closed_form"),
        "risk.closed_form_curve_s": g("risk.closed_form_curve"),
        "risk.curve_cells": int(g("risk.closed_form_curve", "work")),
        "risk.true_risk_s": g("risk.true_risk"),
        "risk.true_risk_calls": int(g("risk.true_risk", "calls")),
        "risk.risk_curve_self_s": g("risk.risk_curve", "self"),
        "quadrature.integrate_s": g("quadrature.integrate"),
        "quadrature.integrals": int(g("quadrature.integrate", "calls")),
        "quadrature.evals_per_integral": ratio(g("quadrature.integrate", "work"),
                                               g("quadrature.integrate", "calls")),
        "conformal.rank_candidate_s": g("conformal.rank_candidate"),
        "conformal.rank_candidate_calls": int(g("conformal.rank_candidate", "calls")),
        "conformal.focal_sets_s": g("conformal.focal_sets"),
        "conformal.contour_s": g("conformal.contour"),
        "conformal.contour_calls": int(g("conformal.contour", "calls")),
        "conformal.prediction_set_s": g("conformal.prediction_set"),
        "conformal.serialize_s": g("conformal.serialize_focal_system") + g("conformal.serialize_prediction_set"),
        "conformal.empty_focal_set_warnings": warnings_count,
        "consistency.constants_s": g("consistency.constants"),
        "consistency.constants_calls": int(g("consistency.constants", "calls")),
        "consistency.verify_self_s": g("consistency.verify_pointwise", "self") + g("consistency.verify_uniform", "self"),
        "svgplot.render_s": g("svgplot.render_curves") + g("svgplot.render_histograms"),
        "cli.self_s": g("cli.main", "self"),
        "cli.bytes_written": bytes_written,
    }
