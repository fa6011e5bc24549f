"""Outside-in tracing of the eivbands layers.

`Tracer.install` replaces each traced public function with a wrapper that
records one span per call: name, start, end, parent span and run id, plus
the counts that can be read off the call's arguments and result.  Several
modules bind these functions with ``from .lasso import ...``, so the wrapper
is bound under every name in every loaded ``eivbands`` module that refers
to the original function, e.g. ``eivbands.nodewise.fit_corrected_lasso``
and ``eivbands.debias.fit_nodewise``.  Private helpers such as
``lasso._spectral_bound`` stay inside their caller's self time.

Spans stay in memory until `write_spans`.  `summarize` turns the spans of
one command into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

ROOT_SPAN = "cli.main"

# Span names whose calls make up the debias score layer.
SCORE_GROUP = ("debias.score_slope", "debias.score_values",
               "debias.debias_coordinate")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gram_counts(args, kwargs, result):
    n, p = np.shape(_arg(args, kwargs, 0, "Z"))
    return {"flops": n * p * p}


def _fit_counts(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _nodewise_counts(args, kwargs, result):
    return {"support": int(np.count_nonzero(result.mu)),
            "iterations": int(result.fit.iterations)}


def _maxima_counts(args, kwargs, result):
    n, m = np.shape(_arg(args, kwargs, 0, "scores"))
    draws = int(_arg(args, kwargs, 1, "draws"))
    return {"flops": 2 * draws * n * m,
            "peak_bytes": min(draws, 4096) * m * 8}


def _normals_counts(args, kwargs, result):
    return {"count": int(_arg(args, kwargs, 1, "count"))}


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _render_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# span name -> (defining module, function, counter or None); a counter maps
# (args, kwargs, result) of one call to the counts recorded on its span
TRACED = {
    "lasso.corrected_gram": ("eivbands.lasso", "corrected_gram", _gram_counts),
    "lasso.default_radius": ("eivbands.lasso", "default_radius", None),
    "lasso.fit_corrected_lasso": ("eivbands.lasso", "fit_corrected_lasso",
                                  _fit_counts),
    "nodewise.fit_nodewise": ("eivbands.nodewise", "fit_nodewise",
                              _nodewise_counts),
    "debias.prepare_pilot": ("eivbands.debias", "prepare_pilot", None),
    "debias.run_inference": ("eivbands.debias", "run_inference", None),
    "debias.score_slope": ("eivbands.debias", "score_slope", None),
    "debias.score_values": ("eivbands.debias", "score_values", None),
    "debias.debias_coordinate": ("eivbands.debias", "debias_coordinate", None),
    "mar.estimate": ("eivbands.mar", "estimate", None),
    "bootstrap.multiplier_maxima": ("eivbands.bootstrap", "multiplier_maxima",
                                    _maxima_counts),
    "bootstrap.adjust_scores": ("eivbands.bootstrap",
                                "adjust_scores_for_estimated_noise", None),
    "bootstrap.simultaneous_bands": ("eivbands.bootstrap",
                                     "simultaneous_bands", None),
    "rng.normals": ("eivbands.rng", "normals", _normals_counts),
    "simstudy.generate": ("eivbands.simstudy", "generate", None),
    "dataio.read_dataset_csv": ("eivbands.dataio", "read_dataset_csv",
                                _read_counts),
    "reports.render_records": ("eivbands.reports", "render_records",
                               _render_counts),
}

# Layers in the order their self times are reported; together with the
# cli root span they cover the whole traced command.
LAYERS = ("lasso", "nodewise", "debias", "mar", "bootstrap", "rng",
          "simstudy", "dataio", "reports", "cli")


class Tracer:
    """Collects spans for one traced command; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self.bindings: dict[str, list[str]] = {}

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent,
                              {"error": type(exc).__name__})
                raise
            end = clock()
            stack.pop()
            attrs = counter(args, kwargs, result) if counter else {}
            spans[sid] = (name, start, end, parent, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever an eivbands module holds it."""
        for name, (module, attr, counter) in TRACED.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, counter)
            where = []
            for modname, mod in sorted(sys.modules.items()):
                if modname != "eivbands" and not modname.startswith("eivbands."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        where.append(f"{modname}.{key}")
            self.bindings[name] = where

    def call(self, fn, *args):
        """Run `fn` as the root span of the traced command."""
        return self._wrap(ROOT_SPAN, fn, None)(*args)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": sid, "parent": parent,
                       "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _pct_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def summarize(spans: list) -> dict[str, float]:
    """Per-layer metrics for the spans of one command.

    busy_s is the time inside a function's calls, children included (the
    score group counts a nested call once); self_s subtracts the time its
    traced children cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name: dict[str, list] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    score_busy = 0.0
    for sid, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        by_name.setdefault(name, []).append((dur, dur - child_time[sid], attrs))
        layer_self[name.split(".")[0]] += dur - child_time[sid]
        if name in SCORE_GROUP and (parent is None
                                    or spans[parent][0] not in SCORE_GROUP):
            score_busy += dur

    def calls(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(a.get(key, 0) for _, _, a in calls(name))

    def busy(name):
        return sum(d for d, _, _ in calls(name))

    def self_time(name):
        return sum(s for _, s, _ in calls(name))

    fits = calls("lasso.fit_corrected_lasso")
    nodewise = calls("nodewise.fit_nodewise")
    m = {
        "lasso.corrected_gram.calls": len(calls("lasso.corrected_gram")),
        "lasso.corrected_gram.busy_s": busy("lasso.corrected_gram"),
        "lasso.corrected_gram.flops": total("lasso.corrected_gram", "flops"),
        "lasso.default_radius.calls": len(calls("lasso.default_radius")),
        "lasso.default_radius.busy_s": busy("lasso.default_radius"),
        "lasso.fit_corrected_lasso.calls": len(fits),
        "lasso.fit_corrected_lasso.busy_s": busy("lasso.fit_corrected_lasso"),
        "lasso.fit_corrected_lasso.iterations":
            total("lasso.fit_corrected_lasso", "iterations"),
        "lasso.fit_corrected_lasso.converged_frac":
            (total("lasso.fit_corrected_lasso", "converged") / len(fits))
            if fits else 0.0,
        "lasso.fit_corrected_lasso.p50_ms": _pct_ms([d for d, _, _ in fits], 50),
        "lasso.fit_corrected_lasso.p95_ms": _pct_ms([d for d, _, _ in fits], 95),
        "nodewise.fit_nodewise.calls": len(nodewise),
        "nodewise.fit_nodewise.self_s": self_time("nodewise.fit_nodewise"),
        "nodewise.fit_nodewise.support_mean":
            (total("nodewise.fit_nodewise", "support") / len(nodewise))
            if nodewise else 0.0,
        "nodewise.fit_nodewise.moved_frac":
            (sum(a.get("iterations", 0) >= 1 for _, _, a in nodewise)
             / len(nodewise))
            if nodewise else 0.0,
        "debias.prepare_pilot.busy_s": busy("debias.prepare_pilot"),
        "debias.run_inference.calls": len(calls("debias.run_inference")),
        "debias.run_inference.self_s": self_time("debias.run_inference"),
        "debias.run_inference.p50_ms":
            _pct_ms([d for d, _, _ in calls("debias.run_inference")], 50),
        "debias.run_inference.p90_ms":
            _pct_ms([d for d, _, _ in calls("debias.run_inference")], 90),
        "debias.score.busy_s": score_busy,
        "mar.estimate.calls": len(calls("mar.estimate")),
        "mar.estimate.busy_s": busy("mar.estimate"),
        "bootstrap.multiplier_maxima.calls":
            len(calls("bootstrap.multiplier_maxima")),
        "bootstrap.multiplier_maxima.busy_s": busy("bootstrap.multiplier_maxima"),
        "bootstrap.multiplier_maxima.flops":
            total("bootstrap.multiplier_maxima", "flops"),
        "bootstrap.multiplier_maxima.peak_bytes":
            max((a.get("peak_bytes", 0)
                 for _, _, a in calls("bootstrap.multiplier_maxima")), default=0),
        "bootstrap.adjust_scores.busy_s": busy("bootstrap.adjust_scores"),
        "bootstrap.simultaneous_bands.busy_s":
            busy("bootstrap.simultaneous_bands"),
        "rng.normals.calls": len(calls("rng.normals")),
        "rng.normals.count": total("rng.normals", "count"),
        "rng.normals.busy_s": busy("rng.normals"),
        "simstudy.generate.calls": len(calls("simstudy.generate")),
        "simstudy.generate.busy_s": busy("simstudy.generate"),
        "dataio.read_dataset_csv.busy_s": busy("dataio.read_dataset_csv"),
        "dataio.read_dataset_csv.bytes": total("dataio.read_dataset_csv", "bytes"),
        "reports.render_records.busy_s": busy("reports.render_records"),
        "reports.render_records.bytes": total("reports.render_records", "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
