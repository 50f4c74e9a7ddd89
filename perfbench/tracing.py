"""Span recording for the traced run, from outside the program.

``install(tracer)`` replaces module attributes of flan with wrappers that
record a span per call and restores them on exit.  A span holds its name,
start, end, the index of the span that was open when it began (its parent),
the unit of work it ran in ("setup 0", "rep 3", ...) and optional counts.
Spans stay in memory until the run ends.

Names that other modules bind at import (``from ._kernels import
dag_path_stats``) are patched in each importing module as well, so every
call is caught whichever name it goes through.  ``Rng`` methods are not
wrapped: a wrapper would cost more than a draw.  The rng layer shows up in
``predictor.init.s`` and ``benchmark.generate.s`` instead.

``layer_metrics`` turns the spans into the per-layer metrics listed in
``LAYER_METRICS``; every value is the layer's total in one set-up plus one
repetition (medians over the set-ups and over the traced repetitions).
Span times are raw seconds, not rescaled by the host probe of run.py.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass

from flan import autodiff


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: str
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit = "setup 0"
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """fn recording one span per call; name may be a callable computed
        at call time, count(args, result) returns the span's counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name() if callable(name) else name
            index = len(self.spans)
            span = Span(label, 0.0, 0.0, self._open[-1] if self._open else None,
                        self.unit)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return wrapper


def _forward_name():
    train = autodiff.active_tape() is not None
    return "predictor.forward_batch.train" if train else "predictor.forward_batch.score"


def _archs(args, result):
    return {"archs": len(args[1])}


def _records(args, result):
    return {"records": len(args[0])}


def _fit(args, result):
    return {"steps": result["steps"], "skipped": result["skipped_batches"]}


def _kept(args, result):
    return {"kept": len(result)}


# (module, attribute, span name, counter).  An attribute "Cls.meth" patches
# the method on the class.
TARGETS = (
    ("flan.cli", "main", "cli", None),
    ("flan.cli", "search", "nas_search", None),
    ("flan.nas_search", "search", "nas_search", None),
    ("flan.predictor", "init", "predictor.init", None),
    ("flan.predictor", "prepare_batch", "predictor.prepare_batch", _archs),
    ("flan.training", "prepare_batch", "predictor.prepare_batch", _archs),
    ("flan.predictor", "forward_batch", _forward_name, None),
    ("flan.training", "forward_batch", _forward_name, None),
    ("flan.predictor", "dgf_layer", "predictor.dgf_layer", None),
    ("flan.predictor", "gat_layer", "predictor.gat_layer", None),
    ("flan.predictor", "score_archs", "predictor.score_archs", None),
    ("flan.autodiff", "Tape.backward", "autodiff.backward", _records),
    ("flan.training", "fit", "training.fit", _fit),
    ("flan.training", "_adam_step", "training.adam", None),
    ("flan.training", "hinge_rank_loss", "training.hinge_loss", None),
    ("flan.training", "save_model", "training.checkpoint", None),
    ("flan.training", "load_model", "training.checkpoint", None),
    ("flan.benchmark", "generate_synthetic", "benchmark.generate", _kept),
    ("flan.benchmark", "export", "benchmark.export", None),
    ("flan.benchmark", "ingest", "benchmark.ingest", None),
    ("flan.cellgraph", "prune_to_paths", "cellgraph.prune_to_paths", None),
    ("flan.cellgraph", "validate", "cellgraph.validate", None),
    ("flan.encodings", "score_features", "encodings.score_features", None),
    ("flan.encodings", "encode_path", "encodings.path", None),
    ("flan.encodings", "encode_adjacency", "encodings.adjacency", None),
    ("flan._kernels", "dag_path_stats", "kernels.dag_path_stats", None),
    ("flan.encodings", "dag_path_stats", "kernels.dag_path_stats", None),
    ("flan.benchmark", "dag_path_stats", "kernels.dag_path_stats", None),
    ("flan._kernels", "count_inversions", "kernels.count_inversions", None),
    ("flan.metrics", "count_inversions", "kernels.count_inversions", None),
    ("flan.metrics", "kendall_tau", "metrics.kendall_tau", None),
    ("flan.metrics", "spearman_rho", "metrics.spearman_rho", None),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the block.

    A target the program no longer has is reported on stderr and skipped;
    its metrics then read 0.
    """
    restore = []
    try:
        for module_name, attr, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                print(f"perfbench: trace target {module_name}.{attr} is missing",
                      file=sys.stderr)
                continue
            setattr(owner, leaf, tracer.wrap(name, original, count))
            restore.append((owner, leaf, original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


# Per-layer metrics: name -> (unit, better, target end-to-end metric).
LAYER_METRICS = {
    "predictor.init.s": ("s", "lower", "setup_s on rank-paper"),
    "predictor.prepare_batch.s": ("s", "lower", "wall_s on search-ref"),
    "predictor.prepare_batch.archs": ("count", "lower", "wall_s on search-ref"),
    "predictor.forward_batch.train_s": ("s", "lower", "fit_ms_per_step on rank-paper, wall_s on search-ref"),
    "predictor.forward_batch.score_s": ("s", "lower", "score_archs_per_s on rank-paper"),
    "predictor.dgf_layer.s": ("s", "lower", "fit_ms_per_step and score_archs_per_s on rank-paper, wall_s on search-ref"),
    "predictor.dgf_layer.calls": ("count", "lower", "fit_ms_per_step and score_archs_per_s on rank-paper, wall_s on search-ref"),
    "predictor.gat_layer.s": ("s", "lower", "fit_ms_per_step and score_archs_per_s on rank-paper, wall_s on search-ref"),
    "predictor.gat_layer.calls": ("count", "lower", "fit_ms_per_step and score_archs_per_s on rank-paper, wall_s on search-ref"),
    "autodiff.backward.s": ("s", "lower", "fit_ms_per_step on rank-paper, wall_s on search-ref"),
    "autodiff.records_per_step": ("count", "lower", "fit_ms_per_step on rank-paper, wall_s on search-ref"),
    "training.fit.s": ("s", "lower", "wall_s on search-ref"),
    "training.fit.steps": ("count", "lower", "wall_s on search-ref"),
    "training.fit.step_ratio": ("ratio", "higher", "wall_s on search-ref"),
    "training.adam.s": ("s", "lower", "fit_ms_per_step on rank-paper"),
    "training.hinge_loss.s": ("s", "lower", "fit_ms_per_step on rank-paper"),
    "training.checkpoint.s": ("s", "lower", "wall_s on rank-paper"),
    "nas_search.self_s": ("s", "lower", "wall_s on search-ref"),
    "nas_search.fit_share": ("ratio", "lower", "wall_s on search-ref"),
    "nas_search.score_share": ("ratio", "lower", "wall_s on search-ref"),
    "cli.self_s": ("s", "lower", "wall_s on search-ref"),
    "benchmark.generate.s": ("s", "lower", "gen_archs_per_s on bench-data, setup_s elsewhere"),
    "benchmark.gen.accept_ratio": ("ratio", "higher", "gen_archs_per_s on bench-data, setup_s elsewhere"),
    "benchmark.export.s": ("s", "lower", "wall_s on bench-data"),
    "benchmark.ingest.s": ("s", "lower", "ingest_archs_per_s on bench-data"),
    "cellgraph.prune_to_paths.s": ("s", "lower", "gen_archs_per_s on bench-data"),
    "cellgraph.prune_to_paths.calls": ("count", "lower", "gen_archs_per_s on bench-data"),
    "cellgraph.validate.s": ("s", "lower", "ingest_archs_per_s on bench-data"),
    "cellgraph.validate.calls": ("count", "lower", "ingest_archs_per_s on bench-data"),
    "encodings.score_features.s": ("s", "lower", "encode_archs_per_s and gen_archs_per_s on bench-data"),
    "encodings.path.s": ("s", "lower", "encode_archs_per_s on bench-data"),
    "encodings.adjacency.s": ("s", "lower", "encode_archs_per_s on bench-data"),
    "kernels.dag_path_stats.s": ("s", "lower", "encode_archs_per_s and gen_archs_per_s on bench-data"),
    "kernels.dag_path_stats.calls": ("count", "lower", "encode_archs_per_s and gen_archs_per_s on bench-data"),
    "kernels.count_inversions.s": ("s", "lower", "rank_corr_entries_per_s on bench-data"),
    "kernels.count_inversions.calls": ("count", "lower", "rank_corr_entries_per_s on bench-data"),
    "metrics.kendall_tau.s": ("s", "lower", "rank_corr_entries_per_s on bench-data"),
    "metrics.spearman_rho.s": ("s", "lower", "rank_corr_entries_per_s on bench-data"),
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _inside(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _unit_totals(spans: list[Span], own: list[float], unit: str) -> dict:
    """Raw per-layer sums for one set-up or repetition."""
    t: dict = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    records = []
    for k, s in enumerate(spans):
        if s.unit != unit:
            continue
        add(s.name + ".s", s.seconds)
        add(s.name + ".self", own[k])
        add(s.name + ".calls", 1)
        for key, value in (s.counts or {}).items():
            add(f"{s.name}.{key}", value)
        if s.name == "autodiff.backward":
            records.append(s.counts["records"])
        if s.name == "training.fit" and _inside(spans, k, "nas_search"):
            add("search.fit", s.seconds)
        if s.name == "predictor.score_archs" and _inside(spans, k, "nas_search"):
            add("search.score", s.seconds)
        if s.name == "cellgraph.prune_to_paths" and _inside(spans, k, "benchmark.generate"):
            add("gen.sampled", 1)
    t["records_per_step"] = statistics.median(records) if records else 0
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup_units: list[str],
                  rep_units: list[str]) -> dict[str, float]:
    """Every LAYER_METRICS value: median set-up total plus median traced
    repetition total (ratios and per-step counts from the repetitions)."""
    own = self_times(tracer.spans)
    setups = [_unit_totals(tracer.spans, own, u) for u in setup_units]
    reps = [_unit_totals(tracer.spans, own, u) for u in rep_units]

    def total(key):
        value = 0.0
        for group in (setups, reps):
            if group:
                value += statistics.median(g.get(key, 0.0) for g in group)
        return value

    def rep_median(fn):
        return statistics.median(fn(r) for r in reps)

    out = {}
    for metric, (unit, _, _) in LAYER_METRICS.items():
        layer, _, kind = metric.rpartition(".")
        if unit == "s" and kind == "s":
            out[metric] = total(layer + ".s")
        elif kind == "calls":
            out[metric] = total(layer + ".calls")
    out.update({
        "predictor.prepare_batch.archs": total("predictor.prepare_batch.archs"),
        "predictor.forward_batch.train_s": total("predictor.forward_batch.train.s"),
        "predictor.forward_batch.score_s": total("predictor.forward_batch.score.s"),
        "autodiff.records_per_step": rep_median(lambda r: r["records_per_step"]),
        "training.fit.steps": total("training.fit.steps"),
        "training.fit.step_ratio": rep_median(lambda r: _ratio(
            r.get("training.fit.steps", 0),
            r.get("training.fit.steps", 0) + r.get("training.fit.skipped", 0))),
        "nas_search.self_s": total("nas_search.self"),
        "nas_search.fit_share": rep_median(lambda r: _ratio(
            r.get("search.fit", 0.0), r.get("nas_search.s", 0.0))),
        "nas_search.score_share": rep_median(lambda r: _ratio(
            r.get("search.score", 0.0), r.get("nas_search.s", 0.0))),
        "cli.self_s": total("cli.self"),
        "benchmark.gen.accept_ratio": _ratio(
            total("benchmark.generate.kept"), total("gen.sampled")),
    })
    missing = set(LAYER_METRICS) - set(out)
    if missing:  # pragma: no cover - guards the table above
        raise KeyError(f"no rule for per-layer metrics {sorted(missing)}")
    return out
