"""Per-layer attribution from outside the program.

The traced run activates a :class:`repro.obs.trace.TraceRecorder`, so the
program's own stage spans (``preprocess.*``, ``maintenance.apply_delta``) are
recorded, and replaces a fixed list of public calls with span-recording
wrappers at the names their callers bind.  The wrappers forward their
arguments unchanged and are removed when the traced run ends; the untraced
run never sees them.  Every lifecycle phase is a root span ``phase.<name>``;
:func:`layer_metrics` folds the spans under each phase into per-layer
metrics.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.core.engine as engine_module
import repro.core.multi_dim as multi_dim_module
import repro.fairness.batched as batched_module
import repro.geometry.hyperplane as hyperplane_module
import repro.io.index_store as index_store_module
from repro.core.approx import ApproximatePreprocessor
from repro.core.multi_dim import SatRegions
from repro.geometry.arrangement_tree import ArrangementTree
from repro.obs.trace import TRACE_FORMAT, Span, TraceRecorder, activated

PHASES = ("build", "save", "load", "query_single", "query_batch", "maintain", "query_after")
QUERY_PHASES = ("query_single", "query_batch", "query_after")
ATTRIBUTION_TARGET = 0.9

#: Spans that wrap a whole engine seam rather than one stage; attribution
#: looks through them to the stages inside.
_TRANSPARENT = frozenset({"maintenance.apply_delta"})


def _set_feasible(handle, result) -> None:
    handle.set("feasible", bool(result.feasible))


def _set_success(handle, result) -> None:
    handle.set("success", bool(result.success))


def _set_count(handle, result) -> None:
    handle.set("n", len(result))


#: (owner, attribute, span name, attribute recorder).  Module owners patch the
#: name a caller module binds; class owners patch the method for every caller.
#: ``SatRegions._evaluate_regions`` is the one non-public hook: no public call
#: wraps exactly the exact engine's per-region oracle evaluation.
WRAPPED: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (hyperplane_module, "feasible_point", "geometry.lp.feasible_point", _set_feasible),
    (hyperplane_module, "chebyshev_center", "geometry.lp.chebyshev_center", _set_feasible),
    (SatRegions, "build_hyperplanes", "geometry.build_hyperplanes", _set_count),
    (ApproximatePreprocessor, "build_hyperplanes", "geometry.build_hyperplanes", _set_count),
    (ArrangementTree, "insert", "geometry.arrangement_tree.insert", None),
    (ArrangementTree, "leaf_regions", "geometry.arrangement_tree.leaf_regions", _set_count),
    (engine_module, "locate_cells", "geometry.partition.locate_cells", None),
    (engine_module, "exchange_pairs_touching", "data.exchange_pairs_touching", None),
    (engine_module, "exchange_angles_for_pairs", "geometry.exchange_angles_for_pairs", None),
    (engine_module, "evaluate_functions_many", "fairness.evaluate_functions_many", None),
    (multi_dim_module, "evaluate_functions_many", "fairness.evaluate_functions_many", None),
    (batched_module, "order_many", "ranking.order_many", None),
    (multi_dim_module, "minimize", "core.multi_dim.minimize", _set_success),
    (SatRegions, "_evaluate_regions", "core.multi_dim.region_eval", None),
    (index_store_module, "save_engine", "io.save_engine", None),
    (index_store_module, "load_engine", "io.load_engine", None),
)


def _wrap(recorder: TraceRecorder, name: str, function: Callable, describe) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as handle:
            result = function(*args, **kwargs)
            if describe is not None:
                describe(handle, result)
            return result

    return wrapper


@contextmanager
def traced(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Install the wrappers and activate ``recorder`` for the body."""
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _, _ in WRAPPED]
    try:
        for (owner, attribute, name, describe), (_, _, original) in zip(WRAPPED, originals):
            setattr(owner, attribute, _wrap(recorder, name, original, describe))
        with activated(recorder):
            yield recorder
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


class PhaseSpans:
    """The recorded spans grouped under their ``phase.<name>`` root."""

    def __init__(self, spans: tuple[Span, ...]) -> None:
        self.spans = spans
        by_id = {span.span_id: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        self.root_of: dict[int, int] = {}
        for span in spans:
            root = span
            while root.parent_id is not None and root.parent_id in by_id:
                root = by_id[root.parent_id]
            self.root_of[span.span_id] = root.span_id
        self.roots: dict[str, list[Span]] = {phase: [] for phase in PHASES}
        for span in spans:
            if span.parent_id is None and span.name.startswith("phase."):
                self.roots[span.name[len("phase."):]].append(span)
        self.by_root: dict[int, list[Span]] = {}
        for span in spans:
            self.by_root.setdefault(self.root_of[span.span_id], []).append(span)

    def named(self, phase: str, name: str) -> list[Span]:
        return [
            span
            for root in self.roots[phase]
            for span in self.by_root.get(root.span_id, ())
            if span.name == name
        ]

    def per_run(self, phases: tuple[str, ...], name: str, value: Callable[[Span], float]) -> float:
        """Sum of ``value`` over ``name`` spans, per occurrence of each phase, summed over phases."""
        total = 0.0
        for phase in phases:
            occurrences = len(self.roots[phase])
            if occurrences:
                total += sum(value(span) for span in self.named(phase, name)) / occurrences
        return total

    def seconds(self, phases: tuple[str, ...], name: str) -> float:
        return self.per_run(phases, name, lambda span: span.duration)

    def calls(self, phases: tuple[str, ...], name: str) -> float:
        return self.per_run(phases, name, lambda span: 1.0)

    def attribute(self, phases: tuple[str, ...], name: str, key: str) -> float:
        return self.per_run(phases, name, lambda span: float(dict(span.attributes).get(key, 0)))

    def _covered(self, span: Span) -> float:
        return sum(
            self._covered(child) if child.name in _TRANSPARENT else child.duration
            for child in self.children.get(span.span_id, ())
        )

    def attributed_frac(self, phase: str) -> float:
        """Share of the phase's wall time covered by the layer spans under it."""
        roots = self.roots[phase]
        wall = sum(root.duration for root in roots)
        return sum(self._covered(root) for root in roots) / wall if wall > 0 else 0.0

    def write_jsonl(self, path: Path, n_dropped: int) -> None:
        """Export in the ``repro.obs.trace/v1`` layout, each span stamped with its root id."""
        header = {"format": TRACE_FORMAT, "n_spans": len(self.spans), "n_dropped": n_dropped}
        lines = [json.dumps(header, sort_keys=True)]
        for span in self.spans:
            record = span.to_dict()
            record["root_id"] = self.root_of[span.span_id]
            lines.append(json.dumps(record, sort_keys=True, default=str))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def layer_metrics(spans: PhaseSpans) -> dict[str, float]:
    """Per-layer metrics from one traced lifecycle (time in seconds, per phase run)."""
    build = ("build",)
    feasibility_calls = spans.calls(build, "geometry.lp.feasible_point")
    metrics = {
        "data.exchange_build_s": spans.seconds(build, "preprocess.exchange_build"),
        "data.n_exchanges": spans.attribute(build, "preprocess.exchange_build", "n_exchanges"),
        "geometry.lp.feasibility_calls": feasibility_calls,
        "geometry.lp.feasibility_s": spans.seconds(build, "geometry.lp.feasible_point"),
        "geometry.lp.feasible_ratio": (
            spans.attribute(build, "geometry.lp.feasible_point", "feasible") / feasibility_calls
            if feasibility_calls
            else 0.0
        ),
        "geometry.lp.chebyshev_calls": spans.calls(build, "geometry.lp.chebyshev_center"),
        "geometry.lp.chebyshev_s": spans.seconds(build, "geometry.lp.chebyshev_center"),
        "geometry.lp.query_calls": spans.calls(QUERY_PHASES, "geometry.lp.feasible_point")
        + spans.calls(QUERY_PHASES, "geometry.lp.chebyshev_center"),
        "geometry.hyperplanes_s": spans.seconds(build, "geometry.build_hyperplanes"),
        "geometry.n_hyperplanes": spans.attribute(build, "geometry.build_hyperplanes", "n"),
        "geometry.arrangement_tree.inserts": spans.calls(build, "geometry.arrangement_tree.insert"),
        "geometry.arrangement_tree.insert_s": spans.seconds(build, "geometry.arrangement_tree.insert"),
        "geometry.arrangement_tree.leaf_regions": spans.attribute(
            build, "geometry.arrangement_tree.leaf_regions", "n"
        ),
        "geometry.cell_plane_assign_s": spans.seconds(build, "preprocess.cell_plane_assignment"),
        "geometry.partition.locate_s": spans.seconds(
            ("query_batch",), "geometry.partition.locate_cells"
        ),
        "fairness.oracle_batch_s": spans.seconds(
            ("query_batch",), "fairness.evaluate_functions_many"
        ),
        "ranking.order_many_s": spans.seconds(("query_batch",), "ranking.order_many"),
        "core.two_dim.sweep_s": spans.seconds(build, "preprocess.sweep"),
        "core.two_dim.sectors": spans.attribute(build, "preprocess.sweep", "n_sectors"),
        "core.approx.mark_cells_s": spans.seconds(build, "preprocess.mark_cells"),
        "core.approx.coloring_s": spans.seconds(build, "preprocess.cell_coloring"),
        "core.multi_dim.region_eval_s": spans.seconds(build, "core.multi_dim.region_eval"),
        "core.multi_dim.region_solves": spans.calls(QUERY_PHASES, "core.multi_dim.minimize"),
        "core.multi_dim.region_solve_s": spans.seconds(QUERY_PHASES, "core.multi_dim.minimize"),
        "core.multi_dim.solver_fallbacks": spans.per_run(
            QUERY_PHASES,
            "core.multi_dim.minimize",
            lambda span: 0.0 if dict(span.attributes).get("success") else 1.0,
        ),
        "io.save_s": spans.seconds(("save",), "io.save_engine"),
        "io.load_s": spans.seconds(("load",), "io.load_engine"),
    }
    for phase in PHASES:
        metrics[f"obs.attributed_frac.{phase}"] = spans.attributed_frac(phase)
    return metrics
