"""One engine lifecycle: build -> save -> load -> serve -> apply_delta -> serve.

:func:`run_lifecycle` drives a workload through every phase in one process
with one client (a closed loop of single ``suggest`` calls, then
``suggest_many`` over the batch), times each phase through a
:class:`PhaseTimer` and checks every answer:

* each answer is re-verified through ``result.function`` with a separate
  oracle instance (satisfactory inputs must come back unchanged);
* the loaded engine's single and batch answers, and the oracle calls each
  path makes, must be bit-identical to those of the engine that built the
  index;
* every repeat of a query (later serving rounds, later builds) must return
  the first answer bit for bit;
* the same re-verification applies after the delta, on the mutated dataset.

A query that raises, returns a ``QueryFailure`` or fails a check counts as
failed; nothing is retried or dropped.
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

import repro.io.index_store as index_store
from repro.core.engine import create_engine
from repro.core.maintenance import DatasetDelta
from repro.core.result import SuggestionResult
from repro.data.dataset import Dataset
from repro.fairness.oracle import FairnessOracle
from repro.obs.trace import TraceRecorder
from repro.ranking.scoring import LinearScoringFunction
import speed
from workloads import (
    Workload,
    make_counting_oracle,
    make_dataset,
    make_delta,
    make_oracle,
    make_queries,
    natural_unsatisfactory_share,
)

#: Timed loads of the saved index per serving round (loads take milliseconds).
LOAD_REPEATS = 5
#: Builds per run never exceed this, whatever ``--seconds`` asks for.
MAX_REPS = 9
#: Phases long enough to start from a full garbage collection (one takes
#: tens of milliseconds on the 2-D index's heap, so short phases skip it).
COLLECTED_PHASES = frozenset({"build", "maintain"})
#: Phases share a speed probe taken at most this long before them; a probe
#: takes about 20 ms, so probing around every millisecond load would
#: dominate the run.
PROBE_INTERVAL_S = 0.1


class PhaseTimer:
    """Wall time per lifecycle phase; a root span per phase when tracing.

    Every phase runs with the objects alive at its start frozen
    (``gc.freeze``), after a full collection for the collected phases.  The
    phase's own allocations still trigger the collections they would in any
    process, but the benchmark's state (answers kept for checking) is not
    rescanned, so its growth over the run does not slow later phases.

    A machine-speed probe (:mod:`speed`) runs before a phase whenever the
    last one is more than ``PROBE_INTERVAL_S`` old, and once more when the
    run ends, outside every phase; :meth:`reference` turns a phase's wall
    time into reference seconds with the probes on either side of it.
    """

    def __init__(self, recorder: TraceRecorder | None = None) -> None:
        self.recorder = recorder
        self.walls: dict[str, list[float]] = defaultdict(list)
        #: (start, end) of every phase sample, parallel to ``walls``.
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: (start, end, seconds) of every probe, in time order.
        self.probes: list[tuple[float, float, float]] = []

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = speed.probe()
        self.probes.append((start, time.perf_counter(), seconds))

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if not self.probes or time.perf_counter() - self.probes[-1][1] > PROBE_INTERVAL_S:
            self.probe()
        if name in COLLECTED_PHASES:
            gc.collect()
        gc.freeze()
        span = self.recorder.span(f"phase.{name}") if self.recorder else nullcontext()
        try:
            with span:
                start = time.perf_counter()
                try:
                    yield
                finally:
                    end = time.perf_counter()
                    self.walls[name].append(end - start)
                    self.spans[name].append((start, end))
        finally:
            gc.unfreeze()

    def total(self) -> float:
        """All phase time, in reference seconds."""
        return sum(sum(self.reference(name)) for name in self.walls)

    def slowdown(self, start: float, end: float) -> float:
        """Machine slowdown over [start, end]: mean of the probes either side, over ``REFERENCE_S``."""
        ends = [probe_end for _, probe_end, _ in self.probes]
        starts = [probe_start for probe_start, _, _ in self.probes]
        near = [self.probes[index][2] for index in (
            bisect.bisect_right(ends, start) - 1, bisect.bisect_left(starts, end),
        ) if 0 <= index < len(self.probes)]
        return sum(near) / len(near) / speed.REFERENCE_S

    def reference(self, name: str) -> list[float]:
        """Each sample of phase ``name`` in reference seconds."""
        return [
            wall / self.slowdown(start, end)
            for wall, (start, end) in zip(self.walls[name], self.spans[name])
        ]


@dataclass
class Inputs:
    dataset: Dataset
    mutated: Dataset
    delta: DatasetDelta
    single: np.ndarray
    batch: np.ndarray
    verifier: FairnessOracle
    #: Share of unsatisfactory inputs in both query sets.
    unsatisfactory_share: float


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's fixed dataset and delta, and query sets drawn from ``seed``."""
    dataset = make_dataset(workload)
    delta = make_delta(dataset)
    verifier = make_oracle()
    share = natural_unsatisfactory_share(workload, dataset, verifier)
    rng = np.random.default_rng(seed)
    return Inputs(
        dataset=dataset,
        mutated=delta.apply(dataset),
        delta=delta,
        single=make_queries(workload, dataset, verifier, workload.n_single, share, rng),
        batch=make_queries(workload, dataset, verifier, workload.n_batch, share, rng),
        verifier=verifier,
        unsatisfactory_share=share,
    )


@dataclass
class Checks:
    """Per-query verdicts of every answer the run produced."""

    attempted: int = 0
    failed: int = 0
    distances: list[float] = field(default_factory=list)
    n_unsatisfactory_inputs: int = 0
    n_inputs: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class LifecycleResult:
    timer: PhaseTimer
    #: Per single query, its median latency over the serving rounds, in
    #: reference seconds.
    latencies: list[float]
    index_bytes: list[int]
    checks: Checks
    oracle_calls: dict[str, int]
    maintenance: dict[str, float]
    reps: int


def fingerprint(result: Any) -> tuple:
    """Bit-exact identity of one answer (float.hex of every number)."""
    if not isinstance(result, SuggestionResult):
        return ("no-answer", repr(result))
    return (
        bool(result.satisfactory),
        tuple(float(w).hex() for w in result.query.weights),
        tuple(float(w).hex() for w in result.function.weights),
        float(result.angular_distance).hex(),
    )


def angle_between(a: Sequence[float], b: Sequence[float]) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cosine = float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
    return math.acos(min(1.0, max(-1.0, cosine)))


def verify_answers(
    checks: Checks,
    label: str,
    results: Sequence[Any],
    queries: np.ndarray,
    dataset: Dataset,
    verifier: FairnessOracle,
    mismatched: Sequence[bool] | None = None,
    count_inputs: bool = False,
) -> None:
    """Count one attempted operation per query and fail every answer a check rejects."""
    for position, row in enumerate(queries.tolist()):
        checks.attempted += 1
        result = results[position]
        if not isinstance(result, SuggestionResult):
            checks.fail(f"{label}[{position}]: no answer ({result!r:.120})")
            continue
        if count_inputs:
            checks.n_inputs += 1
            checks.n_unsatisfactory_inputs += int(not result.satisfactory)
        if mismatched is not None and mismatched[position]:
            checks.fail(
                f"{label}[{position}]: answer differs between engines or between repeats"
            )
            continue
        if tuple(result.query.weights) != tuple(row):
            checks.fail(f"{label}[{position}]: answer is for another query")
            continue
        if result.satisfactory and (result.function != result.query or result.angular_distance != 0.0):
            checks.fail(f"{label}[{position}]: satisfactory input not returned unchanged")
            continue
        if not verifier.evaluate_function(result.function, dataset):
            checks.fail(f"{label}[{position}]: suggestion fails the oracle")
            continue
        if not result.satisfactory:
            checks.distances.append(angle_between(row, result.function.weights))


def _suggest(engine, function: LinearScoringFunction) -> Any:
    try:
        return engine.suggest(function)
    except Exception as exc:  # counted as a failed query, never hidden
        return exc


def _suggest_many(engine, batch: np.ndarray) -> list[Any]:
    try:
        return list(engine.suggest_many(batch))
    except Exception as exc:  # a raising batch fails every query in it
        return [exc] * batch.shape[0]


def run_lifecycle(
    workload: Workload,
    inputs: Inputs,
    workdir: Path,
    timer: PhaseTimer,
    min_reps: int,
    seconds: float,
) -> LifecycleResult:
    """Build ``min_reps`` times or more until ``seconds`` have passed.

    Every build is saved, maintained and serves ``workload.serve_rounds``
    rounds of (loads, single queries, batch call), half before maintenance
    and half after, so the query samples spread over the whole run.  Answers are
    checked once at the end: each query's first answer in full, every repeat
    against the first.
    """
    serving = Serving(workload, inputs)
    index_bytes: list[int] = []
    oracle_calls = {"build": 0, "query": 0, "maintain": 0}
    maintenance: dict[str, float] = {}
    built_single: list[Any] = []
    built_single_calls = 0
    built_batch: list[Any] = []
    built_batch_calls = 0
    after: list[Any] = []
    after_calls = 0
    started = time.perf_counter()
    rep = 0
    while rep < min_reps or (time.perf_counter() - started < seconds and rep < MAX_REPS):
        first = rep == 0
        build_oracle = make_counting_oracle()
        with timer.phase("build"):
            engine = create_engine(inputs.dataset, build_oracle, workload.config).preprocess()
        if first:
            oracle_calls["build"] = build_oracle.calls
        path = workdir / f"index-{rep}.json"
        with timer.phase("save"):
            index_store.save_engine(engine, path)
        index_bytes.append(path.stat().st_size)
        # Half the rounds before maintenance and half after, so the query
        # samples spread over the run instead of one burst per build.
        rounds = workload.serve_rounds
        before = (rounds + 1) // 2
        for _ in range(before):
            serving.load_and_serve(path, timer)
        if first:
            # The building engine answers the same singles and batch; its
            # answers and oracle budgets must match the loaded engine's bit
            # for bit.
            calls = build_oracle.calls
            built_single = [_suggest(engine, function) for function in serving.functions]
            built_single_calls = build_oracle.calls - calls
            calls = build_oracle.calls
            built_batch = _suggest_many(engine, inputs.batch)
            built_batch_calls = build_oracle.calls - calls
        calls = build_oracle.calls
        with timer.phase("maintain"):
            report = engine.apply_delta(inputs.delta)
        if first:
            oracle_calls["maintain"] = build_oracle.calls - calls
            retained = report.details.get("n_retained_exchanges", 0)
            fresh = report.details.get("n_fresh_exchanges", 0)
            maintenance = {
                "incremental": float(report.strategy == "incremental"),
                "retained_fraction": retained / (retained + fresh) if retained + fresh else 0.0,
            }
            calls = build_oracle.calls
            with timer.phase("query_after"):
                after = _suggest_many(engine, inputs.batch)
            after_calls = build_oracle.calls - calls
        for _ in range(rounds - before):
            serving.load_and_serve(path, timer)
        path.unlink()
        engine = None  # the next build starts without this one alive
        rep += 1
    timer.probe()  # the probe after the last phase

    checks = Checks()
    oracle_calls["query"] = serving.oracle_calls + after_calls
    single_mismatch = _mismatches(
        serving.single_mismatch, serving.single_reference, built_single,
        serving.single_calls != built_single_calls,
    )
    batch_mismatch = _mismatches(
        serving.batch_mismatch, serving.batch_reference, built_batch,
        serving.batch_calls != built_batch_calls,
    )
    verify_answers(
        checks, "single", serving.single_reference, inputs.single, inputs.dataset,
        inputs.verifier, mismatched=single_mismatch, count_inputs=True,
    )
    verify_answers(
        checks, "batch", serving.batch_reference, inputs.batch, inputs.dataset, inputs.verifier,
        mismatched=batch_mismatch, count_inputs=True,
    )
    verify_answers(checks, "after_delta", after, inputs.batch, inputs.mutated, inputs.verifier)
    return LifecycleResult(
        timer, serving.latencies(timer), index_bytes, checks, oracle_calls, maintenance, rep
    )


def _mismatches(
    repeats: Sequence[bool], loaded: Sequence[Any], built: Sequence[Any], calls_differ: bool
) -> list[bool]:
    """Per query: a repeat differed, or the loaded and building engines disagree."""
    return [
        repeated or calls_differ or fingerprint(ours) != fingerprint(theirs)
        for repeated, ours, theirs in zip(repeats, loaded, built)
    ]


class Serving:
    """Serving rounds on loaded engines: timings, first answers, repeat mismatches.

    A round is a closed loop of single ``suggest`` calls, then one
    ``suggest_many`` over the batch.  Each single query's latencies are kept
    per round and scaled by the round's machine slowdown; its median over
    the rounds then drops the samples that a garbage collection or an
    interrupt landed on.
    """

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.inputs = inputs
        self.functions = [LinearScoringFunction(tuple(row)) for row in inputs.single.tolist()]
        #: Wall latencies of the single queries, one array per round.
        self.rounds: list[np.ndarray] = []
        self.single_reference: list[Any] = []
        self.batch_reference: list[Any] = []
        self.prints: list[tuple] = []
        self.mismatch = [False] * (workload.n_single + workload.n_batch)
        self.oracle_calls = 0
        self.single_calls = 0
        self.batch_calls = 0

    def load_and_serve(self, path: Path, timer: PhaseTimer) -> None:
        """Timed loads of the saved index, then one round on the last engine loaded."""
        for _ in range(LOAD_REPEATS):
            load_oracle = make_counting_oracle()
            with timer.phase("load"):
                loaded = index_store.load_engine(path, load_oracle)
        results: list[Any] = []
        latencies = np.empty(len(self.functions))
        calls = load_oracle.calls
        with timer.phase("query_single"):
            for position, function in enumerate(self.functions):
                start = time.perf_counter()
                try:
                    result = loaded.suggest(function)
                except Exception as exc:  # counted as a failed query, never hidden
                    result = exc
                latencies[position] = time.perf_counter() - start
                results.append(result)
        self.rounds.append(latencies)
        single_calls = load_oracle.calls - calls
        calls = load_oracle.calls
        with timer.phase("query_batch"):
            batch = _suggest_many(loaded, self.inputs.batch)
        batch_calls = load_oracle.calls - calls
        if not self.prints:
            self.single_reference, self.batch_reference = results, batch
            self.prints = [fingerprint(answer) for answer in results + batch]
            self.single_calls = single_calls
            self.batch_calls = batch_calls
            self.oracle_calls = single_calls + batch_calls
            return
        for position, answer in enumerate(results + batch):
            if fingerprint(answer) != self.prints[position]:
                self.mismatch[position] = True

    def latencies(self, timer: PhaseTimer) -> list[float]:
        """Per single query, its median latency over the rounds, in reference seconds."""
        slowdowns = [timer.slowdown(start, end) for start, end in timer.spans["query_single"]]
        scaled = np.stack(self.rounds) / np.asarray(slowdowns)[:, None]
        return np.median(scaled, axis=0).tolist()

    @property
    def single_mismatch(self) -> list[bool]:
        return self.mismatch[: len(self.functions)]

    @property
    def batch_mismatch(self) -> list[bool]:
        return self.mismatch[len(self.functions):]


def tail(latencies: Sequence[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with >= 10 samples beyond it.

    Below 11 samples no such percentile exists and the maximum is reported.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    beyond = 10 if count > 10 else 0
    return ordered[count - 1 - beyond], 100.0 * (count - beyond) / count, beyond
