"""Engine-lifecycle benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 50 --trace 0

Each run builds the workload's engine from ``src/`` and drives it through
build -> save -> load -> single ``suggest`` loop -> ``suggest_many`` ->
``apply_delta`` -> ``suggest_many``, checking every answer (see
``lifecycle.py``).  ``--seconds`` is a floor on the measured time: builds
(each followed by save, loads, serving rounds and ``apply_delta``) repeat at
least twice and until it has passed.  Timings are scaled to reference
seconds by a machine-speed probe (``speed.py``) and reported as medians
over their samples (see README.md).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it runs the lifecycle once untraced and once traced and reports
the per-layer metrics (``tracing.py``), writing the spans to
``.perfbench_out/``.  The line before it is a ``stamp`` with the machine,
library versions, seed and sizes.  Exit code 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 2


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="reduced sizes, for the self-tests"
    )
    return parser.parse_args(argv)


def end_to_end_metrics(workload, result) -> tuple[dict[str, tuple[float, str]], dict]:
    import speed
    from lifecycle import tail

    timer = result.timer
    median = statistics.median
    latencies = result.latencies
    tail_value, tail_percentile, tail_beyond = tail(latencies)
    checks = result.checks
    metrics = {
        "setup_s": (median(timer.reference("build")), "s"),
        "maintain_s": (median(timer.reference("maintain")), "s"),
        "load_ms": (1e3 * median(timer.reference("load")), "ms"),
        "query_p50_ms": (1e3 * median(latencies), "ms"),
        "query_tail_ms": (1e3 * tail_value, "ms"),
        "batch_qps": (workload.n_batch / median(timer.reference("query_batch")), "queries/s"),
        "ok_frac": (1.0 - checks.failed / checks.attempted, "share"),
        "answer_distance_mean": (
            sum(checks.distances) / len(checks.distances) if checks.distances else 0.0,
            "rad",
        ),
        "index_bytes": (statistics.median(result.index_bytes), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    slowdowns = [seconds / speed.REFERENCE_S for _, _, seconds in timer.probes]
    details = {
        "tail": f"p{tail_percentile:g} of per-query median latencies "
        f"({tail_beyond} of {len(latencies)} samples beyond it)",
        "builds": result.reps,
        "slowdown": {
            "probes": len(slowdowns),
            "min": min(slowdowns),
            "median": median(slowdowns),
            "max": max(slowdowns),
        },
        "wall_medians_s": {name: median(walls) for name, walls in sorted(timer.walls.items())},
        "builds_s": [round(value, 4) for value in timer.reference("build")],
        "maintains_s": [round(value, 4) for value in timer.reference("maintain")],
    }
    return metrics, details


def layer_metrics_for(workload, inputs, workdir, seed: int):
    """One untraced and one traced lifecycle; per-layer metrics from the traced one."""
    from lifecycle import PhaseTimer, run_lifecycle
    from repro.obs.trace import TraceRecorder
    from tracing import ATTRIBUTION_TARGET, PHASES, PhaseSpans, layer_metrics, traced

    plain = run_lifecycle(workload, inputs, workdir, PhaseTimer(), 1, 0.0)
    recorder = TraceRecorder(max_spans=5_000_000)
    with traced(recorder):
        result = run_lifecycle(workload, inputs, workdir, PhaseTimer(recorder), 1, 0.0)
    spans = PhaseSpans(recorder.spans)
    OUT_DIR.mkdir(exist_ok=True)
    spans.write_jsonl(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl", recorder.n_dropped)
    values = layer_metrics(spans)
    values["fairness.oracle_calls.build"] = float(result.oracle_calls["build"])
    values["fairness.oracle_calls.query"] = float(result.oracle_calls["query"])
    values["fairness.oracle_calls.maintain"] = float(result.oracle_calls["maintain"])
    checks = result.checks
    values["fairness.unsatisfactory_input_share"] = (
        checks.n_unsatisfactory_inputs / checks.n_inputs if checks.n_inputs else 0.0
    )
    values["core.maintenance.incremental"] = result.maintenance["incremental"]
    values["core.maintenance.retained_fraction"] = result.maintenance["retained_fraction"]
    values["obs.trace_overhead_frac"] = (
        result.timer.total() - plain.timer.total()
    ) / plain.timer.total()
    metrics = {name: (value, _layer_unit(name)) for name, value in values.items()}
    details = {
        "phases_below_attribution_target": [
            phase for phase in PHASES
            if values[f"obs.attributed_frac.{phase}"] < ATTRIBUTION_TARGET
        ],
        "spans": len(recorder.spans),
        "spans_dropped": recorder.n_dropped,
    }
    # Both lifecycles are checked; a failure in either is reported.
    result.checks.attempted += plain.checks.attempted
    result.checks.failed += plain.checks.failed
    result.checks.notes.extend(plain.checks.notes)
    return result, metrics, details


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_share", "_fraction")) or ".attributed_frac." in name:
        return "share"
    if name == "core.maintenance.incremental":
        return "flag"
    return "count"


def stamp(args, workload, inputs, details) -> dict:
    import numpy
    import scipy

    delta = inputs.delta
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine_config": {type(workload.config).__name__: vars(workload.config)},
        "n_items": workload.n_items,
        "n_attributes": workload.n_attributes,
        "single_queries": workload.n_single,
        "batch_queries": workload.n_batch,
        "serve_rounds": workload.serve_rounds,
        "unsatisfactory_share": inputs.unsatisfactory_share,
        "delta": {
            "inserts": delta.n_inserted,
            "deletes": delta.n_deleted,
            "updates": delta.n_updated,
        },
        **details,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))

    from lifecycle import PhaseTimer, make_inputs, run_lifecycle
    from workloads import WORKLOADS, get_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = get_workload(args.workload, small=args.small)
    inputs = make_inputs(workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if args.trace:
            result, metrics, details = layer_metrics_for(workload, inputs, workdir, args.seed)
        else:
            result = run_lifecycle(
                workload, inputs, workdir, PhaseTimer(), MIN_REPS, args.seconds
            )
            metrics, details = end_to_end_metrics(workload, result)
    checks = result.checks
    for note in checks.notes:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    print("stamp " + json.dumps(stamp(args, workload, inputs, details), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
