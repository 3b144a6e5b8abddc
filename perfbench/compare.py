"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

A *set* is a directory (or a list of files); each file holds the standard
output of one ``perfbench/run.py --trace 0`` run: its ``stamp`` line names the
workload and its last line is the result object.  Traced runs are skipped.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR          # spread of one set only

Each (workload, end-to-end metric) pair is reported as

* ``improved``: the change's median beats the base's by more than the base's
  quartile distance, and the change wins at least 9 of 10 (base, change) pairs;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound (a share of the base median);
* ``unresolved``: the run-to-run spread is wider than the bound and not every
  change run beats every base run;
* ``no worse``: otherwise.

A workload's ``correct`` row is ``worse`` when any change run reports
``correct: false`` or more failed queries than the worst base run: a change
that answers wrongly does not count as faster.

Spreads are quartile distances (``statistics.quantiles(values, n=4)``) as a
share of the median.  Exit code 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def read_runs(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from untraced run outputs.

    Besides the metrics, ``correct`` (1 or 0) and ``failed`` list each run's outcome.
    """
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    files = [
        file
        for path in paths
        for file in (sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path])
    ]
    for file in files:
        lines = file.read_text(encoding="utf-8").strip().splitlines()
        stamps = [json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp ")]
        if not lines or not stamps:
            raise SystemExit(f"{file}: not a perfbench run output (no stamp line)")
        if stamps[-1]["trace"]:
            continue
        result = json.loads(lines[-1])
        workload = runs[stamps[-1]["workload"]]
        workload["correct"].append(float(result["correct"]))
        workload["failed"].append(float(result["failed"]))
        for name, metric in result["metrics"].items():
            workload[name].append(float(metric["value"]))
    return runs


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")


def verdict(base: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    sign = -1.0 if lower_is_better else 1.0
    base_median = statistics.median(base)
    gain = sign * (statistics.median(change) - base_median)
    base_iqr = spread(base) * abs(base_median)
    pairs = [sign * (c - b) for b in base for c in change]
    wins = sum(1 for delta in pairs if delta > 0) / len(pairs)
    if gain > base_iqr and wins >= WIN_SHARE:
        return "improved"
    if -gain > bound * abs(base_median):
        return "worse"
    if max(spread(base), spread(change)) > bound and min(pairs) <= 0:
        return "unresolved"
    return "no worse"


def correctness(base: dict[str, list[float]], change: dict[str, list[float]]) -> str:
    """``worse`` if any change run is incorrect or fails more queries than every base run."""
    if not all(change["correct"]) or max(change["failed"]) > max(base["failed"]):
        return "worse"
    return "no worse"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="BASE [CHANGE]")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one set (spread) or two sets (base, change)")
    metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))["end_to_end"]
    base = read_runs([args.sets[0]])
    change = read_runs([args.sets[1]]) if len(args.sets) == 2 else None
    any_worse = False
    for workload in sorted(base):
        if change is None and not all(base[workload]["correct"]):
            print(f"{workload:10s} {'correct':22s} some runs report correct: false")
        if change is not None and workload in change:
            outcome = correctness(base[workload], change[workload])
            any_worse |= outcome == "worse"
            print(
                f"{workload:10s} {'correct':22s} base failed {max(base[workload]['failed']):g} "
                f"change failed {max(change[workload]['failed']):g}, "
                f"{sum(1 for ok in change[workload]['correct'] if not ok)} incorrect runs {outcome}"
            )
        for metric in metrics:
            name, bound = metric["name"], float(metric["bound"])
            values = base[workload].get(name)
            if not values:
                continue
            if change is None:
                width = spread(values)
                status = "ok" if width <= bound / 3 else ("within bound" if width <= bound else "TOO WIDE")
                print(
                    f"{workload:10s} {name:22s} n={len(values):2d} median {statistics.median(values):14.6g} "
                    f"{metric['unit']:10s} spread {width:7.4f} bound {bound:g} {status}"
                )
                continue
            other = change.get(workload, {}).get(name)
            if not other:
                print(f"{workload:10s} {name:22s} missing from the change set")
                continue
            outcome = verdict(values, other, bound, metric["better"] == "lower")
            any_worse |= outcome == "worse"
            base_median, change_median = statistics.median(values), statistics.median(other)
            relative = (change_median - base_median) / abs(base_median) if base_median else 0.0
            print(
                f"{workload:10s} {name:22s} base {base_median:14.6g} change {change_median:14.6g} "
                f"{metric['unit']:10s} {relative:+8.2%} spread {spread(values):.3f}/{spread(other):.3f} "
                f"bound {bound:g} {outcome}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
