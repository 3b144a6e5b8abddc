"""Self-tests of the lifecycle benchmark at reduced sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import lifecycle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from repro.core.engine import TwoDEngine  # noqa: E402
from repro.core.result import SuggestionResult  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=300, check=True, cwd=ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[len("stamp "):])
    assert stamp["workload"] == workload and stamp["seed"] == 3
    for key in ("cpu_count", "python", "numpy", "scipy", "single_queries", "batch_queries", "delta"):
        assert key in stamp


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for file in HERE.glob("*.py"):
        (tmp_path / "perfbench" / file.name).write_text(file.read_text(encoding="utf-8"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_corrupted_answer_is_counted_as_failed(tmp_path, monkeypatch):
    from workloads import get_workload

    workload = get_workload("sweep2d", small=True)
    inputs = lifecycle.make_inputs(workload, 0)
    genuine = TwoDEngine.suggest
    corrupted = []

    def corrupting_suggest(self, function):
        result = genuine(self, function)
        if not corrupted and not result.satisfactory:
            corrupted.append(function)
            # Hand back the unsatisfactory query itself as the "suggestion".
            return SuggestionResult(function, False, function, result.angular_distance)
        return result

    monkeypatch.setattr(TwoDEngine, "suggest", corrupting_suggest)
    result = lifecycle.run_lifecycle(
        workload, inputs, tmp_path, lifecycle.PhaseTimer(), min_reps=1, seconds=0.0
    )
    assert len(corrupted) == 1
    assert result.checks.failed == 1
    metrics, _ = run.end_to_end_metrics(workload, result)
    assert metrics["ok_frac"][0] == pytest.approx(1.0 - 1.0 / result.checks.attempted)


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = lifecycle.tail([float(i) for i in range(2000)])
    assert (value, percentile, beyond) == (1989.0, 99.5, 10)
    assert lifecycle.tail([1.0, 5.0, 3.0]) == (5.0, 100.0, 0)


def test_phase_times_are_scaled_by_the_probes_either_side():
    reference = lifecycle.speed.REFERENCE_S
    timer = lifecycle.PhaseTimer()
    timer.probes = [(0.0, 1.0, 2 * reference), (5.0, 6.0, 4 * reference), (9.0, 10.0, reference)]
    assert timer.slowdown(1.5, 4.5) == pytest.approx(3.0)
    assert timer.slowdown(6.5, 8.0) == pytest.approx(2.5)
    assert timer.slowdown(10.5, 11.0) == pytest.approx(1.0)
    timer.walls["build"], timer.spans["build"] = [3.0], [(1.5, 4.5)]
    assert timer.reference("build") == [pytest.approx(1.0)]


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
    assert compare.verdict(base, [value * 0.5 for value in base], 0.1, True) == "improved"
    assert compare.verdict(base, [value * 1.5 for value in base], 0.1, True) == "worse"
    assert compare.verdict(base, [value * 1.5 for value in base], 0.1, False) == "improved"
    assert compare.verdict(base, list(base), 0.1, True) == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, 0.1, True) == "unresolved"


def test_compare_counts_wrong_answers_as_worse():
    base = {"correct": [1.0, 1.0], "failed": [0.0, 0.0]}
    assert compare.correctness(base, {"correct": [1.0, 1.0], "failed": [0.0, 0.0]}) == "no worse"
    assert compare.correctness(base, {"correct": [1.0, 0.0], "failed": [0.0, 1.0]}) == "worse"
    failing = {"correct": [0.0], "failed": [2.0]}
    assert compare.correctness(failing, {"correct": [0.0], "failed": [3.0]}) == "worse"
