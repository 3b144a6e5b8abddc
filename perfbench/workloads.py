"""Workload definitions and seeded input generation for the lifecycle benchmark.

A workload fixes the engine configuration, the dataset (its generator seed is
part of the definition: build cost varies strongly with the data), the
maintenance delta and the query-set sizes.  The ``--seed`` of a run draws the
query weights only, so different seeds exercise different queries against the
same index.  Every query set holds the share of unsatisfactory inputs that
uniform weights produce on the workload's dataset, measured once on a fixed
sample (:func:`natural_unsatisfactory_share`), so the query mix does not move
with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
from scipy.stats import qmc

from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig
from repro.core.maintenance import DatasetDelta
from repro.data.dataset import Dataset
from repro.data.synthetic import make_compas_like
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import CountingOracle, FairnessOracle
from repro.fairness.proportional import ProportionalOracle
from repro.ranking.scoring import LinearScoringFunction

ATTRIBUTES = ("c_days_from_compas", "juv_other_count", "start")
DATASET_SEED = 5
DELTA_SEED = 7
MAX_DRAW_ROUNDS = 20
#: Fixed Sobol sample (a power of two) on which the natural share of
#: unsatisfactory inputs is measured.
SHARE_SAMPLE = 4096
SHARE_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    config: Any
    n_items: int
    n_attributes: int
    n_single: int
    n_batch: int
    #: Serving rounds per build: five timed loads, a pass over the single
    #: queries and one batch call.
    serve_rounds: int


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep2d",
            config=TwoDConfig(),
            n_items=1000,
            n_attributes=2,
            n_single=2000,
            n_batch=2000,
            serve_rounds=10,
        ),
        Workload(
            name="grid_md",
            # Cap 40 (build about 3 s) rather than 60 (about 6 s): shorter
            # builds repeat more often within the run, which steadies the
            # build and rebuild timings, and keep the run near its budget.
            config=ApproxConfig(n_cells=32, max_hyperplanes=40),
            n_items=600,
            n_attributes=3,
            n_single=2000,
            n_batch=2000,
            # Three rounds per build give each single query 12 or more
            # samples, so its median drops the samples that a collection or
            # an interrupt landed on, which the p99.5 tail otherwise picks
            # up; more rounds would leave fewer builds (and apply_delta
            # samples) in a run.
            serve_rounds=3,
        ),
        Workload(
            name="exact_md",
            # Cap 20 (121 regions, 44 satisfactory) and 60 singles keep a
            # pass over the singles near 3.5 s, so every build repeats it
            # and the run stays within its share of the time budget.
            config=ExactConfig(max_hyperplanes=20),
            n_items=600,
            n_attributes=3,
            n_single=60,
            n_batch=24,
            serve_rounds=2,
        ),
    )
}

#: Reduced sizes for the self-tests: same engines, seconds per workload.
SMALL_SIZES: dict[str, dict[str, Any]] = {
    "sweep2d": {"n_items": 200, "n_single": 60, "n_batch": 40, "serve_rounds": 2},
    "grid_md": {
        "config": ApproxConfig(n_cells=16, max_hyperplanes=30),
        "n_items": 200,
        "n_single": 40,
        "n_batch": 40,
        "serve_rounds": 2,
    },
    "exact_md": {
        "config": ExactConfig(max_hyperplanes=12),
        "n_items": 200,
        "n_single": 12,
        "n_batch": 4,
    },
}


def get_workload(name: str, small: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **SMALL_SIZES[name]) if small else workload


def make_dataset(workload: Workload) -> Dataset:
    return make_compas_like(n=workload.n_items, seed=DATASET_SEED).project(
        list(ATTRIBUTES[: workload.n_attributes])
    )


def make_oracle() -> FairnessOracle:
    # Fixed parameters: the constraint must not move with the data or the delta.
    return ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60)


def make_counting_oracle() -> CountingOracle:
    return CountingOracle(make_oracle())


def make_delta(dataset: Dataset) -> DatasetDelta:
    """3 inserts, 2 deletes, 1 update, drawn from a fixed seed."""
    rng = np.random.default_rng(DELTA_SEED)
    inserts = tuple(
        tuple(float(value) for value in row)
        for row in rng.random((3, dataset.n_attributes)) + 0.01
    )
    insert_types = {
        attribute: tuple(rng.choice(np.asarray(column), size=3))
        for attribute, column in dataset.types.items()
    }
    update_row = tuple(float(value) for value in rng.random(dataset.n_attributes) + 0.01)
    return DatasetDelta(
        inserts=inserts,
        insert_types=insert_types,
        deletes=(1, 5),
        updates=((7, update_row),),
    )


def _verdicts(oracle: FairnessOracle, dataset: Dataset, rows: np.ndarray) -> list[bool]:
    functions = [LinearScoringFunction(tuple(row)) for row in rows.tolist()]
    return evaluate_functions_many(oracle, dataset, functions).tolist()


def natural_unsatisfactory_share(
    workload: Workload, dataset: Dataset, oracle: FairnessOracle
) -> float:
    """Share of unsatisfactory inputs among uniform weights, on a fixed Sobol sample."""
    sobol = qmc.Sobol(workload.n_attributes, scramble=True, seed=SHARE_SEED)
    verdicts = _verdicts(oracle, dataset, sobol.random(SHARE_SAMPLE) + 1e-3)
    return 1.0 - sum(verdicts) / len(verdicts)


def make_queries(
    workload: Workload, dataset: Dataset, oracle: FairnessOracle, count: int,
    unsatisfactory_share: float, rng: np.random.Generator,
) -> np.ndarray:
    """``count`` weight rows in (0, 1]^d + 1e-3, ``unsatisfactory_share`` of them unsatisfactory.

    Candidates come from a scrambled Sobol sequence seeded by ``rng``: each
    point is uniform, and the set covers the weight space evenly, so query
    sets drawn with different seeds cost and score alike.  Candidates are
    taken in sequence order until both strata are full; the rows are then
    shuffled so satisfactory and unsatisfactory inputs interleave.
    """
    n_unsatisfactory = round(unsatisfactory_share * count)
    wanted = {False: n_unsatisfactory, True: count - n_unsatisfactory}
    kept: dict[bool, list[np.ndarray]] = {False: [], True: []}
    sobol = qmc.Sobol(workload.n_attributes, scramble=True, seed=rng)
    drawn = 0
    for _ in range(MAX_DRAW_ROUNDS):
        if all(len(kept[key]) >= wanted[key] for key in kept):
            break
        # Doubling keeps the drawn total a power of two (Sobol balance).
        candidates = sobol.random(max(drawn, 64)) + 1e-3
        drawn += candidates.shape[0]
        for row, verdict in zip(candidates, _verdicts(oracle, dataset, candidates)):
            if len(kept[verdict]) < wanted[verdict]:
                kept[verdict].append(row)
    else:
        raise RuntimeError(
            f"could not draw {wanted} (unsatisfactory, satisfactory) queries on {workload.name}"
        )
    rows = np.array(kept[False] + kept[True]).reshape(count, workload.n_attributes)
    return rows[rng.permutation(count)]
