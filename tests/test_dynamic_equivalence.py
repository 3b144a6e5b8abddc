"""Delta-vs-rebuild differential tests: the PR-10 bit-identity proof.

Every test here mutates a dataset through the maintenance seam
(:meth:`QueryEngine.apply_delta`) and asserts — via the :mod:`differential`
harness — that the maintained engine is indistinguishable from an engine
rebuilt from scratch on the mutated dataset: exact answer fingerprints,
matching oracle-call budgets, and byte-for-byte equal index payloads.
Covered:

* all three engine families (``2d``, ``exact``, ``approximate``) under a
  seeded random insert/delete/update sequence (the exact family insert-only,
  the one shape its arrangement-tree cache supports incrementally);
* both maintenance strategies — ``incremental`` (cheap geometry reuse) and
  ``rebuild`` (staleness threshold exceeded) — land on the same bits;
* the journaled persistence format: a save/load round trip of base snapshot
  plus delta journal replays to the same answers and payload bytes, and a
  re-save of the loaded engine is byte-identical to the original file;
* the wrapper engines (``pool``, ``instrumented``, ``fallback``) that
  override ``apply_delta``: each propagates a delta to the same bits as a
  fresh rebuild, and every wrapper (chaos included) forwards the whole
  engine seam and re-syncs its dataset and journal after a delta.

The oracles on both sides of every differential are constructed with *fixed*
parameters (never derived from a dataset, e.g. via
``at_most_share_plus_slack``) — a dataset-derived constraint would differ
between the base and mutated datasets and the two engines would answer
different questions.

``DELTA_EXERCISED_ENGINES`` below is the fixture list the contract linter's
``delta-equivalence`` rule parses (by AST, never importing this module):
any registered engine overriding ``apply_delta`` must be named here.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from differential import assert_engines_equivalent, make_weight_grid, payload_bytes
from repro.core.engine import ApproxConfig, ExactConfig, TwoDConfig, create_engine
from repro.core.maintenance import DatasetDelta, MaintenanceReport
from repro.data.synthetic import make_compas_like
from repro.exceptions import DatasetError
from repro.fairness.oracle import CountingOracle
from repro.fairness.proportional import ProportionalOracle
from repro.io.index_store import save_engine, load_engine
from repro.obs.instrument import InstrumentedEngine
from repro.parallel.pool import PoolEngine
from repro.resilience.chaos import ChaosEngine
from repro.resilience.fallback import FallbackEngine

pytestmark = pytest.mark.dynamic

#: Engine registry names whose ``apply_delta`` path this module proves
#: bit-identical to a rebuild.  Parsed by the ``delta-equivalence`` linter
#: rule: every registered engine that overrides ``apply_delta`` must appear.
DELTA_EXERCISED_ENGINES = (
    "2d",
    "exact",
    "approximate",
    "pool",
    "instrumented",
    "fallback",
)

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]


def fixed_oracle() -> CountingOracle:
    """A constraint with constructor-fixed parameters (see module docstring)."""
    return CountingOracle(
        ProportionalOracle("race", "African-American", 0.3, max_fraction=0.60)
    )


def dataset(n: int, dimension: int, seed: int):
    return make_compas_like(n=n, seed=seed).project(ATTRIBUTES[:dimension])


def random_delta(
    ds,
    seed: int,
    *,
    n_inserts: int = 3,
    deletes: tuple[int, ...] = (1, 5),
    update_index: int | None = 7,
) -> DatasetDelta:
    """A seeded random insert/delete/update sequence against ``ds``."""
    rng = np.random.default_rng(seed)
    inserts = tuple(
        tuple(float(x) for x in row)
        for row in rng.random((n_inserts, ds.n_attributes)) + 0.01
    )
    insert_types = {
        attr: tuple(rng.choice(np.asarray(column), size=n_inserts))
        for attr, column in ds.types.items()
    }
    updates: tuple[tuple[int, tuple[float, ...]], ...] = ()
    if update_index is not None:
        row = tuple(float(x) for x in rng.random(ds.n_attributes) + 0.01)
        updates = ((update_index, row),)
    return DatasetDelta(
        inserts=inserts,
        insert_types=insert_types,
        deletes=deletes,
        updates=updates,
    )


def insert_only_delta(ds, seed: int, n_inserts: int = 2) -> DatasetDelta:
    return random_delta(ds, seed, n_inserts=n_inserts, deletes=(), update_index=None)


def fresh_twin(mutated, config):
    """An engine preprocessed from scratch on the already-mutated dataset."""
    return create_engine(mutated, fixed_oracle(), config).preprocess()


# --------------------------------------------------------------------------- #
# engine families: incremental maintenance == rebuild, bit for bit
# --------------------------------------------------------------------------- #
class TestFamilies:
    def test_two_d_mixed_delta_incremental(self):
        ds = dataset(40, 2, seed=1)
        engine = create_engine(
            ds, fixed_oracle(), TwoDConfig(staleness_fraction=1.0)
        ).preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        assert (report.n_inserted, report.n_deleted, report.n_updated) == (3, 2, 1)
        fresh = fresh_twin(delta.apply(dataset(40, 2, seed=1)), TwoDConfig(staleness_fraction=1.0))
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 2, seed=3))

    def test_two_d_staleness_forces_rebuild_same_bits(self):
        ds = dataset(40, 2, seed=1)
        engine = create_engine(
            ds, fixed_oracle(), TwoDConfig(staleness_fraction=0.01)
        ).preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.strategy == "rebuild", report.as_dict()
        fresh = fresh_twin(delta.apply(dataset(40, 2, seed=1)), TwoDConfig(staleness_fraction=0.01))
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 2, seed=3))

    def test_two_d_chained_deltas(self):
        """Two deltas applied in sequence still land on rebuild bits."""
        ds = dataset(40, 2, seed=2)
        engine = create_engine(
            ds, fixed_oracle(), TwoDConfig(staleness_fraction=1.0)
        ).preprocess()
        first = random_delta(ds, seed=10)
        engine.apply_delta(first)
        mutated_once = first.apply(dataset(40, 2, seed=2))
        second = random_delta(mutated_once, seed=11, deletes=(0, 2), update_index=4)
        engine.apply_delta(second)
        fresh = fresh_twin(
            second.apply(mutated_once), TwoDConfig(staleness_fraction=1.0)
        )
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 2, seed=6))

    @pytest.mark.slow
    def test_exact_insert_only_incremental(self):
        ds = dataset(12, 3, seed=2)
        config = ExactConfig(staleness_fraction=1.0)
        engine = create_engine(ds, fixed_oracle(), config).preprocess()
        delta = insert_only_delta(ds, seed=1)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        fresh = fresh_twin(delta.apply(dataset(12, 3, seed=2)), ExactConfig(staleness_fraction=1.0))
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 3, seed=4))

    def test_exact_mixed_delta_falls_back_to_rebuild(self):
        """Deletes/updates invalidate the arrangement-tree cache -> rebuild."""
        ds = dataset(10, 3, seed=2)
        config = ExactConfig(max_hyperplanes=20, staleness_fraction=1.0)
        engine = create_engine(ds, fixed_oracle(), config).preprocess()
        delta = random_delta(ds, seed=3, n_inserts=1, deletes=(1,), update_index=None)
        report = engine.apply_delta(delta)
        assert report.strategy == "rebuild", report.as_dict()
        fresh = fresh_twin(
            delta.apply(dataset(10, 3, seed=2)),
            ExactConfig(max_hyperplanes=20, staleness_fraction=1.0),
        )
        assert_engines_equivalent(engine, fresh, make_weight_grid(16, 3, seed=5))

    @pytest.mark.slow
    def test_approx_mixed_delta_incremental(self):
        ds = dataset(16, 3, seed=3)
        config = ApproxConfig(n_cells=27, staleness_fraction=1.0)
        engine = create_engine(ds, fixed_oracle(), config).preprocess()
        delta = random_delta(ds, seed=2)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental", report.as_dict()
        fresh = fresh_twin(
            delta.apply(dataset(16, 3, seed=3)),
            ApproxConfig(n_cells=27, staleness_fraction=1.0),
        )
        assert_engines_equivalent(engine, fresh, make_weight_grid(24, 3, seed=5))


# --------------------------------------------------------------------------- #
# journaled persistence: save -> load -> replay == rebuild
# --------------------------------------------------------------------------- #
class TestJournaledPersistence:
    def test_round_trip_matches_rebuild_and_resave_is_stable(self, tmp_path):
        ds = dataset(40, 2, seed=1)
        engine = create_engine(
            ds, fixed_oracle(), TwoDConfig(staleness_fraction=1.0)
        ).preprocess()
        delta = random_delta(ds, seed=0)
        engine.apply_delta(delta)

        path = tmp_path / "journaled.json"
        save_engine(engine, path, journaled=True)
        loaded = load_engine(path, fixed_oracle())

        fresh = fresh_twin(delta.apply(dataset(40, 2, seed=1)), TwoDConfig(staleness_fraction=1.0))
        grid = make_weight_grid(24, 2, seed=3)
        assert_engines_equivalent(engine, loaded, grid)
        assert payload_bytes(loaded) == payload_bytes(fresh)

        resaved = tmp_path / "resaved.json"
        save_engine(loaded, resaved, journaled=True)
        assert resaved.read_bytes() == path.read_bytes()

    def test_journal_records_every_delta(self, tmp_path):
        ds = dataset(40, 2, seed=2)
        engine = create_engine(
            ds, fixed_oracle(), TwoDConfig(staleness_fraction=1.0)
        ).preprocess()
        first = random_delta(ds, seed=10)
        engine.apply_delta(first)
        second = random_delta(
            first.apply(dataset(40, 2, seed=2)), seed=11, deletes=(0,), update_index=2
        )
        engine.apply_delta(second)
        assert [d.to_dict() for d in engine.journal] == [
            first.to_dict(),
            second.to_dict(),
        ]
        path = tmp_path / "journaled.json"
        save_engine(engine, path, journaled=True)
        stored = json.loads(path.read_text())
        assert stored["payload"]["format"] == "repro.engine-journal/v1"
        assert len(stored["payload"]["deltas"]) == 2


# --------------------------------------------------------------------------- #
# wrapper engines overriding apply_delta (pool / instrumented / fallback)
# --------------------------------------------------------------------------- #
class TestWrapperEngines:
    def _base(self, seed=1):
        ds = dataset(40, 2, seed=seed)
        return ds, create_engine(ds, fixed_oracle(), TwoDConfig(staleness_fraction=1.0))

    def _fresh_after(self, delta, seed=1):
        return fresh_twin(
            delta.apply(dataset(40, 2, seed=seed)), TwoDConfig(staleness_fraction=1.0)
        )

    def test_instrumented_forwards_and_counts(self):
        ds, inner = self._base()
        engine = InstrumentedEngine.from_engine(inner)
        engine.preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.strategy == "incremental"
        fresh = self._fresh_after(delta)
        assert_engines_equivalent(
            engine.inner, fresh, make_weight_grid(24, 2, seed=3), check_oracle_calls=False
        )
        refresh_report = engine.refresh()
        assert refresh_report.strategy == "refresh"

    def test_fallback_maintains_every_tier(self):
        ds, inner = self._base()
        engine = FallbackEngine.from_engines([inner]).preprocess()
        delta = random_delta(ds, seed=0)
        report = engine.apply_delta(delta)
        assert report.engine == "fallback"
        assert report.strategy == "incremental"
        assert report.details["tiers"]
        fresh = self._fresh_after(delta)
        assert_engines_equivalent(
            engine.engines[0], fresh, make_weight_grid(24, 2, seed=3), check_oracle_calls=False
        )

    def test_pool_republishes_maintained_index(self):
        ds, inner = self._base()
        engine = PoolEngine.from_engine(inner, n_workers=1)
        engine.preprocess()
        digest_before = engine.index_digest
        delta = random_delta(ds, seed=0)
        try:
            report = engine.apply_delta(delta)
            assert report.strategy == "incremental"
            assert engine.index_digest != digest_before
            fresh = self._fresh_after(delta)
            grid = make_weight_grid(24, 2, seed=3)
            pooled = engine.suggest_many(grid)
            expected = fresh.suggest_many(grid)
            assert [r.function.weights for r in pooled] == [
                r.function.weights for r in expected
            ]
        finally:
            engine.close()


    SEAM = (
        "dataset",
        "oracle",
        "config",
        "name",
        "index",
        "is_preprocessed",
        "preprocessing_dataset",
        "journal",
        "base_payload",
        "preprocess",
        "suggest",
        "suggest_many",
        "apply_delta",
        "refresh",
        "capabilities",
        "to_payload",
        "from_payload",
    )
    WRAPPERS = {
        "chaos": ChaosEngine,
        "fallback": lambda inner: FallbackEngine.from_engines([inner]),
        "instrumented": InstrumentedEngine.from_engine,
        "pool": lambda inner: PoolEngine.from_engine(inner, n_workers=1),
    }

    @pytest.mark.parametrize("kind", sorted(WRAPPERS))
    def test_wrapper_forwards_the_whole_seam(self, kind):
        ds, inner = self._base()
        engine = self.WRAPPERS[kind](inner.preprocess()).preprocess()
        try:
            for attribute in self.SEAM:
                getattr(engine, attribute)
            engine.apply_delta(random_delta(ds, seed=0))
            assert engine.dataset is inner.dataset
            assert engine.journal == inner.journal and len(engine.journal) == 1
        finally:
            if kind == "pool":
                engine.close()


# --------------------------------------------------------------------------- #
# fast smoke target for scripts/check_all.py
# --------------------------------------------------------------------------- #
class TestDeltaSmoke:
    def test_delta_smoke(self):
        """Tiny 2-D delta differential: the check_all.py dynamic gate."""
        ds = dataset(25, 2, seed=4)
        engine = create_engine(
            ds, fixed_oracle(), TwoDConfig(staleness_fraction=1.0)
        ).preprocess()
        delta = random_delta(ds, seed=4, deletes=(2,), update_index=3)
        report = engine.apply_delta(delta)
        assert isinstance(report, MaintenanceReport)
        fresh = fresh_twin(delta.apply(dataset(25, 2, seed=4)), TwoDConfig(staleness_fraction=1.0))
        assert_engines_equivalent(engine, fresh, make_weight_grid(12, 2, seed=8))


# --------------------------------------------------------------------------- #
# DatasetDelta mechanics
# --------------------------------------------------------------------------- #
class TestDatasetDelta:
    def test_round_trip_through_dict(self):
        ds = dataset(20, 2, seed=1)
        delta = random_delta(ds, seed=0)
        clone = DatasetDelta.from_dict(delta.to_dict())
        assert clone == delta
        assert clone.to_dict() == delta.to_dict()

    def test_counts_and_staleness(self):
        ds = dataset(20, 2, seed=1)
        delta = random_delta(ds, seed=0)
        assert (delta.n_inserted, delta.n_deleted, delta.n_updated) == (3, 2, 1)
        assert delta.n_changes == 6
        assert delta.staleness_fraction(20) == pytest.approx(6 / 20)
        assert not delta.is_empty
        assert not delta.insert_only

    def test_index_map_is_monotone_over_survivors(self):
        ds = dataset(10, 2, seed=1)
        delta = random_delta(ds, seed=0, deletes=(1, 5), update_index=7)
        mapping = delta.index_map(10)
        survivors = sorted(mapping)
        assert 1 not in mapping and 5 not in mapping
        images = [mapping[i] for i in survivors]
        assert images == sorted(images)
        mutated = delta.apply(ds)
        for old, new in mapping.items():
            if old != 7:  # the updated row moved in score space
                assert tuple(ds.scores[old]) == tuple(mutated.scores[new])

    def test_touched_new_indices_cover_inserts_and_updates(self):
        ds = dataset(10, 2, seed=1)
        delta = random_delta(ds, seed=0, deletes=(1, 5), update_index=7)
        touched = delta.touched_new_indices(10, 10 - 2 + 3)
        mapping = delta.index_map(10)
        assert mapping[7] in touched
        assert len(touched) == delta.n_inserted + delta.n_updated

    def test_validation_rejects_bad_shapes(self):
        ds = dataset(10, 2, seed=1)
        with pytest.raises(DatasetError):
            DatasetDelta(deletes=(1, 1))  # duplicate delete
        with pytest.raises(DatasetError):
            DatasetDelta(deletes=(1,), updates=((1, (0.5, 0.5)),))  # overlap
        with pytest.raises(DatasetError):
            DatasetDelta(
                inserts=((0.5, 0.5),), insert_types={}
            ).apply(ds)  # missing type attributes
