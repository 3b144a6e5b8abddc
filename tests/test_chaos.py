"""Chaos suite: the resilience guarantees under seeded deterministic faults.

Every test here is marked ``chaos`` (run them alone with ``-m chaos``).  The
headline acceptance test is :class:`TestServingUnderChaos`: at a 20% seeded
fault rate, a fallback chain's ``suggest_many`` never raises, non-faulted
answers are bit-identical to the unwrapped engine's, and every faulted query
carries a structured per-query record naming the tier that (or whether any
tier) answered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import ApproxConfig, TwoDConfig, create_engine
from repro.core.maintenance import DatasetDelta
from repro.exceptions import OracleUnavailableError
from repro.fairness.oracle import CountingOracle
from repro.ranking.scoring import LinearScoringFunction
from repro.resilience import (
    ChaosEngine,
    ChaosOracle,
    CircuitBreaker,
    FakeClock,
    FallbackEngine,
    InjectedFault,
    QueryFailure,
    ResilientOracle,
    RetryPolicy,
)

pytestmark = pytest.mark.chaos

TIER_A = ApproxConfig(n_cells=64, max_hyperplanes=40)
TIER_B = ApproxConfig(n_cells=32, max_hyperplanes=30)


@pytest.fixture(scope="module")
def chaos_setup(shared_compas_3d, shared_race_oracle_3d):
    tier_a = create_engine(shared_compas_3d, shared_race_oracle_3d, TIER_A).preprocess()
    tier_b = create_engine(shared_compas_3d, shared_race_oracle_3d, TIER_B).preprocess()
    return shared_compas_3d, shared_race_oracle_3d, tier_a, tier_b


def _queries(q: int, d: int = 3, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.1, 1.0, size=(q, d))


# --------------------------------------------------------------------------- #
# the chaos wrappers themselves
# --------------------------------------------------------------------------- #
class TestChaosOracle:
    def test_injection_is_deterministic_per_payload(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=0.5, seed=3)
        rng = np.random.default_rng(0)
        orderings = [rng.permutation(dataset.n_items) for _ in range(30)]
        verdicts = []
        for ordering in orderings:
            try:
                verdicts.append(chaos.is_satisfactory(ordering, dataset))
            except InjectedFault:
                verdicts.append("fault")
        # Same seed, same payloads: the exact same outcome sequence.
        replay = ChaosOracle(oracle, failure_rate=0.5, seed=3)
        for ordering, expected in zip(orderings, verdicts):
            if expected == "fault":
                assert replay.would_fail(ordering)
                with pytest.raises(InjectedFault):
                    replay.is_satisfactory(ordering, dataset)
            else:
                assert replay.is_satisfactory(ordering, dataset) == expected
        assert chaos.injected_failures == verdicts.count("fault") > 0

    def test_rates_roughly_respected(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=0.2, seed=1)
        rng = np.random.default_rng(1)
        faults = sum(
            chaos.would_fail(rng.permutation(dataset.n_items)) for _ in range(400)
        )
        assert 40 <= faults <= 130  # 20% ± generous slack on 400 draws

    def test_wrong_verdicts_flip_the_inner_answer(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        counting = CountingOracle(oracle)
        chaos = ChaosOracle(counting, wrong_verdict_rate=1.0, seed=0)
        ordering = np.arange(dataset.n_items)
        assert chaos.is_satisfactory(ordering, dataset) != oracle.is_satisfactory(
            ordering, dataset
        )
        assert chaos.injected_flips == 1

    def test_disabled_wrapper_is_transparent(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=1.0, enabled=False)
        ordering = np.arange(dataset.n_items)
        assert chaos.is_satisfactory(ordering, dataset) == oracle.is_satisfactory(
            ordering, dataset
        )
        assert chaos.injected_failures == 0 and chaos.forwarded_calls == 1

    def test_latency_advances_the_clock(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        clock = FakeClock()
        chaos = ChaosOracle(oracle, latency=0.5, clock=clock)
        chaos.is_satisfactory(np.arange(dataset.n_items), dataset)
        assert clock() == 0.5

    def test_describe_names_the_rates(self, chaos_setup):
        _, oracle, _, _ = chaos_setup
        assert "fail=0.25" in ChaosOracle(oracle, failure_rate=0.25).describe()


class TestChaosEngine:
    def test_batch_raises_on_first_poisoned_query(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        matrix = _queries(20, seed=1)
        assert any(chaos.would_fail(row) for row in matrix)
        with pytest.raises(InjectedFault):
            chaos.suggest_many(matrix)

    def test_faults_are_path_independent(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaos = ChaosEngine(tier_a, failure_rate=0.3, seed=7)
        matrix = _queries(20, seed=1)
        for row in matrix:
            function = LinearScoringFunction(tuple(row.tolist()))
            if chaos.would_fail(row):
                with pytest.raises(InjectedFault):
                    chaos.suggest(function)  # same query faults on retry too
            else:
                assert chaos.suggest(function) == tier_a.suggest(function)


# --------------------------------------------------------------------------- #
# resilient oracle under chaos
# --------------------------------------------------------------------------- #
class TestResilientOracleUnderChaos:
    def test_retry_does_not_heal_payload_keyed_faults(self, chaos_setup):
        # Payload-keyed injection models a *deterministically* failing input:
        # the retry budget burns out and the typed error surfaces.
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=1.0, seed=0)
        resilient = ResilientOracle(
            chaos,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
            circuit_breaker=CircuitBreaker(failure_threshold=100, clock=FakeClock()),
            sleep=lambda _s: None,
        )
        with pytest.raises(OracleUnavailableError) as excinfo:
            resilient.is_satisfactory(np.arange(dataset.n_items), dataset)
        assert isinstance(excinfo.value.last_error, InjectedFault)
        assert resilient.stats.calls == 3

    def test_clean_payloads_pass_through_chaos(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        chaos = ChaosOracle(oracle, failure_rate=0.5, seed=3)
        resilient = ResilientOracle(chaos, sleep=lambda _s: None)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(20):
            ordering = rng.permutation(dataset.n_items)
            if not chaos.would_fail(ordering):
                assert resilient.is_satisfactory(
                    ordering, dataset
                ) == oracle.is_satisfactory(ordering, dataset)
                checked += 1
        assert checked > 0

    def test_breaker_opens_under_sustained_chaos(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        clock = FakeClock()
        chaos = ChaosOracle(oracle, failure_rate=1.0, seed=0)
        resilient = ResilientOracle(
            chaos,
            retry_policy=RetryPolicy(max_attempts=2, jitter=0.0),
            circuit_breaker=CircuitBreaker(
                failure_threshold=3, recovery_time=60.0, clock=clock
            ),
            clock=clock,
            sleep=clock.advance,
        )
        ordering = np.arange(dataset.n_items)
        for _ in range(2):
            with pytest.raises(OracleUnavailableError):
                resilient.is_satisfactory(ordering, dataset)
        assert resilient.circuit_breaker.state == "open"
        calls_before = resilient.stats.calls
        with pytest.raises(OracleUnavailableError):
            resilient.is_satisfactory(ordering, dataset)
        assert resilient.stats.calls == calls_before  # fail-fast, no oracle call
        assert resilient.stats.rejected_open >= 1

    def test_chaos_latency_trips_the_deadline(self, chaos_setup):
        dataset, oracle, _, _ = chaos_setup
        clock = FakeClock()
        chaos = ChaosOracle(oracle, latency=3.0, clock=clock)
        resilient = ResilientOracle(
            chaos,
            deadline=1.0,
            retry_policy=RetryPolicy(max_attempts=2, jitter=0.0),
            circuit_breaker=CircuitBreaker(failure_threshold=100, clock=clock),
            clock=clock,
            sleep=clock.advance,
        )
        with pytest.raises(OracleUnavailableError):
            resilient.is_satisfactory(np.arange(dataset.n_items), dataset)
        assert resilient.stats.timeouts == 2


# --------------------------------------------------------------------------- #
# the headline acceptance criterion
# --------------------------------------------------------------------------- #
class TestServingUnderChaos:
    """At 20% seeded faults: never raise, bit-identical clean answers,
    structured per-query records for the faulted ones."""

    FAILURE_RATE = 0.2
    N_QUERIES = 40

    def test_suggest_many_never_raises_and_isolates_faults(self, chaos_setup):
        _, _, tier_a, tier_b = chaos_setup
        chaotic = ChaosEngine(tier_a, failure_rate=self.FAILURE_RATE, seed=13)
        engine = FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
        matrix = _queries(self.N_QUERIES, seed=2)
        baseline = tier_a.suggest_many(matrix)  # the unwrapped engine
        backup = tier_b.suggest_many(matrix)
        poisoned = {row for row in range(self.N_QUERIES) if chaotic.would_fail(matrix[row])}
        assert poisoned, "the seed must fault some queries for this test to bite"

        results = engine.suggest_many(matrix)  # must not raise
        report = engine.last_report
        assert report.n_queries == self.N_QUERIES

        for row, result in enumerate(results):
            record = report.records[row]
            assert record.index == row
            if row in poisoned:
                # Faulted query: structured record naming the answering tier.
                assert record.faulted
                assert record.errors[0].tier == "0:approximate"
                assert record.errors[0].error_type == "InjectedFault"
                assert record.tier == "1:approximate" and record.answered
                assert result == backup[row]
            else:
                # Clean query: bit-identical to the unwrapped engine.
                assert not record.faulted and record.tier == "0:approximate"
                assert result == baseline[row]
        assert report.n_faulted == len(poisoned)
        assert report.n_unanswered == 0

    def test_single_tier_chain_surfaces_failures_as_records(self, chaos_setup):
        _, _, tier_a, _ = chaos_setup
        chaotic = ChaosEngine(tier_a, failure_rate=self.FAILURE_RATE, seed=13)
        engine = FallbackEngine.from_engines([chaotic]).preprocess()
        matrix = _queries(self.N_QUERIES, seed=2)
        baseline = tier_a.suggest_many(matrix)
        results = engine.suggest_many(matrix)  # still never raises
        for row, result in enumerate(results):
            if chaotic.would_fail(matrix[row]):
                assert isinstance(result, QueryFailure)
                assert result.errors[0].error_type == "InjectedFault"
                assert not engine.last_report.records[row].answered
            else:
                assert result == baseline[row]
        assert engine.last_report.n_unanswered == len(
            [r for r in results if isinstance(r, QueryFailure)]
        )

    def test_chaos_run_is_reproducible(self, chaos_setup):
        _, _, tier_a, tier_b = chaos_setup
        matrix = _queries(self.N_QUERIES, seed=2)
        outcomes = []
        for _ in range(2):
            chaotic = ChaosEngine(tier_a, failure_rate=self.FAILURE_RATE, seed=13)
            engine = FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
            engine.suggest_many(matrix)
            outcomes.append(
                tuple(record.tier for record in engine.last_report.records)
            )
        assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------- #
# maintenance through a chaos tier
# --------------------------------------------------------------------------- #
class TestChaosTierMaintenance:
    def test_fallback_chain_keeps_a_chaos_tier_through_apply_delta(
        self, small_compas_2d, race_oracle_2d
    ):
        tier_a = create_engine(small_compas_2d, race_oracle_2d, TwoDConfig()).preprocess()
        tier_b = create_engine(small_compas_2d, race_oracle_2d, TwoDConfig()).preprocess()
        chaotic = ChaosEngine(tier_a, failure_rate=0.2, seed=13)
        engine = FallbackEngine.from_engines([chaotic, tier_b]).preprocess()
        delta = DatasetDelta(deletes=(1, 5), updates=((7, (0.5, 0.5)),))

        engine.apply_delta(delta)

        assert engine.active_tiers == ("0:2d", "1:2d")
        assert engine.preprocess_errors == ()
        rebuilt = create_engine(
            delta.apply(small_compas_2d), race_oracle_2d, TwoDConfig()
        ).preprocess()
        matrix = _queries(20, d=2, seed=4)
        expected = rebuilt.suggest_many(matrix)
        results = engine.suggest_many(matrix)
        chaos_answered = [
            row
            for row, record in enumerate(engine.last_report.records)
            if record.tier == "0:2d"
        ]
        assert chaos_answered, "the chaos tier must answer some queries"
        for row in chaos_answered:
            assert results[row] == expected[row]
