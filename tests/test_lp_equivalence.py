"""Bit-identity of the direct HiGHS LP path against the ``linprog`` reference.

``repro.geometry.lp`` hands HiGHS the same model and options as
``scipy.optimize.linprog(..., method="highs")`` and applies the same success
test, so it must reproduce the reference (``tests/reference.py``) exactly:
the same ``feasible`` flag, byte-identical witness points and margins, and
the same exception whenever one is raised.  Three layers check that claim:

* generated systems — hypothesis-drawn degenerate inputs (duplicate, tied,
  all-zero and contradictory rows, empty systems, tiny margins, boxes that
  leave the Chebyshev centre free to go negative);
* a recorded corpus — every LP a small approximate build and a small exact
  build issue, replayed through both paths (the ``scripts/check_all.py``
  "LP identity smoke" gate);
* end to end — whole builds on either path persist the same bytes, spend the
  same oracle calls and answer a weight grid identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
import repro.geometry.hyperplane as hyperplane_module
import repro.geometry.lp as lp_module
from differential import entry_fingerprint, make_weight_grid, oracle_call_count, payload_bytes
from repro.core.engine import ApproxConfig, ExactConfig, create_engine
from repro.data.synthetic import make_compas_like
from repro.exceptions import GeometryError
from repro.fairness.oracle import CountingOracle
from repro.fairness.proportional import ProportionalOracle

pytestmark = pytest.mark.perf_smoke

ATTRIBUTES = ["c_days_from_compas", "juv_other_count", "start"]
MARGINS = (0.0, 1e-12, 1e-3)


def outcome(solver, *args, **kwargs) -> tuple:
    """An exact, comparable summary of one LP helper call."""
    try:
        result = solver(*args, **kwargs)
    except GeometryError as error:
        return ("raises", type(error).__name__, str(error))
    point = result.point
    return (
        "ok",
        result.feasible,
        None if point is None else (point.dtype.str, point.shape, point.tobytes()),
        float(result.margin).hex(),
    )


def assert_identical(a_ub, b_ub, bounds, margin: float) -> None:
    assert outcome(lp_module.feasible_point, a_ub, b_ub, bounds, margin=margin) == outcome(
        reference.feasible_point, a_ub, b_ub, bounds, margin=margin
    )
    assert outcome(lp_module.chebyshev_center, a_ub, b_ub, bounds) == outcome(
        reference.chebyshev_center, a_ub, b_ub, bounds
    )


# --------------------------------------------------------------------------- #
# generated systems
# --------------------------------------------------------------------------- #
coefficient = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 0.5, -2.0]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def systems(draw):
    """``(A or None, b or None, bounds, margin)`` with deliberate degeneracies."""
    dimension = draw(st.integers(min_value=1, max_value=5))
    rows: list[list[float]] = []
    rhs: list[float] = []
    target = draw(st.integers(min_value=0, max_value=40))
    while len(rows) < target:
        kind = draw(st.sampled_from(["random", "duplicate", "zero", "contradiction"]))
        if kind == "duplicate" and rows:
            # A tied copy, or the same row with a different right-hand side.
            index = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows.append(list(rows[index]))
            rhs.append(rhs[index] if draw(st.booleans()) else draw(coefficient))
        elif kind == "zero":
            rows.append([0.0] * dimension)
            rhs.append(draw(st.sampled_from([0.0, 1.0, -1.0])))
        elif kind == "contradiction":
            # a·x <= b and -a·x <= -b - gap: empty whenever gap > 0.
            row = draw(st.lists(coefficient, min_size=dimension, max_size=dimension))
            bound = draw(coefficient)
            gap = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.5]))
            rows.extend([row, [-value for value in row]])
            rhs.extend([bound, -bound - gap])
        else:
            rows.append(draw(st.lists(coefficient, min_size=dimension, max_size=dimension)))
            rhs.append(draw(coefficient))
    # Boxes with negative lows leave the Chebyshev centre's free coordinates
    # room to go below zero; degenerate (low == high) boxes are included.
    lows = draw(st.lists(st.sampled_from([0.0, -1.0, -3.5]), min_size=dimension, max_size=dimension))
    widths = draw(
        st.lists(st.sampled_from([0.0, 1.0, np.pi / 2, 10.0]), min_size=dimension, max_size=dimension)
    )
    bounds = [(low, low + width) for low, width in zip(lows, widths)]
    margin = draw(st.sampled_from(MARGINS))
    if not rows:
        empty = draw(st.sampled_from(["none", "zero-rows"]))
        if empty == "none":
            return None, None, bounds, margin
        return np.zeros((0, dimension)), np.zeros(0), bounds, margin
    return np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float), bounds, margin


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_generated_systems_bit_identical(system):
    assert_identical(*system)


@pytest.mark.parametrize("margin", MARGINS)
def test_free_variables_bit_identical(margin):
    """Infinite box bounds reach HiGHS as ``±kHighsInf`` column bounds."""
    a_ub = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b_ub = np.array([1.0, 0.0, 0.0])
    bounds = [(-np.inf, np.inf), (0.0, np.inf)]
    assert outcome(lp_module.feasible_point, a_ub, b_ub, bounds, margin=margin) == outcome(
        reference.feasible_point, a_ub, b_ub, bounds, margin=margin
    )


def test_non_finite_box_rejected_by_chebyshev_center():
    """An infinite box side cannot bound the Chebyshev ball on either path.

    ``linprog`` rejects the infinite right-hand side with a ``ValueError``;
    the direct path raises the library's own ``GeometryError``.
    """
    bounds = [(0.0, np.inf)]
    with pytest.raises(ValueError):
        reference.chebyshev_center(None, None, bounds)
    with pytest.raises(GeometryError):
        lp_module.chebyshev_center(None, None, bounds)


# --------------------------------------------------------------------------- #
# recorded corpus
# --------------------------------------------------------------------------- #
def _build(n: int, config, seed: int = 6):
    dataset = make_compas_like(n=n, seed=seed).project(ATTRIBUTES)
    oracle = CountingOracle(
        ProportionalOracle.at_most_share_plus_slack(
            dataset, "race", "African-American", k=0.3, slack=0.10
        )
    )
    return create_engine(dataset, oracle, config).preprocess()


SMALL_BUILDS = {
    "approximate": (200, ApproxConfig(n_cells=32, max_hyperplanes=40)),
    "exact": (40, ExactConfig(max_hyperplanes=20)),
}


@pytest.fixture(scope="module")
def recorded_corpus():
    """Every ``(A, b, bounds, margin)`` the two small builds issue, per engine.

    The recorders sit at the caller bindings in ``repro.geometry.hyperplane``
    (where every arrangement LP is issued) and copy the inputs before
    passing the call through unchanged.
    """
    corpus: dict[str, list[tuple]] = {}
    feasible_point = hyperplane_module.feasible_point
    chebyshev_center = hyperplane_module.chebyshev_center

    def copy(array):
        return None if array is None else np.array(array, dtype=float, copy=True)

    with pytest.MonkeyPatch.context() as patch:
        for name, (n, config) in SMALL_BUILDS.items():
            calls: list[tuple] = []

            def record_feasible(a_ub, b_ub, bounds, margin=0.0, calls=calls):
                calls.append(("feasible_point", copy(a_ub), copy(b_ub), list(bounds), margin))
                return feasible_point(a_ub, b_ub, bounds, margin=margin)

            def record_chebyshev(a_ub, b_ub, bounds, calls=calls):
                calls.append(("chebyshev_center", copy(a_ub), copy(b_ub), list(bounds), None))
                return chebyshev_center(a_ub, b_ub, bounds)

            patch.setattr(hyperplane_module, "feasible_point", record_feasible)
            patch.setattr(hyperplane_module, "chebyshev_center", record_chebyshev)
            _build(n, config)
            corpus[name] = calls
    return corpus


@pytest.mark.parametrize("engine", sorted(SMALL_BUILDS))
def test_recorded_corpus_bit_identical(recorded_corpus, engine):
    calls = recorded_corpus[engine]
    kinds = {kind for kind, *_ in calls}
    # Both LP kinds run, in the hundreds, or the replay proves little.
    assert kinds == {"feasible_point", "chebyshev_center"}
    assert len(calls) > 500
    for kind, a_ub, b_ub, bounds, margin in calls:
        kwargs = {} if margin is None else {"margin": margin}
        assert outcome(getattr(lp_module, kind), a_ub, b_ub, bounds, **kwargs) == outcome(
            getattr(reference, kind), a_ub, b_ub, bounds, **kwargs
        ), f"{engine} build: {kind} diverges on A={a_ub!r}, b={b_ub!r}, margin={margin!r}"


# --------------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------------- #
def _lifecycle(n: int, config) -> tuple:
    engine = _build(n, config)
    build_calls = oracle_call_count(engine)
    entries = engine.suggest_many(make_weight_grid(12, len(ATTRIBUTES), seed=3))
    return (
        payload_bytes(engine),
        build_calls,
        [entry_fingerprint(entry) for entry in entries],
        oracle_call_count(engine),
    )


@pytest.mark.parametrize("engine", sorted(SMALL_BUILDS))
def test_builds_bit_identical_on_reference_path(monkeypatch, engine):
    n, config = SMALL_BUILDS[engine]
    direct = _lifecycle(n, config)
    reference_calls = {"feasible_point": 0, "chebyshev_center": 0}

    def counted(name):
        solver = getattr(reference, name)

        def call(*args, **kwargs):
            reference_calls[name] += 1
            return solver(*args, **kwargs)

        return call

    for name in reference_calls:
        monkeypatch.setattr(lp_module, name, counted(name))
        monkeypatch.setattr(hyperplane_module, name, getattr(lp_module, name))
    on_reference = _lifecycle(n, config)
    assert all(count > 0 for count in reference_calls.values()), reference_calls
    payload, build_calls, answers, total_calls = direct
    assert on_reference[0] == payload, "persisted payloads diverge byte-for-byte"
    assert on_reference[1] == build_calls
    assert on_reference[2] == answers
    assert on_reference[3] == total_calls
