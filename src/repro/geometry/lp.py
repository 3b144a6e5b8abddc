"""Linear-programming helpers built on the HiGHS solver.

The arrangement algorithms of the paper (§4–5) repeatedly ask two questions
about a convex region described by linear inequalities over the angle
coordinates:

* *is the region non-empty*, i.e. does a point satisfying all constraints
  exist (used when inserting a hyperplane into the arrangement and when
  checking whether a hyperplane passes through a sub-tree / cell), and
* *give me a point inside the region*, used as the representative function
  whose ordering is handed to the fairness oracle.

Both are answered here.  Regions in the paper are open (they exclude their
bounding hyperplanes), so the feasibility routine supports a small interior
margin and the representative-point routine returns the Chebyshev centre,
the point deepest inside the region.

The LPs are small (a handful of variables, tens of rows) and there are
thousands of them per build, so :func:`_solve_highs` drives SciPy's HiGHS
bindings directly instead of going through SciPy's general-purpose LP entry
point, whose per-call option checking and input cleaning cost several times
the solve itself.  It hands HiGHS the model and options that entry point
builds for ``method="highs"`` and applies the same success test, so every
answer is bit-identical to it; ``tests/reference.py`` keeps that formulation
and ``tests/test_lp_equivalence.py`` holds the two paths to identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize._highspy import _core as highs_core

from repro.exceptions import GeometryError, InfeasibleRegionError

__all__ = ["LPResult", "feasible_point", "chebyshev_center", "is_feasible"]

#: The slack and bound tolerance of SciPy's post-solve result check
#: (``sqrt(tol) * 10`` at its default ``tol = 1e-9``).
_CHECK_TOLERANCE = np.sqrt(1e-9) * 10


@dataclass(frozen=True)
class LPResult:
    """Outcome of a feasibility / centring linear program."""

    feasible: bool
    point: np.ndarray | None
    margin: float = 0.0


@lru_cache(maxsize=1)
def _highs_options() -> highs_core.HighsOptions:
    """The options SciPy sets for ``method="highs"``, built once and reused."""
    options = highs_core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs_core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def _to_highs_inf(values: np.ndarray) -> np.ndarray:
    """Map ``±inf`` to ``±kHighsInf``; finite values pass through unchanged."""
    return np.clip(values, -highs_core.kHighsInf, highs_core.kHighsInf)


def _solve_highs(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> np.ndarray | None:
    """Minimise ``c·x`` subject to ``a x <= b`` and ``lb <= x <= ub``.

    Returns the optimal ``x``, or ``None`` when HiGHS reports anything but an
    optimum or the solution fails SciPy's NaN, bound and slack checks.
    ``lb``/``ub`` may hold ``±inf``.  A fresh solver runs every call, so no
    warm-start state carries over from one LP to the next.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise GeometryError("constraint system must be finite")
    num_row, num_col = a.shape
    # Column-wise sparse form with exact zeros dropped, as ``csc_array`` builds it.
    columns = a.T
    rows_by_column = np.nonzero(columns)
    start = np.zeros(num_col + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(columns, axis=1), out=start[1:])
    lp = highs_core.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = rows_by_column[1].astype(np.int32)
    lp.a_matrix_.value_ = columns[rows_by_column]
    lp.col_cost_ = c
    lp.col_lower_ = _to_highs_inf(lb)
    lp.col_upper_ = _to_highs_inf(ub)
    lp.row_lower_ = np.full(num_row, -highs_core.kHighsInf)
    lp.row_upper_ = b
    highs = highs_core._Highs()
    if highs.passOptions(_highs_options()) == highs_core.HighsStatus.kError:
        return None
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        return None
    if highs.run() == highs_core.HighsStatus.kError:
        return None
    if highs.getModelStatus() != highs_core.HighsModelStatus.kOptimal:
        return None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = b - solution.row_value
    objective = highs.getInfo().objective_function_value
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(slack).any():
        return None
    in_bounds = (x >= lb - _CHECK_TOLERANCE) & (x <= ub + _CHECK_TOLERANCE)
    if not in_bounds.all() or (slack < -_CHECK_TOLERANCE).any():
        return None
    return x


@dataclass(frozen=True)
class _Box:
    """One validated bounds tuple and the LP pieces derived from it."""

    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    #: ``[e_i; -e_i]`` rows (interleaved per variable) and their right-hand
    #: sides, so the Chebyshev ball respects the box too.
    rows: np.ndarray
    rhs: np.ndarray


@lru_cache(maxsize=64)
def _box(bounds: tuple[tuple[float, float], ...]) -> _Box:
    if not bounds:
        raise GeometryError("bounds must describe at least one variable")
    for low, high in bounds:
        if low > high:
            raise GeometryError(f"invalid bound ({low}, {high})")
    dimension = len(bounds)
    lower, upper = np.array(bounds, dtype=float).T
    # SciPy reads a NaN bound as "unbounded", like ``None``.
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    index = np.arange(dimension)
    rows = np.zeros((2 * dimension, dimension))
    rows[2 * index, index] = 1.0
    rows[2 * index + 1, index] = -1.0
    rhs = np.empty(2 * dimension)
    rhs[0::2] = upper
    rhs[1::2] = -lower
    for array in (lower, upper, rows, rhs):
        array.flags.writeable = False
    return _Box(dimension, lower, upper, rows, rhs)


def _validate_system(
    a_ub: np.ndarray | None, b_ub: np.ndarray | None, bounds: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, _Box]:
    box = _box(tuple(map(tuple, bounds)))
    if a_ub is None or len(a_ub) == 0:
        a_matrix = np.zeros((0, box.dimension), dtype=float)
        b_vector = np.zeros(0, dtype=float)
    else:
        a_matrix = np.asarray(a_ub, dtype=float)
        b_vector = np.asarray(b_ub, dtype=float)
        if a_matrix.ndim != 2 or a_matrix.shape[1] != box.dimension:
            raise GeometryError(
                f"constraint matrix has shape {a_matrix.shape}, expected (*, {box.dimension})"
            )
        if b_vector.shape != (a_matrix.shape[0],):
            raise GeometryError("right-hand side length must match the number of constraints")
    return a_matrix, b_vector, box


def is_feasible(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    bounds: list[tuple[float, float]],
    margin: float = 0.0,
) -> bool:
    """Return True if ``A x <= b - margin`` has a solution within ``bounds``."""
    return feasible_point(a_ub, b_ub, bounds, margin=margin).feasible


def feasible_point(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    bounds: list[tuple[float, float]],
    margin: float = 0.0,
) -> LPResult:
    """Find any point satisfying ``A x <= b - margin`` within box ``bounds``.

    Parameters
    ----------
    a_ub, b_ub:
        Inequality system ``A x <= b``; ``None`` means no linear constraints.
    bounds:
        Per-variable ``(low, high)`` box.
    margin:
        Require constraints to hold with this slack, which turns open regions
        of the arrangement into closed ones with a strictly interior witness.

    Returns
    -------
    LPResult
        ``feasible`` flag and the witness point (``None`` if infeasible).
    """
    a_matrix, b_vector, box = _validate_system(a_ub, b_ub, bounds)
    if margin < 0:
        raise GeometryError("margin must be non-negative")
    x = _solve_highs(np.zeros(box.dimension), a_matrix, b_vector - margin, box.lower, box.upper)
    if x is None:
        return LPResult(feasible=False, point=None)
    return LPResult(feasible=True, point=x, margin=margin)


def _chebyshev_bounds(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Free centre coordinates and a non-negative radius."""
    lower = np.full(dimension + 1, -np.inf)
    lower[-1] = 0.0
    return lower, np.full(dimension + 1, np.inf)


def chebyshev_center(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    bounds: list[tuple[float, float]],
) -> LPResult:
    """Return the Chebyshev centre of ``{x : A x <= b, low <= x <= high}``.

    The Chebyshev centre maximises the radius of a ball contained in the
    region, so it is the most robust interior representative to hand to the
    fairness oracle: a tiny numerical perturbation cannot push it across a
    bounding hyperplane into a neighbouring region with a different ordering.

    Raises
    ------
    InfeasibleRegionError
        If the region is empty (no feasible point at all).
    """
    a_matrix, b_vector, box = _validate_system(a_ub, b_ub, bounds)
    dimension = box.dimension
    # Augment with the box constraints so the inscribed ball respects them too.
    full_a = np.vstack([a_matrix, box.rows])
    full_b = np.concatenate([b_vector, box.rhs])
    norms = np.linalg.norm(full_a, axis=1)
    # Degenerate all-zero rows (possible if a hyperplane has zero coefficients)
    # contribute nothing to the geometry; drop them to keep the LP well posed.
    keep = norms > 0
    full_a = full_a[keep]
    full_b = full_b[keep]
    norms = norms[keep]
    if full_a.shape[0] == 0:
        raise GeometryError("chebyshev_center requires at least one constraint")
    # Variables: (x, radius).  Maximise radius subject to A x + ||a_i|| r <= b.
    objective = np.zeros(dimension + 1)
    objective[-1] = -1.0
    augmented = np.hstack([full_a, norms[:, None]])
    x = _solve_highs(objective, augmented, full_b, *_chebyshev_bounds(dimension))
    if x is None:
        raise InfeasibleRegionError("region has no interior point (empty or degenerate)")
    point = x[:dimension]
    radius = float(x[-1])
    if radius <= 0.0:
        # The region is non-empty but has an empty interior (lower dimensional).
        # Fall back to any feasible point so callers can still evaluate it.
        fallback = feasible_point(a_matrix if a_matrix.size else None, b_vector, bounds)
        if not fallback.feasible:
            raise InfeasibleRegionError("region is empty")
        return LPResult(feasible=True, point=fallback.point, margin=0.0)
    return LPResult(feasible=True, point=point, margin=radius)
