"""The unified query-engine API: pluggable pipelines behind one protocol.

The paper's system is an offline-preprocess / online-serve split: preprocess a
dataset against a fairness oracle once, then answer CLOSEST SATISFACTORY
FUNCTION queries in interactive time.  Each of the three pipelines implements
that split differently (§3 ray sweep in 2-D, §4 ``SATREGIONS`` exactly in any
dimension, §5 grid approximation), but a serving system should not care which
one is behind a query.  This module gives every pipeline the same shape:

* a typed configuration dataclass (:class:`TwoDConfig`, :class:`ExactConfig`,
  :class:`ApproxConfig`) instead of a grab-bag of keyword arguments;
* a :class:`QueryEngine` with ``preprocess`` / ``suggest`` / ``suggest_many``
  / ``capabilities`` and ``to_payload`` / ``from_payload`` persistence hooks;
* a registry keyed by engine name, so facades (and later shards / async
  servers) dispatch on data instead of ``isinstance`` checks.

``suggest_many`` is the batch entry point for serving-shaped workloads: the
2-D engine classifies a whole weight matrix with one ``searchsorted`` over the
cached interval-start array, and the approximate engine answers the per-query
oracle pre-check through the batched oracle protocol
(:mod:`repro.fairness.batched`) and locates all unsatisfactory queries' cells
in vectorised chunks.  Both return exactly what a Python loop over ``suggest``
would — same objects, bit-identical numbers — so batching is a pure
throughput optimisation.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.core.approx import ApproximatePreprocessor, MDApproxIndex, md_online
from repro.core.maintenance import DatasetDelta, MaintenanceReport, maintain_hyperplanes
from repro.core.multi_dim import MDExactIndex, SatRegions, md_baseline
from repro.core.result import SuggestionResult
from repro.core.two_dim import TwoDIndex, TwoDRaySweep
from repro.data.dataset import Dataset
from repro.data.dominance import exchange_pairs_touching
from repro.exceptions import (
    ConfigurationError,
    NoSatisfactoryFunctionError,
    NotPreprocessedError,
)
from repro.fairness.batched import evaluate_functions_many
from repro.fairness.oracle import FairnessOracle
from repro.geometry.angles import to_angles_many, to_weights
from repro.geometry.cellplane import merged_cell_plane_index
from repro.geometry.dual import (
    build_exchange_angles_2d,
    exchange_angles_for_pairs,
    hyperpolar_many,
)
from repro.geometry.partition import locate_cells
from repro.obs.trace import stage_span
from repro.ranking.scoring import LinearScoringFunction

__all__ = [
    "TwoDConfig",
    "ExactConfig",
    "ApproxConfig",
    "EngineCapabilities",
    "QueryEngine",
    "TwoDEngine",
    "ExactEngine",
    "ApproxEngine",
    "EngineWrapper",
    "register_engine",
    "get_engine",
    "available_engines",
    "engine_name_for_config",
    "create_engine",
    "engine_from_payload",
    "ENGINE_FORMAT",
]

#: Schema identifier written into every serialised engine payload.
ENGINE_FORMAT = "repro.engine/v1"


# --------------------------------------------------------------------------- #
# typed per-pipeline configurations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TwoDConfig:
    """Configuration of the 2-D ray-sweep pipeline (§3).

    Attributes
    ----------
    sample_size:
        If given, preprocessing runs on a uniform sample of this size (§5.4).
    sample_seed:
        Seed of the preprocessing sample draw.
    use_incremental:
        Maintain sector verdicts incrementally when the oracle supports the
        incremental protocol (see :mod:`repro.fairness.incremental`).
    preprocess_workers:
        Worker processes for the exchange enumeration (``1`` = serial; see
        :mod:`repro.parallel` — the sharded path is bit-identical).
    staleness_fraction:
        Largest fraction of the dataset one :class:`~repro.core.maintenance.DatasetDelta`
        may mutate before ``apply_delta`` abandons incremental maintenance and
        rebuilds the index from scratch.

    >>> TwoDConfig().use_incremental
    True
    >>> TwoDConfig(staleness_fraction=1.5)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: staleness_fraction must be in [0, 1], got 1.5
    """

    sample_size: int | None = None
    sample_seed: int = 0
    use_incremental: bool = True
    preprocess_workers: int = 1
    staleness_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.preprocess_workers < 1:
            raise ConfigurationError(
                f"preprocess_workers must be >= 1, got {self.preprocess_workers}"
            )
        _check_staleness_fraction(self.staleness_fraction)


@dataclass(frozen=True)
class ExactConfig:
    """Configuration of the exact ``SATREGIONS`` + ``MDBASELINE`` pipeline (§4).

    ``hyperplane_method`` selects how the exchange hyperplanes are built:
    ``"batched"`` (default, the stacked :func:`~repro.geometry.dual.hyperpolar_many`
    kernel) or ``"scalar"`` (the bit-identical per-pair reference loop).

    >>> ExactConfig().hyperplane_method
    'batched'
    """

    max_hyperplanes: int | None = None
    convex_layer_k: int | None = None
    use_arrangement_tree: bool = True
    sample_size: int | None = None
    sample_seed: int = 0
    hyperplane_method: str = "batched"
    preprocess_workers: int = 1
    staleness_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.hyperplane_method not in ("batched", "scalar"):
            raise ConfigurationError(
                f"hyperplane_method must be 'batched' or 'scalar', "
                f"got {self.hyperplane_method!r}"
            )
        if self.preprocess_workers < 1:
            raise ConfigurationError(
                f"preprocess_workers must be >= 1, got {self.preprocess_workers}"
            )
        _check_staleness_fraction(self.staleness_fraction)


@dataclass(frozen=True)
class ApproxConfig:
    """Configuration of the approximate grid pipeline (§5).

    ``partition`` is the name of a built-in partition backend (``"uniform"``
    or ``"angle"``); power users who need a custom partition object can drive
    :class:`~repro.core.approx.ApproximatePreprocessor` directly.

    >>> ApproxConfig(n_cells=256).partition
    'uniform'
    >>> ApproxConfig(n_cells=0)
    Traceback (most recent call last):
        ...
    repro.exceptions.ConfigurationError: n_cells must be >= 1
    """

    n_cells: int = 1024
    partition: str = "uniform"
    max_hyperplanes: int | None = None
    convex_layer_k: int | None = None
    sample_size: int | None = None
    sample_seed: int = 0
    hyperplane_method: str = "batched"
    preprocess_workers: int = 1
    staleness_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ConfigurationError("n_cells must be >= 1")
        if self.partition not in ("uniform", "angle"):
            raise ConfigurationError(
                f"partition must be 'uniform' or 'angle', got {self.partition!r}"
            )
        if self.hyperplane_method not in ("batched", "scalar"):
            raise ConfigurationError(
                f"hyperplane_method must be 'batched' or 'scalar', "
                f"got {self.hyperplane_method!r}"
            )
        if self.preprocess_workers < 1:
            raise ConfigurationError(
                f"preprocess_workers must be >= 1, got {self.preprocess_workers}"
            )
        _check_staleness_fraction(self.staleness_fraction)


def _check_staleness_fraction(value: float) -> None:
    """Shared validation of the configs' incremental-maintenance threshold."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"staleness_fraction must be in [0, 1], got {value}")


EngineConfig = TwoDConfig | ExactConfig | ApproxConfig


@dataclass(frozen=True)
class EngineCapabilities:
    """What a pipeline can do, for dispatch and serving decisions.

    Attributes
    ----------
    name:
        Registry name of the engine.
    exact:
        True when answers are exact (no Theorem 6 style approximation slack).
    min_attributes, max_attributes:
        Dataset dimensionalities the engine accepts (``None`` = unbounded).
    batched:
        True when ``suggest_many`` is natively batched rather than an
        internal loop over ``suggest``.
    persistable:
        True when ``to_payload`` / ``from_payload`` round-trip the engine.
    """

    name: str
    exact: bool
    min_attributes: int
    max_attributes: int | None
    batched: bool
    persistable: bool = True

    def supports_dimension(self, n_attributes: int) -> bool:
        """True if the engine can index a dataset with this many scoring attributes.

        >>> TwoDEngine.capabilities().supports_dimension(2)
        True
        >>> TwoDEngine.capabilities().supports_dimension(3)
        False
        >>> ExactEngine.capabilities().supports_dimension(7)
        True
        """
        if n_attributes < self.min_attributes:
            return False
        return self.max_attributes is None or n_attributes <= self.max_attributes


# --------------------------------------------------------------------------- #
# the engine protocol and registry
# --------------------------------------------------------------------------- #
@runtime_checkable
class QueryEngine(Protocol):
    """Protocol every registered pipeline engine implements."""

    dataset: Dataset
    oracle: FairnessOracle

    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "QueryEngine":
        """Run the offline phase; returns the engine for chaining."""

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        """Answer one CLOSEST SATISFACTORY FUNCTION query."""

    def suggest_many(self, weights_matrix: np.ndarray) -> list[SuggestionResult]:
        """Answer a batch of queries, identically to looping :meth:`suggest`."""

    def apply_delta(self, delta: DatasetDelta) -> MaintenanceReport:
        """Apply one batch of item mutations, maintaining the index in place."""

    def refresh(self) -> MaintenanceReport:
        """Re-run the oracle-dependent stages over the engine's cached geometry."""

    def capabilities(self) -> EngineCapabilities:
        """Static description of what the engine supports."""

    def to_payload(self) -> dict[str, Any]:
        """Serialise the preprocessed engine to a JSON-compatible payload."""

    @classmethod
    def from_payload(cls, payload: dict[str, Any], oracle: FairnessOracle) -> "QueryEngine":
        """Rebuild a preprocessed engine from :meth:`to_payload` output."""


_ENGINE_REGISTRY: dict[str, type] = {}
_CONFIG_TO_NAME: dict[type, str] = {}

_PLUGINS_LOADED: bool = False


def _load_builtin_plugins() -> None:
    """Import engine modules that live outside this one (lazily, once).

    The resilience layer registers its :class:`FallbackEngine` through the
    ordinary registry but imports this module to do so; deferring its import
    to the first registry *lookup* keeps the modules acyclic while making
    ``"fallback"`` a first-class registered engine.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED:
        return
    _PLUGINS_LOADED = True
    import repro.resilience.fallback  # noqa: F401  (registers on import)
    import repro.obs.instrument  # noqa: F401  (registers on import)
    import repro.parallel.pool  # noqa: F401  (registers on import)


def register_engine(name: str, config_type: type) -> Callable[[type], type]:
    """Class decorator registering an engine under ``name`` with its config type."""

    def decorate(cls: type) -> type:
        if name in _ENGINE_REGISTRY:
            raise ConfigurationError(f"engine {name!r} is already registered")
        cls.name = name
        cls.config_type = config_type
        _ENGINE_REGISTRY[name] = cls
        _CONFIG_TO_NAME[config_type] = name
        return cls

    return decorate


def available_engines() -> tuple[str, ...]:
    """Names of all registered engines (in registration order, which depends
    on which plugin modules were imported first — sort for a stable view).

    >>> sorted(available_engines())
    ['2d', 'approximate', 'exact', 'fallback', 'instrumented', 'pool']
    """
    _load_builtin_plugins()
    return tuple(_ENGINE_REGISTRY)


def get_engine(name: str) -> type:
    """Look up an engine class by registry name.

    >>> get_engine("2d").__name__
    'TwoDEngine'
    """
    _load_builtin_plugins()
    try:
        return _ENGINE_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {sorted(_ENGINE_REGISTRY)}"
        ) from None


def engine_name_for_config(config: EngineConfig) -> str:
    """Map a typed config to the engine name it configures.

    >>> engine_name_for_config(ApproxConfig())
    'approximate'
    """
    _load_builtin_plugins()
    try:
        return _CONFIG_TO_NAME[type(config)]
    except KeyError:
        raise ConfigurationError(
            f"{type(config).__name__} is not a registered engine configuration"
        ) from None


def create_engine(
    dataset: Dataset, oracle: FairnessOracle, config: EngineConfig
) -> "QueryEngine":
    """Instantiate the engine a typed config selects, validating the dataset."""
    return get_engine(engine_name_for_config(config))(dataset, oracle, config)


def engine_from_payload(payload: dict[str, Any], oracle: FairnessOracle) -> "QueryEngine":
    """Rebuild a preprocessed engine from a serialised payload, dispatching on its name."""
    if not isinstance(payload, dict) or payload.get("format") != ENGINE_FORMAT:
        raise ConfigurationError(
            f"payload is not a serialised engine (expected format {ENGINE_FORMAT!r})"
        )
    return get_engine(str(payload.get("engine"))).from_payload(payload, oracle)


# --------------------------------------------------------------------------- #
# shared engine machinery
# --------------------------------------------------------------------------- #
class _EngineBase:
    """Common preprocess / batching / persistence scaffolding of the engines."""

    name: str
    config_type: type

    def __init__(
        self,
        dataset: Dataset,
        oracle: FairnessOracle,
        config: EngineConfig | None = None,
    ) -> None:
        config = config if config is not None else self.config_type()
        if not isinstance(config, self.config_type):
            raise ConfigurationError(
                f"{type(self).__name__} expects a {self.config_type.__name__}, "
                f"got {type(config).__name__}"
            )
        capabilities = self.capabilities()
        if not capabilities.supports_dimension(dataset.n_attributes):
            bound = (
                f"exactly {capabilities.min_attributes}"
                if capabilities.max_attributes == capabilities.min_attributes
                else f"at least {capabilities.min_attributes}"
            )
            raise ConfigurationError(
                f"engine {capabilities.name!r} requires {bound} scoring attributes; "
                f"the dataset has {dataset.n_attributes}"
            )
        self.dataset = dataset
        self.oracle = oracle
        self.config = config
        self._index: Any = None
        self._preprocessing_dataset: Dataset | None = None
        self._journal: list[DatasetDelta] = []
        self._base_payload: dict[str, Any] | None = None

    # -- offline phase ------------------------------------------------- #
    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "_EngineBase":
        """Run the offline phase (optionally rebinding dataset/oracle first)."""
        if dataset is not None:
            self.dataset = dataset
        if oracle is not None:
            self.oracle = oracle
        working = self.dataset
        sample_size = self.config.sample_size
        if sample_size is not None and sample_size < working.n_items:
            working = working.sample(sample_size, seed=self.config.sample_seed)
        self._preprocessing_dataset = working
        self._index = self._build_index(working)
        return self

    def _build_index(self, working: Dataset) -> Any:
        raise NotImplementedError

    # -- maintenance (the build-and-maintain lifecycle) ------------------ #
    def apply_delta(self, delta: DatasetDelta) -> MaintenanceReport:
        """Apply one batch of item mutations, maintaining the index in place.

        The maintained engine is *bit-identical* — same answers, same
        oracle-call budget, same persisted payload bytes — to a from-scratch
        :meth:`preprocess` on ``delta.apply(self.dataset)``.  Small deltas on
        eligible engines run the incremental geometry paths; a delta mutating
        more than ``config.staleness_fraction`` of the dataset (or an engine
        without its geometry caches, e.g. one rebuilt from a payload) falls
        back to a full rebuild.  Applied deltas are journaled so
        :func:`repro.io.index_store.save_engine` can persist a base snapshot
        plus the delta log.
        """
        if not isinstance(delta, DatasetDelta):
            raise ConfigurationError(
                f"apply_delta expects a DatasetDelta, got {type(delta).__name__}"
            )
        if self._index is None:
            raise NotPreprocessedError("preprocess() before applying dataset deltas")
        if delta.is_empty:
            return MaintenanceReport(engine=self.name, strategy="noop")
        fraction = delta.staleness_fraction(self.dataset.n_items)
        mutated = delta.apply(self.dataset)
        if (
            self._base_payload is None
            and not self._journal
            and self.config.sample_size is None
            and self.capabilities().persistable
        ):
            # Snapshot the pre-delta engine once, before the first mutation:
            # the journaled payload format replays the delta log against it.
            self._base_payload = self.to_payload()
        with stage_span(
            "maintenance.apply_delta", engine=self.name, n_changes=delta.n_changes
        ) as span:
            if fraction > self.config.staleness_fraction or not self._supports_incremental(
                delta
            ):
                strategy = "rebuild"
                details = self._rebuild_on(mutated)
            else:
                strategy = "incremental"
                details = self._apply_delta_incremental(delta, mutated)
            if span is not None:
                span.set("strategy", strategy)
        self._journal.append(delta)
        return MaintenanceReport(
            engine=self.name,
            strategy=strategy,
            n_inserted=delta.n_inserted,
            n_deleted=delta.n_deleted,
            n_updated=delta.n_updated,
            staleness_fraction=fraction,
            details=details,
        )

    def refresh(self) -> MaintenanceReport:
        """Re-run the oracle-dependent stages over the engine's cached geometry.

        The partial-refresh hook the freshness monitors drive
        (:func:`repro.core.monitoring.refresh_if_stale`): oracle verdicts are
        re-evaluated in full — they are data- and oracle-state-dependent —
        but the oracle-free geometry (exchange angles, hyperplanes, cell-plane
        assignments, the arrangement tree) is reused from the engine's caches.
        Engines without caches (e.g. loaded from a payload) rebuild.
        """
        if self._index is None:
            raise NotPreprocessedError("preprocess() before refreshing")
        with stage_span("maintenance.refresh", engine=self.name):
            self._refresh_index()
        return MaintenanceReport(engine=self.name, strategy="refresh")

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        """True when this engine can maintain its index incrementally for ``delta``."""
        return False

    def _apply_delta_incremental(self, delta: DatasetDelta, mutated: Dataset) -> dict[str, Any]:
        raise NotImplementedError  # only reachable when _supports_incremental lies

    def _rebuild_on(self, mutated: Dataset) -> dict[str, Any]:
        """Full-rebuild fallback: preprocess from scratch on the mutated dataset."""
        self.dataset = mutated
        self.preprocess()
        return {"n_items": mutated.n_items}

    def _refresh_index(self) -> None:
        """Default refresh: rebuild the index on the preprocessing dataset."""
        self._index = self._build_index(self.preprocessing_dataset)

    @property
    def journal(self) -> tuple[DatasetDelta, ...]:
        """Deltas applied since preprocessing (the journaled payload's delta log)."""
        return tuple(self._journal)

    @property
    def base_payload(self) -> dict[str, Any] | None:
        """Engine payload captured before the first delta (None when unavailable).

        Sampled engines never capture a base snapshot: their persisted
        preprocessing dataset is the sample, so a replayed delta log could not
        be applied against the full pre-delta dataset.  They persist
        snapshot-only (``save_engine(..., journaled=False)``).
        """
        return self._base_payload

    @property
    def is_preprocessed(self) -> bool:
        """True once :meth:`preprocess` has run (or the engine was loaded)."""
        return self._index is not None

    @property
    def index(self) -> Any:
        """The underlying offline index (engine specific)."""
        if self._index is None:
            raise NotPreprocessedError("call preprocess() first")
        return self._index

    @property
    def preprocessing_dataset(self) -> Dataset:
        """The dataset the index was built on (the sample when sampling was used)."""
        if self._preprocessing_dataset is None:
            raise NotPreprocessedError("call preprocess() first")
        return self._preprocessing_dataset

    # -- online phase --------------------------------------------------- #
    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        raise NotImplementedError

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[SuggestionResult]:
        """Fallback batch answering: a loop over :meth:`suggest`.

        Engines with a native batched path override this; the loop is the
        reference semantics every override must reproduce exactly.
        """
        matrix = self._as_matrix(weights_matrix)
        return [
            self.suggest(LinearScoringFunction(tuple(row))) for row in matrix.tolist()
        ]

    def _as_matrix(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> np.ndarray:
        matrix = np.asarray(weights_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dataset.n_attributes:
            raise ConfigurationError(
                f"suggest_many expects a (q, {self.dataset.n_attributes}) weight matrix, "
                f"got shape {matrix.shape}"
            )
        return matrix

    # -- persistence ----------------------------------------------------- #
    def to_payload(self) -> dict[str, Any]:
        """Serialise config + index + preprocessing dataset to a JSON-compatible dict.

        The preprocessing dataset (the sample, when sampling was used) is
        embedded so a loaded engine answers bit-identically to the engine that
        was saved — the exact pipeline re-orders it per query, and the
        approximate pipeline re-checks queries against it.
        """
        from repro.io.dataset_json import dataset_to_dict

        return {
            "format": ENGINE_FORMAT,
            "engine": self.name,
            "config": asdict(self.config),
            "index": self._index_to_dict(),
            "preprocessing_dataset": dataset_to_dict(self.preprocessing_dataset),
        }

    def _index_to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict[str, Any], oracle: FairnessOracle) -> "_EngineBase":
        """Rebuild a preprocessed engine from :meth:`to_payload` output."""
        from repro.io.dataset_json import dataset_from_dict

        if not isinstance(payload, dict) or payload.get("format") != ENGINE_FORMAT:
            raise ConfigurationError(
                f"payload is not a serialised engine (expected format {ENGINE_FORMAT!r})"
            )
        if payload.get("engine") != cls.name:
            raise ConfigurationError(
                f"payload holds a {payload.get('engine')!r} engine, expected {cls.name!r}"
            )
        config_payload = payload.get("config", {})
        known = {field.name for field in fields(cls.config_type)}
        unknown = sorted(set(config_payload) - known)
        if unknown:
            warnings.warn(
                f"ignoring unknown {cls.config_type.__name__} key(s) in the engine "
                f"payload: {', '.join(unknown)} (the payload may come from a newer "
                "version of this library)",
                UserWarning,
                stacklevel=2,
            )
        config = cls.config_type(
            **{key: value for key, value in config_payload.items() if key in known}
        )
        dataset = dataset_from_dict(payload["preprocessing_dataset"])
        engine = cls(dataset, oracle, config)
        engine._preprocessing_dataset = dataset
        engine._index = engine._index_from_dict(payload["index"], dataset, oracle)
        return engine

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> Any:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# serving-layer wrappers
# --------------------------------------------------------------------------- #
class EngineWrapper:
    """Base of the serving-layer engines that wrap other engines.

    A wrapper (observability, a fallback chain, a process pool, fault
    injection) presents the whole :class:`QueryEngine` seam but answers
    through one *primary* engine: :attr:`primary`, which is ``self.inner``
    unless a subclass says otherwise.  This base owns the pass-through
    surface, so a subclass overrides only the behaviour it adds:

    * :meth:`preprocess` rebinds ``dataset``/``oracle`` and then runs the
      :meth:`_preprocess_inner` hook (default: preprocess the primary);
    * ``index``, ``is_preprocessed``, ``preprocessing_dataset``,
      ``journal`` and ``base_payload`` read the primary's;
    * ``suggest``, ``suggest_many``, ``apply_delta`` and ``refresh`` forward
      to the primary, the maintenance calls re-syncing ``dataset`` after;
    * registered wrappers describe themselves through :meth:`capabilities`
      and are not persistable as one payload (``to_payload`` and
      ``from_payload`` raise, naming ``_rewrap``).

    Subclasses set ``dataset``, ``oracle`` and ``inner`` (or override
    :attr:`primary`) in ``__init__``.
    """

    name: str
    #: How to wrap a loaded engine again, quoted by the not-persistable errors.
    _rewrap: str

    @property
    def primary(self) -> Any:
        """The engine wrapped calls forward to."""
        return self.inner

    # -- offline phase ------------------------------------------------- #
    def preprocess(
        self, dataset: Dataset | None = None, oracle: FairnessOracle | None = None
    ) -> "EngineWrapper":
        """Run the wrapped offline phase (optionally rebinding dataset/oracle first)."""
        if dataset is not None:
            self.dataset = dataset
        if oracle is not None:
            self.oracle = oracle
        self._preprocess_inner(dataset, oracle)
        return self

    def _preprocess_inner(
        self, dataset: Dataset | None, oracle: FairnessOracle | None
    ) -> None:
        self.primary.preprocess(dataset, oracle)

    @property
    def is_preprocessed(self) -> bool:
        return self.primary.is_preprocessed

    @property
    def index(self) -> Any:
        return self.primary.index

    @property
    def preprocessing_dataset(self) -> Dataset:
        return self.primary.preprocessing_dataset

    @property
    def journal(self) -> tuple[DatasetDelta, ...]:
        return self.primary.journal

    @property
    def base_payload(self) -> dict[str, Any] | None:
        return self.primary.base_payload

    # -- online phase --------------------------------------------------- #
    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return self.primary.suggest(function)

    def suggest_many(self, weights_matrix: Any) -> list:
        return self.primary.suggest_many(weights_matrix)

    _as_matrix = _EngineBase._as_matrix

    # -- maintenance ---------------------------------------------------- #
    def apply_delta(self, delta: DatasetDelta) -> MaintenanceReport:
        report = self.primary.apply_delta(delta)
        self.dataset = self.primary.dataset
        return report

    def refresh(self) -> MaintenanceReport:
        report = self.primary.refresh()
        self.dataset = self.primary.dataset
        return report

    # -- capabilities and persistence ----------------------------------- #
    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name=cls.name,
            exact=False,
            min_attributes=2,
            max_attributes=None,
            batched=True,
            persistable=False,
        )

    def to_payload(self) -> dict[str, Any]:
        raise ConfigurationError(self._not_persistable())

    @classmethod
    def from_payload(cls, payload: dict[str, Any], oracle: FairnessOracle) -> "EngineWrapper":
        raise ConfigurationError(cls._not_persistable())

    @classmethod
    def _not_persistable(cls) -> str:
        return (
            f"{cls.__name__} is a serving-layer wrapper and is not persistable "
            "as one payload; save the wrapped engine and wrap it again after "
            f"loading with {cls._rewrap}"
        )


# --------------------------------------------------------------------------- #
# the three pipeline engines
# --------------------------------------------------------------------------- #
@register_engine("2d", TwoDConfig)
class TwoDEngine(_EngineBase):
    """The §3 pipeline: ``2DRAYSWEEP`` offline, ``2DONLINE`` online."""

    def _build_index(self, working: Dataset) -> TwoDIndex:
        base_builder = build_exchange_angles_2d
        if self.config.preprocess_workers > 1:
            from repro.parallel.preprocess import make_parallel_exchange_builder

            base_builder = make_parallel_exchange_builder(
                self.config.preprocess_workers
            )
        # Capture the exchange triples the sweep consumed: they are the
        # oracle-free geometry apply_delta() maintains incrementally.
        captured: dict[str, list[tuple[float, int, int]]] = {}

        def capturing_builder(dataset: Dataset) -> list[tuple[float, int, int]]:
            triples = list(base_builder(dataset))
            captured["triples"] = triples
            return triples

        index = TwoDRaySweep(
            working,
            self.oracle,
            use_incremental=self.config.use_incremental,
            exchange_builder=capturing_builder,
        ).run()
        self._exchange_triples: list[tuple[float, int, int]] | None = sorted(
            captured["triples"]
        )
        return index

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        return (
            self.config.sample_size is None
            and getattr(self, "_exchange_triples", None) is not None
        )

    def _apply_delta_incremental(self, delta: DatasetDelta, mutated: Dataset) -> dict[str, Any]:
        """Re-sweep only the exchange pairs touching changed items.

        Pairs between untouched items keep their exchange angles verbatim
        (eligibility and angle are functions of the two score rows alone);
        pairs touching an updated, deleted or inserted item are dropped and
        re-derived with the same vectorised kernels the full build uses, so
        the merged triple set — and therefore the re-run sweep — is
        bit-identical to a from-scratch build on the mutated dataset.
        """
        mapping = delta.index_map(self.dataset.n_items)
        touched = delta.touched_new_indices(self.dataset.n_items, mutated.n_items)
        retained: list[tuple[float, int, int]] = []
        for angle, i, j in self._exchange_triples:
            new_i = mapping.get(i)
            new_j = mapping.get(j)
            if new_i is None or new_j is None or new_i in touched or new_j in touched:
                continue
            retained.append((angle, new_i, new_j))
        pairs = exchange_pairs_touching(mutated.scores, touched)
        fresh = exchange_angles_for_pairs(mutated.scores, pairs)
        merged = sorted(retained + fresh)
        self.dataset = mutated
        self._preprocessing_dataset = mutated
        self._index = TwoDRaySweep(
            mutated,
            self.oracle,
            use_incremental=self.config.use_incremental,
            exchange_builder=lambda dataset: list(merged),
        ).run()
        self._exchange_triples = merged
        return {
            "n_retained_exchanges": len(retained),
            "n_fresh_exchanges": len(fresh),
        }

    def _refresh_index(self) -> None:
        triples = getattr(self, "_exchange_triples", None)
        if triples is None:
            super()._refresh_index()
            return
        self._index = TwoDRaySweep(
            self.preprocessing_dataset,
            self.oracle,
            use_incremental=self.config.use_incremental,
            exchange_builder=lambda dataset: list(triples),
        ).run()

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return self.index.query(function)

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[SuggestionResult]:
        """Batched ``2DONLINE``: one ``searchsorted`` classifies the whole batch."""
        return self.index.query_many(self._as_matrix(weights_matrix))

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name="2d", exact=True, min_attributes=2, max_attributes=2, batched=True
        )

    def _index_to_dict(self) -> dict[str, Any]:
        from repro.io.index_store import two_d_index_to_dict

        return two_d_index_to_dict(self.index)

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> TwoDIndex:
        from repro.io.index_store import two_d_index_from_dict

        return two_d_index_from_dict(payload)


@register_engine("exact", ExactConfig)
class ExactEngine(_EngineBase):
    """The §4 pipeline: ``SATREGIONS`` offline, ``MDBASELINE`` online."""

    def _build_index(self, working: Dataset) -> MDExactIndex:
        builder = SatRegions(
            working,
            self.oracle,
            use_arrangement_tree=self.config.use_arrangement_tree,
            max_hyperplanes=self.config.max_hyperplanes,
            convex_layer_k=self.config.convex_layer_k,
            hyperplane_method=self.config.hyperplane_method,
            preprocess_workers=self.config.preprocess_workers,
        )
        index = builder.run()
        # Cache the canonical hyperplane list and the arrangement tree: an
        # insert-only delta extends the tree instead of rebuilding it.
        self._exact_hyperplanes = builder.hyperplanes_
        self._exact_tree = builder.tree_
        return index

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        # The arrangement tree is cached across *insertions* only: deletes and
        # updates would have to unsplit interior nodes, so they rebuild.
        return (
            delta.insert_only
            and self.config.sample_size is None
            and self.config.max_hyperplanes is None
            and self.config.convex_layer_k is None
            and self.config.use_arrangement_tree
            and getattr(self, "_exact_tree", None) is not None
            and getattr(self, "_exact_hyperplanes", None) is not None
        )

    def _apply_delta_incremental(self, delta: DatasetDelta, mutated: Dataset) -> dict[str, Any]:
        """Extend the cached arrangement tree with the inserted items' hyperplanes.

        ``SatRegions`` inserts hyperplanes in the canonical ``(j, i)`` label
        order, so every pair touching an appended item — its larger index is
        always ``>= n_before`` — sorts after every existing pair: the fresh
        hyperplanes extend the cached tree exactly as a from-scratch build on
        the mutated dataset would insert them.  Only the (oracle-dependent)
        region evaluation re-runs in full.
        """
        touched = delta.touched_new_indices(self.dataset.n_items, mutated.n_items)
        pairs = exchange_pairs_touching(mutated.scores, touched)
        fresh = hyperpolar_many(mutated.scores, pairs) if pairs.shape[0] else []
        fresh.sort(key=lambda plane: (plane.label[1], plane.label[0]))
        tree = self._exact_tree
        for plane in fresh:
            tree.insert(plane)
        merged = list(self._exact_hyperplanes) + fresh
        self.dataset = mutated
        self._preprocessing_dataset = mutated
        self._index = SatRegions(
            mutated,
            self.oracle,
            use_arrangement_tree=True,
            hyperplane_method=self.config.hyperplane_method,
            preprocess_workers=self.config.preprocess_workers,
        ).evaluate_tree(tree, n_hyperplanes=len(merged))
        self._exact_hyperplanes = merged
        return {
            "n_cached_hyperplanes": len(merged) - len(fresh),
            "n_fresh_hyperplanes": len(fresh),
        }

    def _refresh_index(self) -> None:
        tree = getattr(self, "_exact_tree", None)
        hyperplanes = getattr(self, "_exact_hyperplanes", None)
        if tree is None or hyperplanes is None:
            super()._refresh_index()
            return
        self._index = SatRegions(
            self.preprocessing_dataset,
            self.oracle,
            use_arrangement_tree=True,
            hyperplane_method=self.config.hyperplane_method,
            preprocess_workers=self.config.preprocess_workers,
        ).evaluate_tree(tree, n_hyperplanes=len(hyperplanes))

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return md_baseline(self.preprocessing_dataset, self.oracle, self.index, function)

    # suggest_many inherits the reference loop: each MDBASELINE answer solves
    # one constrained minimisation per satisfactory region, so there is no
    # shared work to batch — the per-query solves dominate end to end.

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name="exact", exact=True, min_attributes=3, max_attributes=None, batched=False
        )

    def _index_to_dict(self) -> dict[str, Any]:
        from repro.io.index_store import exact_index_to_dict

        return exact_index_to_dict(self.index)

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> MDExactIndex:
        from repro.io.index_store import exact_index_from_dict

        return exact_index_from_dict(payload)


@register_engine("approximate", ApproxConfig)
class ApproxEngine(_EngineBase):
    """The §5 grid pipeline: cell marking/colouring offline, ``MDONLINE`` online."""

    #: Queries whose cells are located per vectorised batch in ``suggest_many``.
    lookup_chunk_size = 1024

    def _build_index(self, working: Dataset) -> MDApproxIndex:
        preprocessor = ApproximatePreprocessor(
            working,
            self.oracle,
            n_cells=self.config.n_cells,
            partition=self.config.partition,
            max_hyperplanes=self.config.max_hyperplanes,
            convex_layer_k=self.config.convex_layer_k,
            hyperplane_method=self.config.hyperplane_method,
            preprocess_workers=self.config.preprocess_workers,
        )
        index = preprocessor.run()
        # Cache the oracle-free geometry apply_delta() maintains: the full
        # hyperplane list and the CELLPLANE× assignment.
        self._approx_hyperplanes = preprocessor.hyperplanes_
        self._approx_cell_plane_index = index.cell_plane_index
        return index

    def _supports_incremental(self, delta: DatasetDelta) -> bool:
        # Convex-layer filtering and hyperplane caps make the retained-plane
        # computation unsound (see maintain_hyperplanes), so either rebuilds.
        return (
            self.config.sample_size is None
            and self.config.max_hyperplanes is None
            and self.config.convex_layer_k is None
            and getattr(self, "_approx_hyperplanes", None) is not None
            and getattr(self, "_approx_cell_plane_index", None) is not None
        )

    def _apply_delta_incremental(self, delta: DatasetDelta, mutated: Dataset) -> dict[str, Any]:
        """Re-assign only the cells whose hyperplane set changed.

        The hyperplane list is maintained by
        :func:`~repro.core.maintenance.maintain_hyperplanes` (drop the planes
        touching changed items, construct only the fresh pairs' planes, merge
        in canonical order); the ``CELLPLANE×`` index then re-assigns only the
        fresh planes geometrically, remapping every retained plane's cell
        memberships in place.  Marking and colouring — the oracle-dependent
        stages — re-run in full on the maintained geometry, producing an index
        bit-identical to a from-scratch build on the mutated dataset.
        """
        merged, position_map, fresh_positions = maintain_hyperplanes(
            self._approx_hyperplanes, delta, mutated.scores, self.dataset.n_items
        )
        preprocessor = ApproximatePreprocessor(
            mutated,
            self.oracle,
            n_cells=self.config.n_cells,
            partition=self.config.partition,
            hyperplane_method=self.config.hyperplane_method,
            preprocess_workers=self.config.preprocess_workers,
        )
        cell_plane_index = merged_cell_plane_index(
            preprocessor.partition,
            self._approx_cell_plane_index,
            position_map,
            [merged[position] for position in fresh_positions],
            fresh_positions,
        )
        self.dataset = mutated
        self._preprocessing_dataset = mutated
        self._index = preprocessor.run(
            hyperplanes=merged, cell_plane_index=cell_plane_index
        )
        self._approx_hyperplanes = merged
        self._approx_cell_plane_index = cell_plane_index
        return {
            "n_retained_hyperplanes": len(position_map),
            "n_fresh_hyperplanes": len(fresh_positions),
        }

    def _refresh_index(self) -> None:
        hyperplanes = getattr(self, "_approx_hyperplanes", None)
        cell_plane_index = getattr(self, "_approx_cell_plane_index", None)
        if hyperplanes is None or cell_plane_index is None:
            super()._refresh_index()
            return
        preprocessor = ApproximatePreprocessor(
            self.preprocessing_dataset,
            self.oracle,
            n_cells=self.config.n_cells,
            partition=self.config.partition,
            hyperplane_method=self.config.hyperplane_method,
            preprocess_workers=self.config.preprocess_workers,
        )
        self._index = preprocessor.run(
            hyperplanes=list(hyperplanes), cell_plane_index=cell_plane_index
        )

    def suggest(self, function: LinearScoringFunction) -> SuggestionResult:
        return md_online(self.index, function)

    def suggest_many(
        self, weights_matrix: np.ndarray | Sequence[Sequence[float]]
    ) -> list[SuggestionResult]:
        """Batched ``MDONLINE``: batched oracle pre-check, chunked cell lookups.

        Line 1 of Algorithm 11 (is the query itself satisfactory?) goes to the
        oracle as one batch: when the oracle supports the batched protocol
        (:func:`repro.fairness.batched.as_batched`), the whole weight matrix
        is ordered with one stacked matmul + argsort
        (:func:`repro.ranking.scoring.order_many`) and judged with one
        ``is_satisfactory_many`` — bit-identical verdicts to the per-query
        calls ``md_online`` makes, which remain the fallback for black-box
        oracles.  The index part — locating each remaining query's cell — is
        done in vectorised chunks over the partition, with the
        nearest-assigned fallback answered from the index's cached assigned
        stack.  Results are bit-identical to looping :meth:`suggest`.
        """
        matrix = self._as_matrix(weights_matrix)
        index = self.index
        if not index.assigned_angles:
            raise NotPreprocessedError(
                "run ApproximatePreprocessor before issuing online queries"
            )
        # One vectorised validation pass covers the whole batch, so function
        # construction can use the trusted constructor; rows that would fail
        # validation go through the normal constructor and raise exactly what
        # the scalar path raises.
        trusted = bool(
            np.all(np.isfinite(matrix))
            and not np.any(matrix < 0)
            and np.all(np.any(matrix > 0, axis=1))
        )
        make_function = (
            LinearScoringFunction._from_trusted if trusted else LinearScoringFunction
        )
        functions = [make_function(tuple(row)) for row in matrix.tolist()]
        satisfactory = evaluate_functions_many(
            index.oracle, index.dataset, functions, weight_matrix=matrix
        )
        results: list[SuggestionResult | None] = [None] * matrix.shape[0]
        for position in np.flatnonzero(satisfactory).tolist():
            function = functions[position]
            results[position] = SuggestionResult(function, True, function, 0.0)
        pending = np.flatnonzero(~satisfactory)
        if pending.size == 0:
            return results  # type: ignore[return-value]
        if not index.has_satisfactory_function:
            raise NoSatisfactoryFunctionError(
                "no scoring function satisfies the fairness constraint on this dataset"
            )
        # Vectorised Algorithm 11 tail, bit-identical step for step to
        # md_online_lookup: angles via the batched to_angles kernel, radii via
        # the same dot+sqrt the scalar norm computes, cell location in chunks,
        # and distances from stacked per-row dot products finished with the
        # scalar math.acos (np.arccos rounds differently on ~9% of inputs).
        pending_weights = matrix[pending]
        angle_matrix = to_angles_many(pending_weights)
        radii = np.sqrt(
            np.matmul(pending_weights[:, None, :], pending_weights[:, :, None])[:, 0, 0]
        )
        located = np.empty(pending.size, dtype=int)
        chunk = self.lookup_chunk_size
        for start in range(0, pending.size, chunk):
            located[start : start + chunk] = locate_cells(
                index.partition, angle_matrix[start : start + chunk]
            )
        # Map each located cell to its row in the index's assigned stack; the
        # cells the colouring could not reach take the nearest-assigned
        # fallback, exactly as md_online_lookup does.
        stack_cells, stack_weights, stack_norms = index._assigned_stack()
        stack_position_of_cell = np.full(index.n_cells, -1, dtype=int)
        stack_position_of_cell[stack_cells] = np.arange(stack_cells.size)
        stack_positions = stack_position_of_cell[located]
        for row in np.flatnonzero(stack_positions < 0).tolist():
            stack_positions[row] = index._nearest_assigned_position(angle_matrix[row])
        assigned_rows = stack_weights[stack_positions]
        # Scalar reference: angular_distance(to_weights(query), to_weights(assigned)).
        query_units = np.stack([to_weights(row) for row in angle_matrix])
        query_norms = np.sqrt(
            np.matmul(query_units[:, None, :], query_units[:, :, None])[:, 0, 0]
        )
        dots = np.matmul(query_units[:, None, :], assigned_rows[:, :, None])[:, 0, 0]
        cosines = np.clip(dots / (query_norms * stack_norms[stack_positions]), -1.0, 1.0)
        # to_weights(assigned, radius) is radius * to_weights(assigned): the
        # stacked unit rows scale to the suggestion weights elementwise.
        suggestion_rows = (assigned_rows * radii[:, None]).tolist()
        acos = math.acos
        for row, position in enumerate(pending.tolist()):
            suggestion = make_function(tuple(suggestion_rows[row]))
            results[position] = SuggestionResult(
                functions[position], False, suggestion, acos(cosines[row])
            )
        return results  # type: ignore[return-value]

    @classmethod
    def capabilities(cls) -> EngineCapabilities:
        return EngineCapabilities(
            name="approximate", exact=False, min_attributes=3, max_attributes=None, batched=True
        )

    def _index_to_dict(self) -> dict[str, Any]:
        from repro.io.index_store import approx_index_to_dict

        # The preprocessing dataset is stored once at the engine level; no
        # need to embed a second copy inside the index payload.
        return approx_index_to_dict(self.index, include_dataset=False)

    def _index_from_dict(
        self, payload: dict[str, Any], dataset: Dataset, oracle: FairnessOracle
    ) -> MDApproxIndex:
        from repro.io.index_store import approx_index_from_dict

        return approx_index_from_dict(payload, oracle=oracle, dataset=dataset)
