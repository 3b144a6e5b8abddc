"""The contract rules: each one statically enforces an invariant a past PR
established at runtime.

Every rule walks the shared :class:`~repro.analysis.model.ProjectModel` and
yields :class:`~repro.analysis.findings.Finding` records; it never imports or
executes the code under analysis.  See ``docs/static_analysis.md`` for the
rationale behind each rule id and how to suppress a finding.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    dotted_name,
)

__all__ = [
    "Rule",
    "EngineContractRule",
    "OracleBatchParityRule",
    "TypedExceptionsRule",
    "DeterminismRule",
    "ObsClockRule",
    "RegistryHygieneRule",
    "DeltaEquivalenceRule",
    "all_rules",
    "rules_by_id",
    "SYNTAX_ERROR_RULE_ID",
]

#: Pseudo-rule id attached to findings for files that failed to parse.
SYNTAX_ERROR_RULE_ID = "syntax-error"


class Rule(ABC):
    """One statically checkable contract.

    Subclasses set ``rule_id`` (the id used in reports, suppression comments
    and allowlist entries), ``title`` and ``rationale`` (which PR's invariant
    the rule guards), and implement :meth:`check`.
    """

    rule_id: str
    title: str
    rationale: str

    @abstractmethod
    def check(self, model: ProjectModel) -> Iterator[Finding]:
        """Yield one finding per violation found in the model."""

    def _finding(
        self, module: ModuleInfo, line: int, message: str, qualname: str | None = None
    ) -> Finding:
        anchor = f"{module.relpath}::{qualname}" if qualname else module.relpath
        return Finding(
            file=module.relpath,
            line=line,
            rule=self.rule_id,
            message=message,
            anchor=anchor,
        )


# --------------------------------------------------------------------------- #
# engine-contract
# --------------------------------------------------------------------------- #
class EngineContractRule(Rule):
    """Registered engines must implement the full PR-2 seam.

    Every class decorated with ``register_engine`` must define (or inherit
    from a class in the tree) ``preprocess`` / ``suggest`` / ``suggest_many``
    / ``capabilities`` / ``to_payload`` / ``from_payload`` with signatures a
    registry caller can invoke: ``preprocess()`` and ``preprocess(dataset,
    oracle)``, ``suggest(function)``, ``suggest_many(matrix)``,
    ``capabilities()``, ``to_payload()``, and classmethod
    ``from_payload(payload, oracle)``.
    """

    rule_id = "engine-contract"
    title = "registered engines implement the full QueryEngine seam"
    rationale = "PR 2: the unified engine API every facade/serving path dispatches on"

    #: method name -> (positional call arities that must be accepted, must be classmethod)
    _SEAM: dict[str, tuple[tuple[int, ...], bool]] = {
        "preprocess": ((0, 2), False),
        "suggest": ((1,), False),
        "suggest_many": ((1,), False),
        "capabilities": ((0,), False),
        "to_payload": ((0,), False),
        "from_payload": ((2,), True),
    }

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for info in model.classes():
            if info.registered_engine is None:
                continue
            resolved = model.resolved_methods(info)
            for method, (arities, needs_classmethod) in self._SEAM.items():
                if method not in resolved:
                    yield self._finding(
                        info.module,
                        info.lineno,
                        f"engine {info.registered_engine!r} ({info.name}) does not "
                        f"define or inherit {method}(); every registered engine "
                        "must implement the full QueryEngine seam",
                        qualname=info.name,
                    )
                    continue
                function, owner = resolved[method]
                bad_arity = [n for n in arities if not function.accepts(n)]
                if bad_arity:
                    yield self._finding(
                        info.module,
                        function.lineno if owner is info else info.lineno,
                        f"engine {info.registered_engine!r} ({info.name}): "
                        f"{method}() (defined on {owner.name}) cannot be called "
                        f"with {' or '.join(str(n) for n in bad_arity)} positional "
                        "argument(s) as the QueryEngine protocol requires",
                        qualname=f"{info.name}.{method}",
                    )
                if needs_classmethod and not (
                    function.is_classmethod or function.is_staticmethod
                ):
                    yield self._finding(
                        info.module,
                        function.lineno if owner is info else info.lineno,
                        f"engine {info.registered_engine!r} ({info.name}): "
                        f"{method}() must be a classmethod so payload dispatch "
                        "can rebuild the engine without an instance",
                        qualname=f"{info.name}.{method}",
                    )


# --------------------------------------------------------------------------- #
# oracle-batch-parity
# --------------------------------------------------------------------------- #
_FAIRNESS_ORACLE = "repro.fairness.oracle.FairnessOracle"


class OracleBatchParityRule(Rule):
    """Oracles overriding ``is_satisfactory`` must keep the batched path.

    A ``FairnessOracle`` subclass that overrides the scalar verdict without
    implementing (or inheriting) ``is_satisfactory_many`` silently drops out
    of the PR-5 batched protocol: ``suggest_many`` falls back to the per-query
    loop and the scalar/batched bit-parity guarantee has nothing to check.
    Deliberate black-box oracles go on the committed allowlist instead.
    """

    rule_id = "oracle-batch-parity"
    title = "scalar oracle overrides keep a batched twin"
    rationale = "PR 5: scalar/batched bit-parity of the batched oracle protocol"

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for info in model.classes():
            if not model.is_subclass(info, _FAIRNESS_ORACLE):
                continue
            own = info.methods.get("is_satisfactory")
            if own is None or own.is_abstract:
                continue
            if "is_satisfactory_many" in model.resolved_methods(info):
                continue
            yield self._finding(
                info.module,
                own.lineno,
                f"{info.name} overrides is_satisfactory() without an "
                "is_satisfactory_many() batched twin; implement the batched "
                "protocol (see repro.fairness.batched) or add the class to the "
                "black-box allowlist",
                qualname=info.name,
            )


# --------------------------------------------------------------------------- #
# typed-exceptions
# --------------------------------------------------------------------------- #
_BANNED_RAISES = {
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "LookupError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OverflowError",
    "AssertionError",
    "OSError",
    "IOError",
    "NameError",
    "StopIteration",
    "UnicodeError",
}


class TypedExceptionsRule(Rule):
    """Library code raises the typed hierarchy, not bare builtins or asserts.

    ``raise ValueError(...)`` and control-flow ``assert`` make failures
    unclassifiable for callers that guard pipelines with ``except
    ReproError``; PR 6's resilience layer additionally keys retry/fallback
    decisions on the typed hierarchy.  ``NotImplementedError`` (abstract
    stubs) and ``SystemExit`` (CLI entry points) stay legal.
    """

    rule_id = "typed-exceptions"
    title = "no bare builtin raises or control-flow asserts in library code"
    rationale = "PR 6: typed exceptions drive except-ReproError guards and retry policy"

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    target = node.exc
                    if isinstance(target, ast.Call):
                        target = target.func
                    name = dotted_name(target)
                    if name is None:
                        continue
                    resolved = module.resolve(name) or name
                    tail = resolved.split(".")[-1]
                    builtin = resolved == tail or resolved.startswith("builtins.")
                    if builtin and tail in _BANNED_RAISES:
                        yield self._finding(
                            module,
                            node.lineno,
                            f"raise {tail}: library code must raise a typed "
                            "exception from repro.exceptions so callers can "
                            "catch ReproError",
                        )
                elif isinstance(node, ast.Assert):
                    yield self._finding(
                        module,
                        node.lineno,
                        "control-flow assert in library code: asserts vanish "
                        "under -O; raise a typed exception from "
                        "repro.exceptions instead",
                    )


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #
#: numpy.random attributes that are seedable constructors, not global-state draws.
_SAFE_NP_RANDOM = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "default_rng",
}
_WALL_CLOCK_TAILS = {
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
#: Process-pool constructors whose workers inherit ambient state on fork.
_POOL_EXECUTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}


class DeterminismRule(Rule):
    """Serving paths stay deterministic: seeded RNG, injectable clocks.

    Flags unseeded ``np.random.default_rng()``, every legacy global-state
    ``np.random.*`` draw, stdlib ``random.*`` module calls, ``time.time()``
    and ``datetime.now()``-style wall clocks.  Monotonic duration measurement
    (``time.monotonic`` / ``time.perf_counter``) is fine — the PR-6 clock seam
    injects it; wall-clock and hidden RNG state are not reproducible across
    shards or replays.

    Inside the PR-9 parallel modules the rule additionally requires every
    ``ProcessPoolExecutor(...)`` to pass an ``initializer=``: forked workers
    inherit the parent's ambient trace recorder and RNG state, so a pool
    without a worker initializer (which must detach the recorder and derive
    per-shard seeds — see :mod:`repro.parallel.shards`) silently breaks the
    bit-identity guarantee.
    """

    rule_id = "determinism"
    title = "no unseeded RNG or wall-clock access outside approved modules"
    rationale = "PR 1/6: seeded draws and injectable clocks keep serving replayable"

    @staticmethod
    def _parallel_scope(module: ModuleInfo) -> bool:
        if module.module_name == "repro.parallel" or module.module_name.startswith(
            "repro.parallel."
        ):
            return True
        return "parallel" in module.relpath.split("/")

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            in_parallel = self._parallel_scope(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                # Only names that trace back to an import can denote the
                # stdlib/numpy modules; a local variable that happens to be
                # called ``random`` or ``time`` must not fire.
                if name.split(".")[0] not in module.imports:
                    continue
                resolved = module.resolve(name)
                if resolved is None:
                    continue
                if (
                    in_parallel
                    and resolved in _POOL_EXECUTORS
                    and not any(
                        keyword.arg == "initializer" for keyword in node.keywords
                    )
                ):
                    yield self._finding(
                        module,
                        node.lineno,
                        "ProcessPoolExecutor(...) without initializer= in a "
                        "parallel module: forked workers inherit the ambient "
                        "trace recorder and RNG state; pass an initializer that "
                        "calls reset_stage_recorder() and re-seeds from "
                        "derive_shard_seed(...)",
                    )
                message = self._violation(resolved, node)
                if message is not None:
                    yield self._finding(module, node.lineno, message)

    @staticmethod
    def _violation(resolved: str, node: ast.Call) -> str | None:
        parts = resolved.split(".")
        if resolved in ("time.time", "time.time_ns"):
            return (
                f"{resolved}() reads the wall clock; inject a clock (see the "
                "repro.resilience.policy seam) or use time.monotonic for durations"
            )
        if len(parts) >= 2 and tuple(parts[-2:]) in _WALL_CLOCK_TAILS:
            return (
                f"{resolved}() reads the wall clock; pass timestamps in "
                "explicitly so runs are replayable"
            )
        if parts[0] == "numpy" and len(parts) >= 3 and parts[1] == "random":
            tail = parts[2]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    return (
                        "np.random.default_rng() without a seed draws from OS "
                        "entropy; pass an explicit seed or accept an rng parameter"
                    )
                return None
            if tail not in _SAFE_NP_RANDOM:
                return (
                    f"np.random.{tail} uses numpy's hidden global RNG state; "
                    "use a seeded np.random.default_rng(...) generator"
                )
            return None
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random" and (node.args or node.keywords):
                return None
            return (
                f"random.{parts[1]} uses the stdlib's hidden global RNG state; "
                "use a seeded np.random.default_rng(...) generator"
            )
        return None


# --------------------------------------------------------------------------- #
# obs-clock
# --------------------------------------------------------------------------- #
_OBS_PACKAGE = "repro.obs"


class ObsClockRule(Rule):
    """Observability code never reads the process clock directly.

    The PR-8 observability layer promises byte-identical trace exports and
    metrics snapshots under a fake clock, which only holds if every duration
    inside ``repro.obs`` flows through the injected clock seam
    (``repro.clock.monotonic_clock`` passed in, never called as ``time.*``).
    A direct ``import time`` — or any call resolving into the ``time``
    module — inside an ``obs`` package reintroduces untestable wall time.
    """

    rule_id = "obs-clock"
    title = "observability modules use the injected clock seam, never time.*"
    rationale = "PR 8: deterministic traces/metrics need every obs duration injectable"

    @staticmethod
    def _in_scope(module: ModuleInfo) -> bool:
        if module.module_name == _OBS_PACKAGE or module.module_name.startswith(
            _OBS_PACKAGE + "."
        ):
            return True
        return "obs" in module.relpath.split("/")

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            if not self._in_scope(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "time":
                            yield self._finding(
                                module,
                                node.lineno,
                                "import time inside an observability module: "
                                "accept a clock argument (repro.clock) so "
                                "traces and metrics stay replayable under a "
                                "fake clock",
                            )
                elif isinstance(node, ast.ImportFrom):
                    if node.level == 0 and (node.module or "").split(".")[0] == "time":
                        yield self._finding(
                            module,
                            node.lineno,
                            "from time import ... inside an observability "
                            "module: accept a clock argument (repro.clock) "
                            "so traces and metrics stay replayable under a "
                            "fake clock",
                        )
                elif isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name is None or name.split(".")[0] not in module.imports:
                        continue
                    resolved = module.resolve(name)
                    if resolved is not None and (
                        resolved == "time" or resolved.startswith("time.")
                    ):
                        yield self._finding(
                            module,
                            node.lineno,
                            f"{resolved}() called inside an observability "
                            "module: durations must come from the injected "
                            "clock seam (repro.clock), never time.* directly",
                        )


# --------------------------------------------------------------------------- #
# registry-hygiene
# --------------------------------------------------------------------------- #
_REGISTRY_NAMES = {"_ENGINE_REGISTRY", "_CONFIG_TO_NAME"}
_MUTATING_METHODS = {"update", "setdefault", "pop", "popitem", "clear"}
_REGISTRY_HOME = "repro.core.engine"
_REGISTRY_API = "register_engine"


class RegistryHygieneRule(Rule):
    """Engines are registered through the registry API, never by dict surgery.

    Direct writes to ``_ENGINE_REGISTRY`` / ``_CONFIG_TO_NAME`` bypass the
    duplicate-name check and the config↔name pairing that
    ``register_engine`` maintains, so dispatch and payload round-trips
    silently desynchronise.  Only ``register_engine`` itself (in
    ``repro.core.engine``) may mutate the registry dicts.
    """

    rule_id = "registry-hygiene"
    title = "no direct mutation of the engine registry dicts"
    rationale = "PR 2/6: single registration path keeps dispatch and persistence in sync"

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.modules:
            yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        stack: list[str] = []

        def allowed() -> bool:
            return module.module_name == _REGISTRY_HOME and _REGISTRY_API in stack

        def registry_target(node: ast.AST) -> str | None:
            name = dotted_name(node)
            if name is not None and name.split(".")[-1] in _REGISTRY_NAMES:
                return name.split(".")[-1]
            return None

        def visit(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                stack.pop()
                return
            hit: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        hit = registry_target(target.value)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        hit = registry_target(target.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATING_METHODS:
                    hit = registry_target(node.func.value)
            if hit is not None and not allowed():
                yield self._finding(
                    module,
                    node.lineno,
                    f"direct mutation of {hit}: register engines through "
                    "repro.core.engine.register_engine, never by writing to "
                    "the registry dicts",
                )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(module.tree)


# --------------------------------------------------------------------------- #
# delta-equivalence
# --------------------------------------------------------------------------- #
#: Differential harness whose fixture list every ``apply_delta`` override
#: must appear in (path relative to the repo root).
_DELTA_HARNESS_RELPATH = "tests/test_dynamic_equivalence.py"
#: Module-level constant inside the harness naming the exercised engines.
_DELTA_HARNESS_CONSTANT = "DELTA_EXERCISED_ENGINES"
#: The pipeline engines' base, whose ``apply_delta`` the harness proves.
_PIPELINE_ENGINE_BASE = "repro.core.engine._EngineBase"


class DeltaEquivalenceRule(Rule):
    """Every ``apply_delta`` override is pinned by the differential harness.

    The PR-10 maintenance seam promises that applying a delta yields an
    engine bit-identical to a from-scratch rebuild on the mutated dataset.
    The pipeline engines' shared ``_EngineBase.apply_delta`` carries that
    proof via ``tests/test_dynamic_equivalence.py``; any registered engine
    whose resolved ``apply_delta`` comes from anywhere else — defined on the
    class itself or inherited from another base, such as the serving-layer
    ``EngineWrapper`` behind the pool, the instrumented engine and the
    fallback chain — re-implements the promise and so must be named in that
    harness's ``DELTA_EXERCISED_ENGINES`` fixture list, otherwise it ships
    unproven.
    """

    rule_id = "delta-equivalence"
    title = "apply_delta overrides must be exercised by the differential harness"
    rationale = (
        "PR 10: delta maintenance is only trusted because it is proven "
        "bit-identical to a rebuild"
    )

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        overriders = []
        for info in model.classes():
            if info.registered_engine is None:
                continue
            function, owner = model.resolved_methods(info).get("apply_delta", (None, None))
            if owner is not None and owner.qualname != _PIPELINE_ENGINE_BASE:
                lineno = function.lineno if owner is info else info.lineno
                overriders.append((info, owner, lineno))
        if not overriders:
            return
        exercised = self._exercised_engines()
        for info, owner, lineno in overriders:
            source = "overrides" if owner is info else f"inherits from {owner.name}"
            if exercised is None:
                yield self._finding(
                    info.module,
                    lineno,
                    f"engine '{info.registered_engine}' {source} apply_delta "
                    f"but the differential harness ({_DELTA_HARNESS_RELPATH}) "
                    f"or its {_DELTA_HARNESS_CONSTANT} list is missing",
                    qualname=info.qualname,
                )
            elif info.registered_engine not in exercised:
                yield self._finding(
                    info.module,
                    lineno,
                    f"engine '{info.registered_engine}' {source} apply_delta "
                    f"but is not listed in {_DELTA_HARNESS_CONSTANT} of "
                    f"{_DELTA_HARNESS_RELPATH}: add it so the delta-vs-rebuild "
                    "differential covers the override",
                    qualname=info.qualname,
                )

    def _exercised_engines(self) -> frozenset[str] | None:
        """Engine names the harness exercises, or ``None`` when unavailable.

        The harness lives outside the scanned tree (``tests/`` vs
        ``src/repro``), so it is located relative to this file's repo
        checkout and parsed with :mod:`ast` — never imported, per the
        linter's no-execution discipline.
        """
        harness = Path(__file__).resolve().parents[3] / _DELTA_HARNESS_RELPATH
        try:
            tree = ast.parse(harness.read_text(encoding="utf-8"))
        except (OSError, SyntaxError, ValueError):
            return None
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            named = any(
                isinstance(target, ast.Name)
                and target.id == _DELTA_HARNESS_CONSTANT
                for target in targets
            )
            if not named:
                continue
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                names = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
                return frozenset(names)
            return None
        return None


def all_rules() -> tuple[Rule, ...]:
    """One instance of every built-in contract rule, in report order."""
    return (
        EngineContractRule(),
        OracleBatchParityRule(),
        TypedExceptionsRule(),
        DeterminismRule(),
        ObsClockRule(),
        RegistryHygieneRule(),
        DeltaEquivalenceRule(),
    )


def rules_by_id() -> dict[str, Rule]:
    """Map rule id -> rule instance for CLI ``--rule`` selection."""
    return {rule.rule_id: rule for rule in all_rules()}
