"""Fixture: a registered engine inherits apply_delta from an unregistered
base (not the pipeline engines' ``_EngineBase``) and no differential harness
fixture entry names it — the inherited implementation ships unproven."""

from repro.core.engine import register_engine


class StubConfig:
    pass


class DelegatingBase:
    def apply_delta(self, delta):
        return None


@register_engine("fixture-inherited-delta-engine", StubConfig)
class InheritedDeltaEngine(DelegatingBase):
    pass
