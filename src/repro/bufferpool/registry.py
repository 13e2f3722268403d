"""Replacement-policy construction from a registry-backed spec.

``ReplacementSpec`` mirrors :class:`repro.sched.registry.SchedulerSpec`:
the name selects a registered factory, and third-party policies plug in
via :func:`register_replacement` without touching ``repro.core.system``::

    from repro.bufferpool import ReplacementSpec, register_replacement

    register_replacement("clock", ClockPolicy)
    config = SpiffiConfig(replacement_policy=ReplacementSpec("clock"))
"""

from __future__ import annotations

import dataclasses
import typing

from repro.bufferpool.policies import GlobalLru, LovePrefetch, ReplacementPolicy
from repro.registry import Registry

#: ``register_replacement(name, factory)`` makes *name* selectable via
#: ``ReplacementSpec(name)``; ``factory()`` builds a fresh policy.
REPLACEMENT_POLICIES: Registry[typing.Callable[[], ReplacementPolicy]] = Registry(
    "replacement policy"
)
register_replacement = REPLACEMENT_POLICIES.register
replacement_names = REPLACEMENT_POLICIES.names


@dataclasses.dataclass(frozen=True)
class ReplacementSpec:
    """Which page replacement policy each node's buffer pool runs."""

    name: str = "global_lru"

    def __post_init__(self) -> None:
        REPLACEMENT_POLICIES.lookup(self.name)

    def build(self) -> ReplacementPolicy:
        """A fresh policy instance (one per node pool)."""
        return REPLACEMENT_POLICIES.lookup(self.name)()

    def label(self) -> str:
        return self.name.replace("_", "-")


register_replacement("global_lru", GlobalLru)
register_replacement("love_prefetch", LovePrefetch)
