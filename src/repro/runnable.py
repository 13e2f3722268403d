"""The runnable-config registry: one ``run()`` for every config type.

``run_simulation`` takes a :class:`~repro.core.config.SpiffiConfig`
and ``run_cluster`` a :class:`~repro.cluster.config.ClusterConfig`;
the experiment runner and the run cache drive both, and any third
config type, through a single registry:

* :func:`register_runnable` — declare how a config type executes and
  how it canonicalises for the run cache (usually
  :func:`repro.schema.canonical_form`).  Called once, at import time,
  in the module that *defines* the config class, so any context that
  can unpickle a config (notably process-pool workers) has its entry
  registered as a side effect of the unpickle import.
* :func:`run` — the one public entry point: ``run(config)`` executes
  any registered config and returns its :class:`RunMetrics`.

The registry maps *exact* types (then falls back to subclass matches)
so a registered subclass can override its parent's executor.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import RunMetrics


@typing.runtime_checkable
class RunnableConfig(typing.Protocol):
    """What every executable config must provide.

    Structural, not nominal: anything with a seed, a measurement
    window, and the frozen-dataclass ``replace``/``describe`` surface
    can be registered and driven through :func:`run`, the experiment
    runner, and the run cache.
    """

    seed: int

    @property
    def measure_s(self) -> float: ...

    def replace(self, **changes) -> "RunnableConfig": ...

    def describe(self) -> str: ...


@dataclasses.dataclass(frozen=True)
class RunnableEntry:
    """How one config type executes and canonicalises."""

    #: Short human name ("system", "cluster"), for error messages.
    kind: str
    config_type: type
    #: ``run(config) -> RunMetrics`` — the executor.
    run: typing.Callable[[typing.Any], "RunMetrics"]
    #: ``cache_dict(config) -> dict`` — canonical form for digests.
    cache_dict: typing.Callable[[typing.Any], dict]


_REGISTRY: dict[type, RunnableEntry] = {}


def register_runnable(
    config_type: type,
    *,
    kind: str,
    run: typing.Callable[[typing.Any], "RunMetrics"],
    cache_dict: typing.Callable[[typing.Any], dict],
) -> None:
    """Register *config_type* as executable through :func:`run`.

    Re-registering the same type replaces its entry (idempotent module
    reloads; tests swapping a stub executor in and out).
    """
    if not isinstance(config_type, type):
        raise TypeError(f"config_type must be a class, got {config_type!r}")
    if not kind:
        raise ValueError("kind must be a non-empty string")
    _REGISTRY[config_type] = RunnableEntry(
        kind=kind, config_type=config_type, run=run, cache_dict=cache_dict
    )


def runnable_kinds() -> tuple[str, ...]:
    """Registered config kinds, sorted (for error messages and docs)."""
    return tuple(sorted(entry.kind for entry in _REGISTRY.values()))


def runnable_entry(config: RunnableConfig) -> RunnableEntry:
    """The registry entry for *config* (exact type, then subclass)."""
    entry = _REGISTRY.get(type(config))
    if entry is not None:
        return entry
    for registered, candidate in _REGISTRY.items():
        if isinstance(config, registered):
            return candidate
    raise TypeError(
        f"{type(config).__name__} is not a registered runnable config "
        f"(registered kinds: {', '.join(runnable_kinds()) or 'none'}); "
        "declare it with repro.api.register_runnable"
    )


def run(config: RunnableConfig) -> "RunMetrics":
    """Execute any registered config and return its metrics.

    The single front door: dispatches ``SpiffiConfig`` to the
    standalone system, ``ClusterConfig`` to the cluster, and any
    user-registered config to its declared executor.
    """
    return runnable_entry(config).run(config)
