"""Single-system execution: the ``SpiffiSystem`` alias and the one-call
``run_simulation`` entry point.

The full assembly lives in :mod:`repro.core.node`: what used to be
``SpiffiSystem`` is now :class:`~repro.core.node.SpiffiNode`, one member
of a (possibly multi-node) installation.  ``SpiffiSystem`` remains the
name for the standalone single-server system — it *is* the node class,
with the standalone defaults — so every existing import and golden
digest is untouched.  Multi-node runs go through
:mod:`repro.cluster` instead.
"""

from __future__ import annotations

from repro.core.config import SpiffiConfig
from repro.core.metrics import RunMetrics
from repro.core.node import ServerFabric, SpiffiNode

#: The standalone single-server system (the historical name).
SpiffiSystem = SpiffiNode

__all__ = [
    "ServerFabric",
    "SpiffiNode",
    "SpiffiSystem",
    "run_simulation",
]


def run_simulation(config: SpiffiConfig) -> RunMetrics:
    """Build and run one standalone simulation.

    A thin type-checked delegate to the unified :func:`repro.api.run`
    entry point, kept for its historical name.
    """
    if not isinstance(config, SpiffiConfig):
        raise TypeError(
            f"run_simulation takes a SpiffiConfig, got "
            f"{type(config).__name__}; use repro.api.run for other "
            "config types"
        )
    from repro.runnable import run

    return run(config)
