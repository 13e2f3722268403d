"""Replication configuration.

``ReplicationSpec`` follows the declarative-spec idiom of the other
component specs: an immutable value object on
:class:`repro.core.config.SpiffiConfig` from which the replicated
layout, the health-driven read routing, and the background rebuild are
all derived deterministically.

The default spec stores a **single copy** (``factor=1``): no replica
placements exist, no health monitor or router is built, and a run is
bit-identical to one on a build without the replication subsystem.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ReplicationSpec:
    """How many copies of every stripe block exist, and how lost copies
    are rebuilt after a permanent disk failure.

    ``factor`` is the total number of copies (1 = unreplicated).  A
    factor above 1 requires a replication-aware layout (``mirrored`` or
    ``chained``); selecting a single-copy layout raises at config time.

    When a disk fails permanently and ``rebuild`` is set, a background
    process re-copies every lost block from a surviving replica onto a
    surviving disk through the real disk model, pacing itself so the
    rebuild moves at most ``rebuild_bandwidth_bytes_per_s`` (read +
    write bytes combined) — the classic foreground/recovery bandwidth
    trade-off.
    """

    #: The suspect cooldown is the constant
    #: :data:`repro.replication.health.SUSPECT_COOLDOWN_S`; its old
    #: default stays in the canonical form so every existing config
    #: digest and run-cache key stays valid.
    schema_constants = {"suspect_cooldown_s": 10.0}

    factor: int = 1
    rebuild: bool = True
    rebuild_bandwidth_bytes_per_s: float = 2_000_000.0

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {self.factor}")
        if self.rebuild_bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"rebuild_bandwidth_bytes_per_s must be positive, "
                f"got {self.rebuild_bandwidth_bytes_per_s}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any replica machinery is built at all."""
        return self.factor > 1

    def label(self) -> str:
        """Human-readable summary used in benchmark tables."""
        if not self.enabled:
            return "r=1"
        text = f"r={self.factor}"
        if not self.rebuild:
            text += " no-rebuild"
        return text
