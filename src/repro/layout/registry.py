"""Layout construction from a declarative, registry-backed spec.

``LayoutSpec`` mirrors :class:`repro.sched.registry.SchedulerSpec`: the
name selects a registered factory, and third-party layouts plug in via
:func:`register_layout` without touching ``repro.core.system``::

    from repro.layout import LayoutSpec, register_layout

    register_layout("my_layout", build_my_layout)
    config = SpiffiConfig(layout=LayoutSpec("my_layout"))

Factories receive everything system assembly knows about placement:
per-video block counts, the hardware shape, the stripe block size, and
a dedicated random stream (ignored by deterministic layouts).

Layouts registered with ``replicated=True`` additionally receive the
config's replication factor as a sixth argument and must implement the
replica interface on :class:`~repro.layout.base.Layout`
(``replica_placements`` / ``copies_on_disk``).  Selecting a
single-copy layout with a replication factor above 1 is a config-time
error.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.layout.base import Layout
from repro.layout.nonstriped import NonStripedLayout
from repro.layout.striped import StripedLayout
from repro.registry import Registry

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RandomSource

#: ``factory(block_counts, nodes, disks_per_node, block_size, rng)``;
#: replicated factories take a trailing ``replication_factor``.
LayoutFactory = typing.Callable[..., Layout]

#: name -> ``(factory, replicated)``.
LAYOUTS: Registry[tuple[LayoutFactory, bool]] = Registry("layout")


def register_layout(
    name: str, factory: LayoutFactory, *, replicated: bool = False
) -> None:
    """Make *name* selectable via ``LayoutSpec(name)``.

    With ``replicated=True`` the factory is called with an extra
    ``replication_factor`` argument and may be combined with
    ``ReplicationSpec(factor > 1)``.
    """
    LAYOUTS.register(name, (factory, replicated))


layout_names = LAYOUTS.names


def replicated_layout_names() -> tuple[str, ...]:
    """Layout names that support a replication factor above 1."""
    return tuple(
        name for name, (_, replicated) in LAYOUTS.entries.items() if replicated
    )


@dataclasses.dataclass(frozen=True)
class LayoutSpec:
    """Which file layout maps video blocks to disks."""

    name: str = "striped"

    def __post_init__(self) -> None:
        LAYOUTS.lookup(self.name)

    def build(
        self,
        block_counts: list[int],
        nodes: int,
        disks_per_node: int,
        block_size: int,
        rng: "RandomSource",
        replication_factor: int = 1,
    ) -> Layout:
        """A layout instance for one assembled system."""
        factory, replicated = LAYOUTS.lookup(self.name)
        if replicated:
            return factory(
                block_counts, nodes, disks_per_node, block_size, rng,
                replication_factor,
            )
        if replication_factor > 1:
            raise ValueError(
                f"layout {self.name!r} stores a single copy; a replication "
                f"factor of {replication_factor} needs one of "
                f"{replicated_layout_names()}"
            )
        return factory(block_counts, nodes, disks_per_node, block_size, rng)

    def label(self) -> str:
        return self.name.replace("_", "-")


register_layout(
    "striped",
    lambda counts, nodes, disks, block_size, rng: StripedLayout(
        counts, nodes, disks, block_size
    ),
)
register_layout(
    "nonstriped",
    lambda counts, nodes, disks, block_size, rng: NonStripedLayout(
        counts, nodes, disks, block_size, rng
    ),
)


def _build_mirrored(counts, nodes, disks, block_size, rng, factor):
    from repro.replication.layouts import ReplicatedStripedLayout

    disk_count = nodes * disks
    if factor > 1 and disk_count % factor != 0:
        raise ValueError(
            f"mirrored striping needs the disk count ({disk_count}) to be "
            f"divisible by the replication factor ({factor})"
        )
    step = disk_count // factor if factor > 1 else 1
    return ReplicatedStripedLayout(counts, nodes, disks, block_size, factor, step)


def _build_chained(counts, nodes, disks, block_size, rng, factor):
    from repro.replication.layouts import ReplicatedStripedLayout

    return ReplicatedStripedLayout(counts, nodes, disks, block_size, factor, 1)


register_layout("mirrored", _build_mirrored, replicated=True)
register_layout("chained", _build_chained, replicated=True)
