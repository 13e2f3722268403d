"""Buffer pool pages (stripe blocks resident in server memory)."""

from __future__ import annotations

import math
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.storage.request import DiskRequest

#: A page is identified by the (video, stripe block) pair it holds.
PageKey = typing.Tuple[int, int]


class Page:
    """One stripe block in the buffer pool.

    Pages hash and compare by identity (the replacement chains key on
    them), so the class defines no ``__eq__``.

    Pages are *pinned* while an I/O is loading them or a reply is being
    sent; pinned pages cannot be evicted.  ``io_event`` is set while the
    disk read is in flight so later requests for the same block merge
    onto one I/O instead of issuing a duplicate.
    """

    __slots__ = (
        "key",
        "size",
        "pins",
        "io_event",
        "disk_request",
        "deadline_hint",
        "is_prefetched",
        "loaded_by_prefetch",
        "first_referrer",
        "shared",
    )

    def __init__(self, key: PageKey, size: int) -> None:
        self.key = key
        self.size = size
        self.pins = 0
        self.io_event: Event | None = None
        self.disk_request: "DiskRequest | None" = None
        #: Tightest deadline requested by anyone merged onto this
        #: page's I/O; applied when/if the disk request is created (a
        #: merge can arrive before the original misser reaches the
        #: disk).
        self.deadline_hint = math.inf
        #: True while the page sits on the prefetched chain (loaded by a
        #: prefetch and not yet referenced by any terminal).
        self.is_prefetched = False
        #: How the page entered the pool (for wasted-prefetch stats).
        self.loaded_by_prefetch = False
        #: The first terminal to reference this page while resident, and
        #: whether any other terminal has referenced it since.
        self.first_referrer: int | None = None
        self.shared = False

    @property
    def in_flight(self) -> bool:
        return self.io_event is not None

    @property
    def evictable(self) -> bool:
        return self.pins == 0 and self.io_event is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.in_flight:
            flags.append("io")
        if self.is_prefetched:
            flags.append("prefetched")
        return f"<Page {self.key} pins={self.pins} {'|'.join(flags)}>"
