"""Page replacement policies: global LRU and love prefetch (§5.2.1).

Each LRU chain is a plain dict keyed by the page itself (pages hash by
identity), its value unused: insertion order is LRU order, and moving a
page to the end is a delete plus a reinsert.
"""

from __future__ import annotations

from repro.bufferpool.page import Page


class ReplacementPolicy:
    """Maintains replacement ordering; the pool owns the page table."""

    name = "base"

    def on_insert(self, page: Page, prefetched: bool) -> None:
        """A page entered the pool (freshly read or prefetched)."""
        raise NotImplementedError

    def on_reference(self, page: Page) -> None:
        """A terminal referenced a resident page."""
        raise NotImplementedError

    def on_evict(self, page: Page) -> None:
        """The pool evicted *page*; forget it."""
        raise NotImplementedError

    def victim(self, exclude_prefetched: bool = False) -> Page | None:
        """The first evictable page in policy order, or None.

        ``exclude_prefetched`` restricts the choice to pages that are
        not awaiting their first reference — used by prefetch
        allocations, which must never cannibalise other prefetched
        data (doing so only converts one wasted I/O into another).
        """
        raise NotImplementedError


class GlobalLru(ReplacementPolicy):
    """A single LRU queue that does not distinguish prefetched pages.

    "Simply places newly referenced pages onto the end of a single
    queue.  When a new page is needed, the buffer pool searches for the
    first available page starting from the head of the queue."
    """

    name = "global_lru"

    def __init__(self) -> None:
        self._queue: dict[Page, None] = {}

    def on_insert(self, page: Page, prefetched: bool) -> None:
        page.is_prefetched = prefetched
        self._queue[page] = None

    def on_reference(self, page: Page) -> None:
        page.is_prefetched = False
        queue = self._queue
        del queue[page]
        queue[page] = None

    def on_evict(self, page: Page) -> None:
        del self._queue[page]

    def victim(self, exclude_prefetched: bool = False) -> Page | None:
        for page in self._queue:
            if page.evictable and not (exclude_prefetched and page.is_prefetched):
                return page
        return None


class LovePrefetch(ReplacementPolicy):
    """Two LRU chains favouring prefetched pages over referenced ones.

    Prefetched pages start on the prefetched chain and move to the
    referenced chain on first reference.  Victims come from the
    referenced chain first; only when it has no available page is a
    prefetched page sacrificed — protecting prefetched-but-not-yet-used
    data, which is the only data in a video server likely to be read
    from memory at all (§5.2.1, after [Teng84]).
    """

    name = "love_prefetch"

    def __init__(self) -> None:
        self._prefetched: dict[Page, None] = {}
        self._referenced: dict[Page, None] = {}

    def on_insert(self, page: Page, prefetched: bool) -> None:
        page.is_prefetched = prefetched
        chain = self._prefetched if prefetched else self._referenced
        chain[page] = None

    def on_reference(self, page: Page) -> None:
        if page.is_prefetched:
            page.is_prefetched = False
            del self._prefetched[page]
        else:
            del self._referenced[page]
        self._referenced[page] = None

    def on_evict(self, page: Page) -> None:
        chain = self._prefetched if page.is_prefetched else self._referenced
        del chain[page]

    def victim(self, exclude_prefetched: bool = False) -> Page | None:
        for page in self._referenced:
            if page.evictable:
                return page
        if exclude_prefetched:
            return None
        for page in self._prefetched:
            if page.evictable:
                return page
        return None

