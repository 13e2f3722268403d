"""The per-node buffer pool with in-flight I/O merging (§5.2.1).

The pool's job during a read:

* **hit** — the block is resident and loaded: pin and return it;
* **in-flight hit** — a read (usually a prefetch) for the block is
  already on its way to the disk: merge onto it instead of issuing a
  duplicate I/O (the caller may tighten the queued request's deadline);
* **miss** — allocate a frame (waiting, if every page is pinned, which
  is what "the server began to run out of free pages" looks like) and
  let the caller perform the read.
"""

from __future__ import annotations

import typing

from repro.bufferpool.page import Page, PageKey
from repro.bufferpool.policies import ReplacementPolicy
from repro.sim.environment import Environment
from repro.sim.resources import Gate

#: Outcomes of :meth:`BufferPool.acquire`.
HIT = "hit"
INFLIGHT = "inflight"
MISS = "miss"


class PoolStats:
    """Reference-stream statistics (drives Figures 11, 12, 16)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.references = 0
        self.hits = 0
        self.inflight_hits = 0
        self.misses = 0
        self.rereferences = 0
        self.prefetch_inserts = 0
        self.wasted_prefetches = 0
        self.dropped_prefetches = 0
        self.evictions = 0
        self.allocation_waits = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.references if self.references else 0.0

    @property
    def rereference_rate(self) -> float:
        return self.rereferences / self.references if self.references else 0.0


class BufferPool:
    def __init__(
        self,
        env: Environment,
        capacity_pages: int,
        policy: ReplacementPolicy,
        prefetch_pool_share: float = 1.0,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError(f"need >= 1 page, got {capacity_pages}")
        if not 0.0 < prefetch_pool_share <= 1.0:
            raise ValueError(
                f"prefetch_pool_share must be in (0, 1], got {prefetch_pool_share}"
            )
        self.env = env
        self.capacity_pages = capacity_pages
        self.policy = policy
        #: Largest number of pages that may simultaneously hold
        #: prefetched-but-not-yet-referenced blocks.
        self.prefetch_cap_pages = max(1, int(prefetch_pool_share * capacity_pages))
        #: With a full pool share, prefetching is "unconstrained"
        #: (§7.3): a prefetch allocation may evict whatever the policy
        #: picks — including other prefetched pages.  A limited share
        #: additionally forbids prefetch-on-prefetch cannibalisation.
        self.prefetch_unconstrained = prefetch_pool_share >= 1.0
        self.pages: dict[PageKey, Page] = {}
        self.prefetched_resident = 0
        #: Resident pages with no pin: while zero, no page is evictable
        #: and the victim search is skipped.
        self.unpinned_pages = 0
        self.stats = PoolStats()
        self._page_freed = Gate(env)

    # ------------------------------------------------------------------
    # Lookup / pinning
    # ------------------------------------------------------------------
    def lookup(self, key: PageKey) -> Page | None:
        """Non-binding residence check (used for prefetch dedup)."""
        return self.pages.get(key)

    def pin(self, page: Page) -> None:
        """Take an extra pin on a page already held (or resident).

        Used by the stream-sharing chain registry to keep a
        predecessor's recently fetched pages resident until the chained
        successor consumes them; released with :meth:`unpin`.
        """
        if self.pages.get(page.key) is not page:
            raise ValueError(f"pin of page not in this pool: {page!r}")
        if page.pins == 0:
            self.unpinned_pages -= 1
        page.pins += 1

    def unpin(self, page: Page) -> None:
        if self.pages.get(page.key) is not page:
            raise ValueError(f"unpin of page not in this pool: {page!r}")
        if page.pins <= 0:
            raise ValueError(f"unpin of unpinned page {page!r}")
        page.pins -= 1
        if page.pins == 0:
            self.unpinned_pages += 1
            self._page_freed.open()

    # ------------------------------------------------------------------
    # The acquire protocol
    # ------------------------------------------------------------------
    def acquire(
        self,
        key: PageKey,
        size: int,
        terminal_id: int | None = None,
        for_prefetch: bool = False,
    ) -> typing.Generator:
        """Generator (use with ``yield from``): pin the page for *key*.

        Returns ``(page, status)`` with status ``HIT``/``INFLIGHT``/
        ``MISS``.  On a MISS the page is newly allocated with a fresh,
        untriggered ``io_event``; the caller must perform the disk read,
        then call :meth:`finish_io`.  On INFLIGHT the caller waits on
        ``page.io_event`` (already pinned, so the page cannot vanish).

        Terminal references (``terminal_id is not None``) update the
        reference statistics and the replacement policy; prefetch
        acquires do not count as references.
        """
        if terminal_id is not None:
            self.stats.references += 1
        while True:
            page = self.pages.get(key)
            if page is not None:
                return self._join(page, terminal_id)
            if len(self.pages) < self.capacity_pages:
                break
            victim = self.policy.victim() if self.unpinned_pages else None
            if victim is not None:
                # Evict and re-loop; no simulated time passes, so the
                # frame cannot be stolen before we insert.
                self._evict(victim)
                continue
            # Every page is pinned or loading: wait for one to free.
            # Time passes here, so the residence check must be redone.
            self.stats.allocation_waits += 1
            yield self._page_freed.wait()

        if terminal_id is not None:
            self.stats.misses += 1
        else:
            self.stats.prefetch_inserts += 1
        page = Page(key, size)
        page.pins = 1
        page.loaded_by_prefetch = for_prefetch
        page.io_event = self.env.event()
        page.first_referrer = terminal_id
        self.pages[key] = page
        self.policy.on_insert(page, prefetched=for_prefetch)
        return page, MISS

    def try_acquire_for_prefetch(self, key: PageKey, size: int) -> Page | None:
        """Non-blocking frame allocation for a prefetch read.

        Returns a fresh pinned page with an untriggered ``io_event``
        (the caller performs the read), or None when the block is
        already resident/in flight or no frame can be had without
        evicting another prefetched page.  Prefetching under memory
        pressure is thereby self-throttling: it never blocks a worker
        and never trades one not-yet-used prefetched block for another.
        """
        if key in self.pages:
            return None
        if (
            not self.prefetch_unconstrained
            and self.prefetched_resident >= self.prefetch_cap_pages
        ):
            self.stats.dropped_prefetches += 1
            return None
        if len(self.pages) >= self.capacity_pages:
            victim = (
                self.policy.victim(exclude_prefetched=not self.prefetch_unconstrained)
                if self.unpinned_pages
                else None
            )
            if victim is None:
                self.stats.dropped_prefetches += 1
                return None
            self._evict(victim)
        self.stats.prefetch_inserts += 1
        page = Page(key, size)
        page.pins = 1
        page.loaded_by_prefetch = True
        page.io_event = self.env.event()
        self.pages[key] = page
        self.prefetched_resident += 1
        self.policy.on_insert(page, prefetched=True)
        return page

    def insert_resident(
        self, key: PageKey, size: int, prefetched: bool = False
    ) -> Page | None:
        """Install an already-loaded block without an I/O (pre-loading).

        Used by the proxy tier to stock its pool at construction time:
        the page is born loaded (no ``io_event``) and unpinned, so no
        simulation events are created and no callbacks are scheduled —
        safe before the simulation starts.  Returns None when the block
        is already resident or the pool is full (pre-loading never
        evicts).  ``prefetched`` pages count toward the prefetch
        residency the same way prefetcher-loaded pages do.
        """
        if key in self.pages or len(self.pages) >= self.capacity_pages:
            return None
        page = Page(key, size)
        page.loaded_by_prefetch = prefetched
        self.pages[key] = page
        self.unpinned_pages += 1
        if prefetched:
            self.prefetched_resident += 1
        self.policy.on_insert(page, prefetched=prefetched)
        return page

    def _join(self, page: Page, terminal_id: int | None) -> tuple[Page, str]:
        """Pin an already-resident (or loading) page."""
        if page.pins == 0:
            self.unpinned_pages -= 1
        page.pins += 1
        if terminal_id is not None:
            if page.first_referrer is None:
                page.first_referrer = terminal_id
            elif page.shared or page.first_referrer != terminal_id:
                page.shared = True
                self.stats.rereferences += 1
            if page.is_prefetched:
                self.prefetched_resident -= 1
            self.policy.on_reference(page)
            if page.in_flight:
                self.stats.inflight_hits += 1
            else:
                self.stats.hits += 1
        return page, (INFLIGHT if page.in_flight else HIT)

    def finish_io(self, page: Page) -> None:
        """Mark the page loaded and wake everyone merged onto its I/O."""
        event, page.io_event = page.io_event, None
        page.disk_request = None
        event.succeed(page)
        # Every caller still pins the page, so this frees no frame:
        # woken allocation waiters re-check and, unless their own block
        # became resident, wait again.  Kept because dropping it would
        # reorder those waiters and change the pinned event counts.
        self._page_freed.open()

    def discard_failed(self, page: Page) -> None:
        """Complete a *failed* read (see repro.faults) and drop the page.

        Waiters merged onto the I/O are woken as usual — their reads are
        implicitly failed over by the node — but the page itself must
        not stay resident, or a dead drive would turn into an infinitely
        fast one serving permanent hits.  If merged waiters still pin
        the page it survives until they unpin; the common (prefetch)
        case evicts immediately so the block is re-read when really
        requested.
        """
        self.finish_io(page)
        self.unpin(page)
        if page.evictable:
            self._evict(page)

    def _evict(self, victim: Page) -> None:
        if not victim.evictable:
            raise ValueError(f"evicting non-evictable page {victim!r}")
        self.unpinned_pages -= 1
        if victim.is_prefetched:
            self.prefetched_resident -= 1
        if victim.is_prefetched and victim.loaded_by_prefetch:
            # Prefetched but never referenced: the I/O was wasted and the
            # block will have to be read again when really requested.
            self.stats.wasted_prefetches += 1
        self.stats.evictions += 1
        self.policy.on_evict(victim)
        del self.pages[victim.key]

    @property
    def resident_pages(self) -> int:
        return len(self.pages)

    def reset_stats(self) -> None:
        self.stats.reset()
