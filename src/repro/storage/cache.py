"""On-drive read-ahead cache (8 contexts × 128 Kbytes in Table 1).

SCSI drives of the era kept several sequential read-ahead *contexts*:
a read that continues exactly where an earlier read on a live context
left off is satisfied without mechanical positioning.  Because SPIFFI
lays each video's per-disk fragment out contiguously, back-to-back reads
of the same fragment hit a context and skip the seek and rotational
latency.
"""

from __future__ import annotations


class ReadAheadCache:
    """Tracks sequential contexts with LRU replacement."""

    def __init__(self, contexts: int, context_bytes: int) -> None:
        if contexts < 0:
            raise ValueError(f"contexts must be >= 0, got {contexts}")
        if contexts and context_bytes <= 0:
            raise ValueError(f"context size must be positive, got {context_bytes}")
        self.capacity = contexts
        self.context_bytes = context_bytes
        # Context end-offsets in LRU order (front = least recent).
        self._ends: list[int] = []
        self.hits = 0
        self.misses = 0

    def access(self, offset: int, size: int) -> bool:
        """Record a read; returns True when it continues a live context.

        On a hit the context advances to the new end of the read; on a
        miss a new context is (re)established, evicting the least
        recently used one if full.
        """
        if self.capacity == 0:
            return False
        ends = self._ends
        if offset not in ends:
            self.misses += 1
            if len(ends) >= self.capacity:
                ends.pop(0)
            ends.append(offset + size)
            return False
        self.hits += 1
        ends.remove(offset)
        ends.append(offset + size)
        return True

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
