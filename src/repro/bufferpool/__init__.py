"""Server buffer pool: page table, pinning, global LRU and love prefetch."""

from repro.bufferpool.page import Page, PageKey
from repro.bufferpool.policies import GlobalLru, LovePrefetch, ReplacementPolicy
from repro.bufferpool.pool import HIT, INFLIGHT, MISS, BufferPool, PoolStats
from repro.bufferpool.registry import (
    ReplacementSpec,
    register_replacement,
    replacement_names,
)

__all__ = [
    "BufferPool",
    "GlobalLru",
    "HIT",
    "INFLIGHT",
    "LovePrefetch",
    "MISS",
    "Page",
    "PageKey",
    "PoolStats",
    "ReplacementPolicy",
    "ReplacementSpec",
    "register_replacement",
    "replacement_names",
]
