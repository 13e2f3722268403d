"""Tests for the global LRU and love prefetch replacement policies."""

import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool import GlobalLru, LovePrefetch, Page, ReplacementSpec


def page(key, pins=0):
    p = Page(key, 1024)
    p.pins = pins
    return p


class TestGlobalLru:
    def test_victim_is_oldest_unpinned(self):
        policy = GlobalLru()
        a, b = page(("v", 0)), page(("v", 1))
        policy.on_insert(a, prefetched=False)
        policy.on_insert(b, prefetched=False)
        assert policy.victim() is a

    def test_reference_moves_to_tail(self):
        policy = GlobalLru()
        a, b = page(("v", 0)), page(("v", 1))
        policy.on_insert(a, prefetched=False)
        policy.on_insert(b, prefetched=False)
        policy.on_reference(a)
        assert policy.victim() is b

    def test_pinned_pages_skipped(self):
        policy = GlobalLru()
        a, b = page(("v", 0), pins=1), page(("v", 1))
        policy.on_insert(a, prefetched=False)
        policy.on_insert(b, prefetched=False)
        assert policy.victim() is b

    def test_no_distinction_for_prefetched(self):
        policy = GlobalLru()
        pre = page(("v", 0))
        ref = page(("v", 1))
        policy.on_insert(pre, prefetched=True)
        policy.on_insert(ref, prefetched=False)
        # Single queue: the prefetched page is oldest and is evicted
        # first even though it has not been used yet.
        assert policy.victim() is pre

    def test_exclude_prefetched(self):
        policy = GlobalLru()
        pre = page(("v", 0))
        ref = page(("v", 1))
        policy.on_insert(pre, prefetched=True)
        policy.on_insert(ref, prefetched=False)
        assert policy.victim(exclude_prefetched=True) is ref

    def test_evict_removes(self):
        policy = GlobalLru()
        a = page(("v", 0))
        policy.on_insert(a, prefetched=False)
        policy.on_evict(a)
        assert policy.victim() is None


class TestLovePrefetch:
    def test_referenced_chain_sacrificed_first(self):
        policy = LovePrefetch()
        pre = page(("v", 0))
        ref = page(("v", 1))
        policy.on_insert(pre, prefetched=True)
        policy.on_insert(ref, prefetched=False)
        # Even though the prefetched page is older, the referenced page
        # is the victim (Figure 4).
        assert policy.victim() is ref

    def test_prefetched_chain_as_last_resort(self):
        policy = LovePrefetch()
        pre = page(("v", 0))
        policy.on_insert(pre, prefetched=True)
        assert policy.victim() is pre
        assert policy.victim(exclude_prefetched=True) is None

    def test_reference_moves_between_chains(self):
        policy = LovePrefetch()
        pre = page(("v", 0))
        other = page(("v", 1))
        policy.on_insert(pre, prefetched=True)
        policy.on_insert(other, prefetched=True)
        policy.on_reference(pre)
        assert not pre.is_prefetched
        # pre is now on the referenced chain and becomes the victim.
        assert policy.victim() is pre

    def test_lru_within_each_chain(self):
        policy = LovePrefetch()
        first = page(("v", 0))
        second = page(("v", 1))
        policy.on_insert(first, prefetched=False)
        policy.on_insert(second, prefetched=False)
        policy.on_reference(first)
        assert policy.victim() is second

    def test_evict_from_either_chain(self):
        policy = LovePrefetch()
        pre = page(("v", 0))
        ref = page(("v", 1))
        policy.on_insert(pre, prefetched=True)
        policy.on_insert(ref, prefetched=False)
        policy.on_evict(pre)
        policy.on_evict(ref)
        assert policy.victim() is None


class TestFactory:
    def test_names(self):
        assert isinstance(ReplacementSpec("global_lru").build(), GlobalLru)
        assert isinstance(ReplacementSpec("love_prefetch").build(), LovePrefetch)
        with pytest.raises(ValueError):
            ReplacementSpec("clock").build()


class OrderedDictChains:
    """Both policies' LRU chains kept in ``OrderedDict``s, the reference
    for the plain-dict chains: a single chain for global LRU, a
    prefetched and a referenced chain for love prefetch."""

    def __init__(self, love: bool) -> None:
        self.love = love
        self.prefetched: OrderedDict = OrderedDict()
        self.referenced: OrderedDict = OrderedDict()
        self.flag: dict = {}

    def insert(self, page, prefetched):
        self.flag[page.key] = prefetched
        chain = self.prefetched if self.love and prefetched else self.referenced
        chain[page.key] = page

    def reference(self, page):
        if self.love and self.flag[page.key]:
            del self.prefetched[page.key]
            self.referenced[page.key] = page
        else:
            self.referenced.move_to_end(page.key)
        self.flag[page.key] = False

    def evict(self, page):
        del self.flag[page.key]
        chain = self.prefetched if page.key in self.prefetched else self.referenced
        del chain[page.key]

    def victim(self, exclude_prefetched):
        if self.love:
            chains = [self.referenced] if exclude_prefetched else [
                self.referenced,
                self.prefetched,
            ]
            candidates = [page for chain in chains for page in chain.values()]
        else:
            candidates = [
                page
                for page in self.referenced.values()
                if not (exclude_prefetched and self.flag[page.key])
            ]
        return next((page for page in candidates if page.evictable), None)


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "prefetch", "reference", "evict", "pin", "unpin", "victim", "victim-x"]
        ),
        st.integers(0, 7),
    ),
    max_size=80,
)


@pytest.mark.parametrize("name", ["global_lru", "love_prefetch"])
@given(ops=OPS)
@settings(max_examples=150, deadline=None)
def test_chains_match_an_ordered_dict_reference(name, ops):
    policy = ReplacementSpec(name).build()
    reference = OrderedDictChains(love=name == "love_prefetch")
    resident: dict = {}
    for op, key in ops:
        page = resident.get(key)
        if op in ("insert", "prefetch") and page is None:
            page = resident[key] = Page(("v", key), 1024)
            policy.on_insert(page, prefetched=op == "prefetch")
            reference.insert(page, op == "prefetch")
        elif op == "reference" and page is not None:
            policy.on_reference(page)
            reference.reference(page)
        elif op == "evict" and page is not None:
            policy.on_evict(page)
            reference.evict(page)
            del resident[key]
        elif op in ("pin", "unpin") and page is not None:
            page.pins = int(op == "pin")
        elif op in ("victim", "victim-x"):
            exclude = op == "victim-x"
            assert policy.victim(exclude_prefetched=exclude) is reference.victim(exclude)
        for page in resident.values():
            assert page.is_prefetched == reference.flag[page.key]
    # Drain: every page leaves in the reference's victim order.
    for page in resident.values():
        page.pins = 0
    while resident:
        victim = reference.victim(False)
        assert policy.victim() is victim
        policy.on_evict(victim)
        reference.evict(victim)
        del resident[victim.key[1]]
    assert policy.victim() is None


def test_pages_hash_by_identity():
    """The chains key on pages: two pages holding the same key stay
    distinct."""
    assert Page.__eq__ is object.__eq__
    assert Page.__hash__ is object.__hash__
    a, b = Page(("v", 0), 1024), Page(("v", 0), 1024)
    assert a != b and len({a: None, b: None}) == 2


def test_fresh_pages_share_one_infinite_deadline_hint():
    a, b = Page(("v", 0), 1024), Page(("v", 1), 1024)
    assert a.deadline_hint is b.deadline_hint is math.inf
