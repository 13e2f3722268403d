"""Prefix-selection policies: which blocks the proxy pre-loads.

A prefix policy ranks every (video, block) pair inside the configured
prefix window; the :class:`~repro.proxy.runtime.ProxyRuntime` takes
pairs in that order until its memory budget is full.  The ranking sees
only the popularity *weights* of the access model (RNG-free, index =
title id) and the per-title prefix depth in blocks, so the pre-load is
a pure function of the config — no simulation events, no randomness.

Third-party policies plug in via :func:`register_prefix_policy`
without touching the runtime, mirroring the other component
registries::

    from repro.api import ProxySpec, register_prefix_policy

    register_prefix_policy("mine", MyPolicy)
    spec = ProxySpec(prefix_s=60.0, memory_bytes=64 * MB, policy="mine")
"""

from __future__ import annotations

import typing

from repro.registry import Registry


class PrefixPolicy(typing.Protocol):
    """Orders candidate prefix blocks, hottest first."""

    def plan(
        self, weights: typing.Sequence[float], prefix_blocks: typing.Sequence[int]
    ) -> typing.Iterator[tuple[int, int]]:
        """Yield ``(video, block)`` pairs in descending priority.

        *weights* are the access-model popularity weights (index =
        title id); *prefix_blocks* gives each title's prefix depth in
        blocks.  Only blocks inside the prefix may be yielded.
        """
        ...  # pragma: no cover


def _ranked(weights: typing.Sequence[float]) -> list[int]:
    # Descending weight; title id breaks ties so the order is total.
    return sorted(range(len(weights)), key=lambda vid: (-weights[vid], vid))


class HottestFirst:
    """Whole prefixes, hottest title first (depth-first).

    Maximises full-prefix coverage of the head of the popularity
    curve: under a tight budget the hottest titles keep their entire
    startup window resident while cold titles get nothing.
    """

    def plan(self, weights, prefix_blocks):
        for vid in _ranked(weights):
            for block in range(prefix_blocks[vid]):
                yield vid, block


#: ``register_prefix_policy(name, factory)`` makes *name* selectable via
#: ``ProxySpec(policy=name)``; ``factory()`` builds a fresh policy.
PREFIX_POLICIES: Registry[typing.Callable[[], PrefixPolicy]] = Registry(
    "prefix policy"
)
register_prefix_policy = PREFIX_POLICIES.register
prefix_policy_names = PREFIX_POLICIES.names


def make_prefix_policy(name: str) -> PrefixPolicy:
    """A fresh policy instance for *name*."""
    return PREFIX_POLICIES.lookup(name)()


register_prefix_policy("hottest", HottestFirst)
