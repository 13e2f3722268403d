"""The proxy/edge prefix-cache tier.

A configurable proxy node between the terminals and the origin
server(s), caching the first K seconds of each title (hot-set chosen
by the access model's popularity weights) in its own bufferpool —
grounded in "An Optimal Prefix Replication Strategy for VoD Services"
(see PAPERS.md).  Disabled by default: the empty :class:`ProxySpec`
builds nothing and runs are bit-identical to the pre-proxy build.
"""

from repro.proxy.policies import (
    HottestFirst,
    PrefixPolicy,
    make_prefix_policy,
    prefix_policy_names,
    register_prefix_policy,
)
from repro.proxy.runtime import (
    ProxyRuntime,
    ProxyStats,
    ProxyView,
    prefix_block_count,
)
from repro.proxy.spec import ProxySpec

__all__ = [
    "HottestFirst",
    "PrefixPolicy",
    "ProxyRuntime",
    "ProxySpec",
    "ProxyStats",
    "ProxyView",
    "make_prefix_policy",
    "prefix_block_count",
    "prefix_policy_names",
    "register_prefix_policy",
]
