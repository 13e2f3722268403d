"""The proxy tier's configuration value object.

``ProxySpec`` composes a prefix-caching proxy between the terminals
and the origin server(s): the proxy holds the first ``prefix_s``
seconds of every title in its own bufferpool (budgeted by
``memory_bytes``), pre-loaded hottest-first by the named prefix policy
and thereafter managed by the named replacement policy.  The default
spec is *disabled* — no proxy is built, no simulation events are
added, and runs are bit-identical to a build without the proxy
subsystem (pinned by the golden digest tests), mirroring the
``FaultSpec``/``ReplicationSpec``/``ArrivalSpec`` convention.
"""

from __future__ import annotations

import dataclasses
import math

from repro import schema
from repro.bufferpool.registry import ReplacementSpec
from repro.proxy.policies import PREFIX_POLICIES, make_prefix_policy


@dataclasses.dataclass(frozen=True)
class ProxySpec:
    """Prefix-cache proxy between terminals and the origin servers."""

    #: Seconds of each title's head the proxy may serve.  0 disables
    #: the proxy entirely (the default: no tier is built).
    prefix_s: float = 0.0
    #: The proxy's own bufferpool budget.  Must be positive when the
    #: proxy is enabled and 0 when disabled.
    memory_bytes: int = 0
    #: Replacement policy for the proxy's bufferpool (same registry as
    #: the server pools — love-prefetch vs LRU is a free ablation).
    replacement: ReplacementSpec = schema.field(
        factory=ReplacementSpec, digest=schema.AS_NAME
    )
    #: Registered prefix policy choosing which blocks to pre-load
    #: under the memory budget (see :mod:`repro.proxy.policies`).
    policy: str = "hottest"

    def __post_init__(self) -> None:
        schema.check_types(self)
        # Also rejects NaN, which compares false to everything.
        if not (self.prefix_s >= 0 and math.isfinite(self.prefix_s)):
            raise ValueError(
                f"prefix_s must be >= 0 and finite, got {self.prefix_s!r}"
            )
        PREFIX_POLICIES.lookup(self.policy)
        if self.enabled and self.memory_bytes <= 0:
            raise ValueError(
                f"an enabled proxy (prefix_s={self.prefix_s:g}) needs a "
                f"positive memory budget, got {self.memory_bytes}"
            )
        if not self.enabled and self.memory_bytes != 0:
            raise ValueError(
                f"proxy memory ({self.memory_bytes} bytes) without a prefix "
                "length does nothing; set prefix_s > 0 to enable the proxy"
            )

    @property
    def enabled(self) -> bool:
        """Whether a proxy tier is built at all."""
        return self.prefix_s > 0

    def build_policy(self):
        """A fresh prefix-policy instance."""
        return make_prefix_policy(self.policy)

    def label(self) -> str:
        """Short human-readable tag for experiment tables."""
        if not self.enabled:
            return "no-proxy"
        mb = self.memory_bytes / (1024 * 1024)
        return (
            f"proxy {self.prefix_s:g}s/{mb:g}MB "
            f"{self.replacement.label()}/{self.policy}"
        )
