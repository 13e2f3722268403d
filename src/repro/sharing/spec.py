"""Stream-sharing configuration (ROADMAP item 3; paper §8.2 and beyond).

``SharingSpec`` selects how concurrent sessions of the same title share
disk streams and buffer pages.  A *policy* names a registered set of
sharing components; the built-ins compose two mechanisms:

* **batch** — *batched launches*: the paper's §8.2 piggybacking.  The
  first start of a title opens a ``window_s`` window; same-title starts
  inside it launch together, so (through in-flight buffer merging) they
  share one disk stream.  Closed terminals keep one admission slot
  each and only delay their start.  Open-workload arrivals ride the
  leader's single admission slot, and a queued request whose title
  opens a batch leaves the admission queue and joins the batch instead
  of consuming a slot.
* **chain** — *buffer chaining* (after the INRIA chaining algorithms):
  a later session reads blocks from an earlier session's still-resident
  bufferpool pages; the chain registry pins the predecessor's recent
  pages (within a bounded budget) until the successor consumes them,
  and breaks the chain when the predecessor pauses, seeks, abandons,
  or the pages are evicted anyway.

The default spec is **inert**: no runtime is built, no events are
added, no randomness is drawn, and runs are bit-identical to a build
without the sharing subsystem at all (pinned by golden-digest tests),
following the ``FaultSpec``/``ProxySpec``/``ArrivalSpec`` convention.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.registry import Registry

#: Component names a policy may compose.
BATCH = "batch"
CHAIN = "chain"
_COMPONENTS = (BATCH, CHAIN)

SHARING_POLICIES: Registry[frozenset[str]] = Registry("sharing policy")


def register_sharing_policy(
    name: str, components: typing.Iterable[str]
) -> None:
    """Make *name* selectable via ``SharingSpec(name)``.

    *components* is any subset of ``("batch", "chain")``; the
    named policy enables exactly those mechanisms.  An empty set is the
    inert policy (only ``"none"`` ships with it, but a plugin may alias
    it).
    """
    SHARING_POLICIES.check_name(name)
    parts = frozenset(components)
    unknown = parts - set(_COMPONENTS)
    if unknown:
        raise ValueError(
            f"unknown sharing components {sorted(unknown)}; "
            f"choose from {_COMPONENTS}"
        )
    SHARING_POLICIES.register(name, parts)


sharing_policy_names = SHARING_POLICIES.names


register_sharing_policy("none", ())
register_sharing_policy("batch", (BATCH,))
register_sharing_policy("batch+chain", (BATCH, CHAIN))


@dataclasses.dataclass(frozen=True)
class SharingSpec:
    """Which stream-sharing policy the system runs, with its knobs."""

    #: The adaptive-merging knobs were retired with the ``merge``
    #: component, the batch cap was unbounded in every run, and the
    #: chain bounds are the constants of :mod:`repro.sharing.runtime`;
    #: their old defaults stay in the canonical form so every existing
    #: config digest and run-cache key stays valid.
    schema_constants = {
        "rate_delta": 0.05,
        "merge_max_lag_s": 60.0,
        "max_batch": 0,
        "chain_max_lag_s": 30.0,
        "chain_pin_limit_blocks": 32,
    }

    #: Registered policy name (see :func:`register_sharing_policy`).
    policy: str = "none"

    # --- batched launches (§8.2 piggybacking) -----------------------------
    #: Seconds a newly opened batch waits for more same-title starts
    #: before every member launches together (the paper's start delay).
    window_s: float = 2.0

    def __post_init__(self) -> None:
        SHARING_POLICIES.lookup(self.policy)
        # A non-finite window would only fail at run time: a nan one
        # raises in env.timeout, an inf one never launches.
        if not math.isfinite(self.window_s):
            raise ValueError(f"window_s must be finite, got {self.window_s!r}")
        if self.window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {self.window_s}")
        if self.batching and self.window_s == 0:
            raise ValueError(
                f"policy {self.policy!r} batches admissions and needs "
                f"window_s > 0"
            )

    @property
    def components(self) -> frozenset[str]:
        """The sharing mechanisms the named policy enables."""
        return SHARING_POLICIES.lookup(self.policy)

    @property
    def enabled(self) -> bool:
        """Whether any sharing runtime is built at all."""
        return bool(self.components)

    @property
    def batching(self) -> bool:
        return BATCH in self.components

    @property
    def chaining(self) -> bool:
        return CHAIN in self.components

    def build(self, env):
        """A fresh :class:`~repro.sharing.runtime.SharingRuntime`."""
        from repro.sharing.runtime import SharingRuntime

        return SharingRuntime(env, self)

    def label(self) -> str:
        """Short human-readable tag for experiment tables."""
        if not self.enabled:
            return "no-sharing"
        text = self.policy
        if self.batching:
            text += f"({self.window_s:g}s)"
        return text

