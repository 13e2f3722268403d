"""Stream sharing: batched admission and buffer chains.

See :class:`~repro.sharing.spec.SharingSpec` for the policy surface and
:class:`~repro.sharing.runtime.SharingRuntime` for the mechanisms.
"""

from repro.sharing.runtime import BufferChain, SharingRuntime, StreamBatch
from repro.sharing.spec import (
    SharingSpec,
    register_sharing_policy,
    sharing_policy_names,
)

__all__ = [
    "BufferChain",
    "SharingRuntime",
    "SharingSpec",
    "StreamBatch",
    "register_sharing_policy",
    "sharing_policy_names",
]
