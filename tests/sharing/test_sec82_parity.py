"""§8.2 piggybacking as the ``batch`` policy: same runs as the retired
coordinator.

The paper's delayed-start piggybacking used to be a separate
``PiggybackCoordinator`` driven by ``SpiffiConfig.piggyback_window_s``.
It is now ``SharingSpec("batch", window_s=w)``.  The goldens below were
recorded with the coordinator on small §8.2-shaped closed configs
(love-prefetch, elevator, every terminal starting its first video from
frame 0).  The batch policy must reproduce every behaviour field and
the event count exactly.

Only the sharing counter group may differ: the coordinator counted a
batch when it opened, the runtime counts it at launch.  So a window
that straddles the warmup reset now shows up in the measured counters
(``straddles-reset``: 8 -> 11 batches), and one still open when the
run stops does not (``small-window``: 20 -> 16).
"""

import dataclasses
import hashlib
import json

import pytest

from repro import MB, SpiffiConfig, run_simulation
from repro.bufferpool.registry import ReplacementSpec
from repro.core.metrics import RunMetrics
from repro.experiments.presets import elevator_bundle
from repro.sharing import SharingSpec

#: name -> (window_s, terminals, seed, start_spread_s, warmup_grace_s,
#: measure_s, video_length_s, events_processed, behaviour digest).
GOLDEN = {
    "small-window": (
        5.0, 40, 1, 10.0, 9.0, 60.0, 20.0, 31913,
        "88d031981204b6d466ffd27eaefdcf974259568bfc98624b53cfe542e7521128",
    ),
    # Warmup ends at 12 s while windows opened in [0, 10] s launch up
    # to 8 s later: the first round of batches spans the reset.
    "straddles-reset": (
        8.0, 60, 7, 10.0, 2.0, 60.0, 45.0, 49863,
        "845c929dce092449908be8e6a2607458b7ac9fc551f01d57386eaa4e7172d125",
    ),
    "many-terminals": (
        10.0, 160, 11, 15.0, 14.0, 45.0, 30.0, 118122,
        "acfa3af7895bb3211ae63503417ad6178ee712230824ce090486387f042fda47",
    ),
    "wide-window": (
        20.0, 80, 3, 30.0, 26.0, 60.0, 40.0, 82916,
        "bab9de14a72d5233e357328ca3ffdbaf57d23c4dbd4df47e62d11e760a6ba69e",
    ),
}


def sec82_config(name: str) -> SpiffiConfig:
    window, terminals, seed, spread, grace, measure, length = GOLDEN[name][:7]
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=terminals,
        videos_per_disk=1,
        video_length_s=length,
        server_memory_bytes=64 * MB,
        replacement_policy=ReplacementSpec("love_prefetch"),
        initial_position_fraction=0.0,
        start_spread_s=spread,
        warmup_grace_s=grace,
        measure_s=measure,
        seed=seed,
        sharing=SharingSpec(policy="batch", window_s=window),
        **elevator_bundle(),
    )


def behaviour_digest(metrics: RunMetrics) -> str:
    """sha256 of the deterministic metrics minus the sharing counters."""
    values = metrics.deterministic_dict()
    for field in dataclasses.fields(RunMetrics):
        if field.metadata.get("group") == "sharing":
            values.pop(field.name, None)
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_batch_policy_matches_the_coordinator(name):
    metrics = run_simulation(sec82_config(name))
    events, digest = GOLDEN[name][7:]
    assert metrics.events_processed == events
    assert behaviour_digest(metrics) == digest
    assert metrics.shared_streams > 0  # piggybacking really engaged

