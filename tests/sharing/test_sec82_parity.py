"""§8.2 piggybacking as the ``batch`` policy: same runs as the retired
coordinator.

The paper's delayed-start piggybacking used to be a separate
``PiggybackCoordinator`` driven by ``SpiffiConfig.piggyback_window_s``.
It is now ``SharingSpec("batch", window_s=w)``.  The pin rows were
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

import pytest

from repro import MB, SpiffiConfig
from repro.bufferpool.registry import ReplacementSpec
from repro.experiments.presets import elevator_bundle
from repro.sharing import SharingSpec
from tests import pins

#: name -> (window_s, terminals, seed, start_spread_s, warmup_grace_s,
#: measure_s, video_length_s); each pinned by row ``sec82/<name>`` of
#: ``tests/pins.json``, whose ``"without": ["sharing"]`` leaves the
#: sharing counters out of its behaviour digest.
CASES = {
    "small-window": (5.0, 40, 1, 10.0, 9.0, 60.0, 20.0),
    # Warmup ends at 12 s while windows opened in [0, 10] s launch up
    # to 8 s later: the first round of batches spans the reset.
    "straddles-reset": (8.0, 60, 7, 10.0, 2.0, 60.0, 45.0),
    "many-terminals": (10.0, 160, 11, 15.0, 14.0, 45.0, 30.0),
    "wide-window": (20.0, 80, 3, 30.0, 26.0, 60.0, 40.0),
}


def sec82_config(name: str) -> SpiffiConfig:
    window, terminals, seed, spread, grace, measure, length = CASES[name]
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_policy_matches_the_coordinator(name):
    pins.check_config(f"sec82/{name}", sec82_config(name))
    metrics = pins.run(sec82_config(name))
    pins.check(f"sec82/{name}", metrics)
    assert metrics.shared_streams > 0  # piggybacking really engaged
