#!/usr/bin/env python
"""A flash crowd served with and without stream sharing.

Runs the same flash-crowd workload — arrivals bursting to 3x the base
rate against a small 2x2-disk server — three times: with sharing off,
with batched admission alone, and with batching plus buffer chaining.
Near-simultaneous same-title arrivals then share one launch window,
one admission slot, and one disk stream, and close successors read
their predecessor's still-resident buffer pages instead of the disks.

The trace shows windows opening, filling, and launching; the metrics
show the burst's sessions sharing streams (and at higher load, the
glitch/startup cliff moving out — see
`python -m repro.experiments sharing` for the full capacity grid).

Run:  python examples/stream_sharing.py
"""

from repro.api import (
    ArrivalSpec,
    MB,
    SharingSpec,
    SpiffiConfig,
    SpiffiSystem,
)

FLASH = ArrivalSpec(
    process="flash",
    rate_per_s=5.0,
    flash_at_s=20.0,
    flash_duration_s=15.0,
    flash_multiplier=3.0,
    mean_view_duration_s=30.0,
    queue_limit=16,
    mean_patience_s=10.0,
    startup_slo_s=10.0,
)

POLICIES = [
    ("no sharing", SharingSpec()),
    ("batch", SharingSpec(policy="batch", window_s=2.0)),
    ("batch+chain", SharingSpec(policy="batch+chain", window_s=2.0)),
]


def config_with(sharing: SharingSpec) -> SpiffiConfig:
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=1,  # ignored: the workload is open
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=64 * MB,
        zipf_skew=1.0,
        sharing=sharing,
        start_spread_s=4.0,
        warmup_grace_s=8.0,
        measure_s=45.0,
        seed=5,
        workload=FLASH,
    )


def main() -> None:
    print(f"{'policy':14}{'admitted':>9}{'shared':>8}{'frac':>6}"
          f"{'chain reads':>12}{'p99 startup':>12}{'glitches':>9}")
    trace = None
    for label, spec in POLICIES:
        system = SpiffiSystem(config_with(spec))
        if spec.enabled:
            recorder = system.enable_tracing()
        metrics = system.run()
        if spec.enabled:
            trace = recorder  # keep the last (batch+chain) run's trace
        print(
            f"{label:14}{metrics.admitted_sessions:9d}"
            f"{metrics.shared_streams:8d}{metrics.sharing_fraction:6.2f}"
            f"{metrics.chain_reads:12d}{metrics.startup_p99_s:12.2f}"
            f"{metrics.glitches:9d}"
        )

    print("\nlaunch windows during the flash burst (batch+chain run):")
    for event in trace.events():
        if event.kind != "batch.launch":
            continue
        if not FLASH.flash_at_s <= event.time <= (
            FLASH.flash_at_s + FLASH.flash_duration_s
        ):
            continue
        size = event.fields["size"]
        crowd = "*" * size
        print(
            f"  t={event.time:6.2f}s video={event.fields['video']} "
            f"launched {size:2d} viewer(s) on one stream {crowd}"
        )


if __name__ == "__main__":
    main()
