"""Every metric the benchmark reports, with its unit and direction.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a ``--trace 1`` run.  Each per-layer metric names the end-to-end
metrics it should move and the workloads it should move them on, so a
change aimed at one layer can state its prediction before it is
measured.  ``trace.*`` metrics describe the measurement itself and move
nothing.  ``BENCHMARK.json`` lists the same names and units (checked by
``test_perfbench.py``).
"""

from __future__ import annotations

WORKLOADS = ("closed_capacity", "flash_sharing", "cluster_heal")
SEARCHES = ("closed_capacity", "flash_sharing")
SERVING = ("closed_capacity", "cluster_heal")

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_blocks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_WALL = ("wall_s",)
_WALL_RATE = ("wall_s", "sim_blocks_per_s")

#: name -> (unit, better, moves, on)
PER_LAYER = {
    "sim.events": ("count", "lower", _WALL_RATE, WORKLOADS),
    "sim.events_per_block": ("events/block", "lower", _WALL_RATE, WORKLOADS),
    "sim.events_per_s": ("1/s", "higher", _WALL_RATE, WORKLOADS),
    "sim.self_s": ("s", "lower", _WALL_RATE, WORKLOADS),
    "terminal.self_s": ("s", "lower", _WALL, SERVING),
    "terminal.play_calls": ("count", "lower", _WALL, SERVING),
    "server.self_s": ("s", "lower", _WALL, SERVING),
    "server.request_block_calls": ("count", "lower", _WALL, SERVING),
    "bufferpool.self_s": ("s", "lower", _WALL, ("flash_sharing",)),
    "bufferpool.acquire_calls": ("count", "lower", _WALL, ("flash_sharing",)),
    "bufferpool.victim_calls": ("count", "lower", _WALL, ("flash_sharing",)),
    "bufferpool.pages_scanned_per_victim": (
        "pages/call", "lower", _WALL, ("flash_sharing",)
    ),
    "bufferpool.hit_rate": ("ratio", "higher", _WALL, ("flash_sharing",)),
    "bufferpool.allocation_waits": ("count", "lower", _WALL, ("flash_sharing",)),
    "storage.self_s": ("s", "lower", _WALL, ("closed_capacity",)),
    "storage.submit_calls": ("count", "lower", _WALL, ("closed_capacity",)),
    "storage.disk_util_mean": ("ratio", "higher", _WALL, ("closed_capacity",)),
    "sched.self_s": ("s", "lower", _WALL, ("closed_capacity",)),
    "prefetch.self_s": ("s", "lower", _WALL, ("closed_capacity",)),
    "prefetch.schedule_calls": ("count", "lower", _WALL, ("closed_capacity",)),
    "prefetch.useful_ratio": ("ratio", "higher", _WALL, ("closed_capacity",)),
    "cpu.self_s": ("s", "lower", _WALL, SERVING),
    "cpu.execute_calls": ("count", "lower", _WALL, SERVING),
    "netsim.self_s": ("s", "lower", _WALL, SERVING),
    "netsim.transfer_calls": ("count", "lower", _WALL, SERVING),
    "netsim.mean_mb_per_s": ("MB/s", "higher", _WALL, SERVING),
    "media.self_s": ("s", "lower", ("setup_s", "peak_rss_mb"), ("closed_capacity",)),
    "layout.self_s": ("s", "lower", ("setup_s", "peak_rss_mb"), ("closed_capacity",)),
    "workload.self_s": ("s", "lower", _WALL, ("flash_sharing",)),
    "workload.offered_sessions": ("count", "higher", _WALL, ("flash_sharing",)),
    "workload.admitted_ratio": ("ratio", "higher", _WALL, ("flash_sharing",)),
    "workload.startup_p99_s": ("s", "lower", _WALL, ("flash_sharing",)),
    "sharing.self_s": ("s", "lower", _WALL, ("flash_sharing",)),
    "sharing.sharing_fraction": ("ratio", "higher", _WALL, ("flash_sharing",)),
    "sharing.chain_reads": ("count", "higher", _WALL, ("flash_sharing",)),
    "cluster.self_s": ("s", "lower", _WALL, ("cluster_heal",)),
    "replication.self_s": ("s", "lower", _WALL, ("cluster_heal",)),
    "cluster.failed_over_sessions": ("count", "lower", _WALL, ("cluster_heal",)),
    "cluster.lost_sessions": ("count", "lower", _WALL, ("cluster_heal",)),
    "cluster.rebuild_mb": ("MB", "lower", _WALL, ("cluster_heal",)),
    "cluster.restore_s": ("s", "lower", _WALL, ("cluster_heal",)),
    "core.self_s": ("s", "lower", _WALL, WORKLOADS),
    "experiments.self_s": ("s", "lower", _WALL, SEARCHES),
    "experiments.probes": ("count", "lower", _WALL, SEARCHES),
    "other.self_s": ("s", "lower", _WALL, WORKLOADS),
    "trace.overhead_ratio": ("ratio", "lower", (), WORKLOADS),
    "trace.attributed_ratio": ("ratio", "higher", (), WORKLOADS),
}
