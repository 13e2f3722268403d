"""One workload answer in a fresh interpreter; prints one JSON line.

Started by ``run.py`` once per repetition, so every repetition pays
what a command-line user pays: interpreter start, ``repro`` imports,
and cold frame-sequence generation (the memo in ``repro.media.library``
is per process).  ``begun_at`` is ``time.monotonic()`` when the answer
starts; ``run.py`` reads the same system-wide clock when it launches the
interpreter, so their difference is interpreter start plus imports.
Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/child.py --workload closed_capacity [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from repro.api import MB, Runner, SerialExecutor

from workloads import WORKLOADS, ConstructionTimer, metrics_digest


def simulated(runs: list) -> dict:
    """Per-layer quantities read off the runs' ``RunMetrics``.

    Deterministic: they depend only on the simulated answer, never on
    host speed or tracing.
    """
    events = sum(m.events_processed for m in runs)
    blocks = sum(m.blocks_delivered for m in runs)
    references = sum(m.buffer_references for m in runs)
    hits = sum(m.buffer_hit_rate * m.buffer_references for m in runs)
    issued = sum(m.prefetches_issued for m in runs)
    # Dropped prefetches never issued a read, so only reads that
    # completed and were then evicted unreferenced count as waste.
    useful = sum(m.prefetches_completed - m.wasted_prefetches for m in runs)
    offered = sum(m.offered_sessions for m in runs)
    launches = sum(m.batches_launched + m.shared_streams for m in runs)
    return {
        "sim.events": events,
        "sim.events_per_block": events / blocks if blocks else 0.0,
        "bufferpool.hit_rate": hits / references if references else 0.0,
        "bufferpool.allocation_waits": sum(m.allocation_waits for m in runs),
        "storage.disk_util_mean": sum(m.disk_utilization_mean for m in runs) / len(runs),
        "prefetch.useful_ratio": useful / issued if issued else 0.0,
        "netsim.mean_mb_per_s": sum(m.network_mean_bytes_per_s for m in runs)
        / len(runs)
        / MB,
        "workload.offered_sessions": offered,
        "workload.admitted_ratio": (
            1.0 - sum(m.rejected_sessions for m in runs) / offered if offered else 0.0
        ),
        "workload.startup_p99_s": max(m.startup_p99_s for m in runs),
        "sharing.sharing_fraction": (
            sum(m.shared_streams for m in runs) / launches if launches else 0.0
        ),
        "sharing.chain_reads": sum(m.chain_reads for m in runs),
        "cluster.failed_over_sessions": sum(m.failed_over_sessions for m in runs),
        "cluster.lost_sessions": sum(m.lost_sessions for m in runs),
        "cluster.rebuild_mb": sum(m.node_rebuild_bytes for m in runs) / MB,
        "cluster.restore_s": max(m.replication_restore_s for m in runs),
        "experiments.probes": len(runs),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    outcomes = []
    runner = Runner(SerialExecutor(), progress=outcomes.append)  # no RunCache

    def answer():
        return WORKLOADS[args.workload](runner)

    if args.trace:
        # Imported only here, so untraced repetitions never pay for it.
        from layers import profiled

    begun_at = time.monotonic()
    begun = time.perf_counter()
    with ConstructionTimer() as construction:
        if args.trace:
            result, self_s, counts = profiled(answer)
        else:
            result, self_s, counts = answer(), None, None
    finished = time.perf_counter()

    # A run that errored makes its workload raise before this point, so
    # every outcome here carries metrics.
    runs = [outcome.metrics for outcome in outcomes]
    steps = [
        [setup, outcome.wall_time_s - setup]
        for setup, outcome in zip(construction.seconds, outcomes)
    ]
    print(
        json.dumps(
            {
                "answer": result["answer"],
                "verdicts": result["verdicts"],
                "runs": [
                    [outcome.tag, metrics.events_processed, metrics_digest(metrics)]
                    for outcome, metrics in zip(outcomes, runs)
                ],
                "begun_at": begun_at,
                "answer_s": finished - begun,
                "steps": steps,
                "blocks": sum(m.blocks_delivered for m in runs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "simulated": simulated(runs),
                "self_s": self_s,
                "counts": counts,
            }
        )
    )


if __name__ == "__main__":
    main()
