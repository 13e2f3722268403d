"""Degraded-mode read path under random outages, across seeds and jobs.

Exercises the full timeout -> retry -> failover chain with a stochastic
outage-heavy fault schedule (not the scripted permanent failure the
other suites use) and pins down that the chain is deterministic under
both the serial and the process-pool executor.
"""

import pytest

from repro import MB, SpiffiConfig
from repro.core.system import SpiffiSystem
from repro.experiments.runner import (
    ProcessExecutor,
    RunRequest,
    Runner,
    SerialExecutor,
)
from repro.faults import FaultSpec
from repro.layout.registry import LayoutSpec
from repro.prefetch.spec import PrefetchSpec
from repro.replication.spec import ReplicationSpec
from repro.telemetry import trace as trace_events

SEEDS = (7, 8, 9)

#: Frequent short outages, no slow-downs, no permanent failures: every
#: fault forces the timeout/retry machinery rather than just stretching
#: service times.
OUTAGE_STORM = FaultSpec(
    disk_fault_rate_per_hour=720.0,
    slow_weight=0.0,
    outage_weight=1.0,
    fail_weight=0.0,
    mean_outage_duration_s=3.0,
    request_timeout_s=0.5,
    max_retries=2,
)


def storm_config(seed):
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=16,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        layout=LayoutSpec("mirrored"),
        replication=ReplicationSpec(factor=2),
        prefetch=PrefetchSpec("none"),
        faults=OUTAGE_STORM,
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=30.0,
        seed=seed,
    )


def traced_run(seed):
    system = SpiffiSystem(storm_config(seed))
    recorder = system.enable_tracing()
    system.start()
    system.env.run(until=system.config.total_sim_time_s)
    return recorder


@pytest.fixture(scope="module")
def recorders():
    return {seed: traced_run(seed) for seed in SEEDS}


class TestRetryThenFailoverChain:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_stage_of_the_chain_fires(self, recorders, seed):
        summary = recorders[seed].summary()
        assert summary.get(trace_events.FAULT_RETRY, 0) > 0
        assert summary.get(trace_events.HEALTH_CHANGE, 0) > 0
        assert summary.get(trace_events.FAILOVER_READ, 0) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_some_failover_was_preceded_by_a_retry_on_that_disk(
        self, recorders, seed
    ):
        """The chain is causal, not coincidental: at least one read
        retried against a disk and then fled it for the replica."""
        events = recorders[seed].events()
        retried_at = {}  # (terminal, disk) -> earliest retry time
        chained = False
        for event in events:
            if event.kind == trace_events.FAULT_RETRY:
                key = (event.fields["terminal"], event.fields["disk"])
                retried_at.setdefault(key, event.time)
            elif event.kind == trace_events.FAILOVER_READ:
                key = (event.fields["terminal"], event.fields["from_disk"])
                if key in retried_at and retried_at[key] <= event.time:
                    chained = True
                    break
        assert chained

    @pytest.mark.parametrize("seed", SEEDS)
    def test_suspect_states_appear_and_recover(self, recorders, seed):
        """Outages drive disks out of HEALTHY and, with no permanent
        failures in the spec, back again."""
        changes = recorders[seed].events(trace_events.HEALTH_CHANGE)
        states = {event.fields["state"] for event in changes}
        assert states >= {"healthy"}
        assert states & {"suspect", "down"}
        assert "failed" not in states


class TestJobsDeterminism:
    def test_serial_and_pool_executors_agree(self):
        requests = [
            RunRequest(storm_config(seed), tag=f"seed {seed}") for seed in SEEDS
        ]
        serial = Runner(SerialExecutor())
        try:
            expected = [
                outcome.metrics.deterministic_dict()
                for outcome in serial.run_batch(requests)
            ]
        finally:
            serial.close()
        pooled = Runner(ProcessExecutor(jobs=4))
        try:
            actual = [
                outcome.metrics.deterministic_dict()
                for outcome in pooled.run_batch(requests)
            ]
        finally:
            pooled.close()
        assert actual == expected
