"""End-to-end fault injection: determinism, degraded mode, attribution.

The golden baseline in ``TestEmptySpecIsInert`` pins the *exact*
metrics (and config digest) of a reference run recorded before the
fault subsystem existed.  If a change to the fault code shifts any of
these numbers, fault-free runs are no longer bit-identical to the
pre-fault simulator — which is the subsystem's core contract.
"""

import pytest

from repro import MB, SpiffiConfig, run_simulation
from repro.core.system import SpiffiSystem
from repro.experiments.results import config_digest
from repro.faults import FaultSpec
from repro.telemetry import trace as trace_events


def golden_config(**overrides):
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=24,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=30.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


#: sha256 config digest of ``golden_config()`` recorded on the commit
#: before the fault subsystem was added.
GOLDEN_DIGEST = "86dd5a5d7585f33c7957fe9821a8aaf3fb3cc2b7984467be2059fd240fff431a"

#: ``RunMetrics.deterministic_dict()`` of ``golden_config()`` recorded
#: on the same commit.
GOLDEN_METRICS = {
    "admission_mean_wait_s": 0.0,
    "admissions_queued": 0,
    "allocation_waits": 0,
    "blocks_delivered": 679,
    "buffer_hit_rate": 1.0,
    "buffer_inflight_hit_rate": 0.0,
    "buffer_references": 680,
    "cpu_utilization_mean": 0.00582500000000441,
    "deadline_misses": 0,
    "disk_utilization_max": 0.41736927058463136,
    "disk_utilization_mean": 0.4120745456778181,
    "disk_utilization_min": 0.4039624878539341,
    "dropped_prefetches": 0,
    "events_processed": 19990,
    "glitches": 0,
    "glitching_terminals": 0,
    "max_response_time_s": 0.02167283331324299,
    "mean_glitch_duration_s": 0.0,
    "mean_response_time_s": 0.021213839967598045,
    "mean_startup_latency_s": 0.0,
    "measure_s": 30.0,
    "network_mean_bytes_per_s": 11886762.666666666,
    "network_peak_bytes_per_s": 14159232.0,
    "pauses_taken": 0,
    "prefetches_completed": 625,
    "prefetches_issued": 626,
    "rereference_rate": 0.07941176470588235,
    "terminals": 24,
    "videos_completed": 0,
    "wasted_prefetches": 0,
}


def faulty_spec(**overrides):
    defaults = dict(
        disk_fault_rate_per_hour=720.0,
        slow_weight=3.0,
        outage_weight=2.0,
        request_timeout_s=0.5,
        mean_outage_duration_s=3.0,
    )
    defaults.update(overrides)
    return FaultSpec(**defaults)


class TestEmptySpecIsInert:
    def test_digest_unchanged_from_pre_fault_build(self):
        assert config_digest(golden_config()) == GOLDEN_DIGEST

    def test_metrics_bit_identical_to_pre_fault_build(self):
        values = run_simulation(golden_config()).deterministic_dict()
        # Every metric that existed before the fault subsystem is
        # bit-identical; every metric added since reads zero.
        assert {key: values[key] for key in GOLDEN_METRICS} == GOLDEN_METRICS
        new_keys = set(values) - set(GOLDEN_METRICS)
        assert all(values[key] == 0 for key in new_keys), new_keys

    def test_fault_fields_all_zero(self):
        metrics = run_simulation(golden_config())
        assert metrics.fault_glitches == 0
        assert metrics.fault_events_injected == 0
        assert metrics.fault_retries == 0
        assert metrics.fault_abandoned_reads == 0
        assert metrics.fault_failed_reads == 0
        assert metrics.scheduling_glitches == metrics.glitches

    def test_no_fault_machinery_instantiated(self):
        system = SpiffiSystem(golden_config())
        assert system.faults is None
        assert system.fault_injector is None


class TestFaultyRuns:
    def test_faulty_run_is_deterministic(self):
        config = golden_config(faults=faulty_spec())
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.deterministic_dict() == second.deterministic_dict()

    def test_faults_change_the_run(self):
        clean = run_simulation(golden_config())
        faulty = run_simulation(golden_config(faults=faulty_spec()))
        assert faulty.fault_events_injected > 0
        assert faulty.deterministic_dict() != clean.deterministic_dict()
        assert config_digest(golden_config(faults=faulty_spec())) != GOLDEN_DIGEST

    def test_glitches_are_fault_attributed(self):
        # An outage-heavy schedule glitches viewers, and every glitch
        # lands while a fault is active (or in its grace window) — the
        # clean run of the same workload is glitch-free.
        metrics = run_simulation(golden_config(faults=faulty_spec()))
        assert metrics.glitches > 0
        assert metrics.fault_glitches > 0
        assert metrics.fault_retries > 0
        assert metrics.scheduling_glitches == 0

    def test_permanent_failure_degrades_but_completes(self):
        spec = FaultSpec(
            disk_fault_rate_per_hour=360.0,
            slow_weight=0.0,
            outage_weight=0.0,
            fail_weight=1.0,
            request_timeout_s=0.5,
        )
        metrics = run_simulation(golden_config(faults=spec))
        # Dead drives fail reads over rather than deadlocking the run.
        assert metrics.fault_failed_reads > 0
        assert metrics.blocks_delivered > 0


class TestFaultTracing:
    def test_trace_records_fault_lifecycle(self):
        system = SpiffiSystem(golden_config(faults=faulty_spec()))
        recorder = system.enable_tracing()
        system.start()
        system.env.run(until=system.config.total_sim_time_s)
        kinds = {event.kind for event in recorder.events()}
        assert trace_events.FAULT_START in kinds
        assert trace_events.FAULT_END in kinds
        assert trace_events.FAULT_RETRY in kinds

    def test_tracing_requires_faults(self):
        # Closed, fault-free, unreplicated: nothing to trace.
        system = SpiffiSystem(golden_config())
        with pytest.raises(ValueError, match="SpiffiNode"):
            system.enable_tracing()
