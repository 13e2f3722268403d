"""End-to-end fault injection: determinism, degraded mode, attribution.

Row ``prefault`` of ``tests/pins.json`` pins the config digest, the
behaviour digest (every metric) and the event count of a reference run
recorded before the fault subsystem existed; ``TestEmptySpecIsInert``
checks ``golden_config()`` against it.  If a change to the fault code
shifts any of them, fault-free runs are no longer bit-identical to the
pre-fault simulator — which is the subsystem's core contract.
"""

import pytest

from repro import MB, SpiffiConfig, run_simulation
from repro.core.system import SpiffiSystem
from repro.experiments.results import config_digest
from repro.faults import FaultSpec
from repro.telemetry import trace as trace_events
from tests import pins


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
        pins.check_config("prefault", golden_config())

    def test_metrics_bit_identical_to_pre_fault_build(self):
        pins.check("prefault", pins.run(golden_config()))

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
        prefault = pins.STORE.rows["prefault"]["config"]
        assert config_digest(golden_config(faults=faulty_spec())) != prefault

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
