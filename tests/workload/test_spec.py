"""Tests for ArrivalSpec, the arrival-process registry, and config wiring."""

import pytest

from repro import SpiffiConfig
from repro.experiments.results import config_digest, config_to_dict
from repro.server.admission import AdmissionSpec
from repro.workload import (
    CLOSED,
    ArrivalSpec,
    DiurnalArrivals,
    FlashArrivals,
    PoissonArrivals,
    arrival_process_names,
    make_arrival_process,
    register_arrival_process,
)


class TestArrivalSpec:
    def test_default_is_closed(self):
        spec = ArrivalSpec()
        assert spec.process == CLOSED
        assert not spec.enabled
        assert spec.label() == "closed"

    def test_open_spec_enabled(self):
        spec = ArrivalSpec(process="poisson", rate_per_s=2.0)
        assert spec.enabled
        assert "poisson" in spec.label()
        assert "120/min" in spec.label()

    def test_open_requires_rate(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="poisson")
        with pytest.raises(ValueError):
            ArrivalSpec(process="poisson", rate_per_s=-1.0)

    def test_closed_rejects_rate(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate_per_s=1.0)

    def test_parameter_validation(self):
        base = dict(process="poisson", rate_per_s=1.0)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, mean_view_duration_s=-1.0)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, mean_patience_s=-1.0)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, queue_limit=-1)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, diurnal_period_s=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, flash_multiplier=0.5)
        with pytest.raises(ValueError):
            ArrivalSpec(**base, startup_slo_s=0.0)

    def test_unknown_process_error_names_registry(self):
        with pytest.raises(ValueError) as err:
            ArrivalSpec(process="bursty")
        message = str(err.value)
        assert "bursty" in message
        assert CLOSED in message
        for name in arrival_process_names():
            assert name in message


class TestArrivalRegistry:
    def test_builtins(self):
        names = arrival_process_names()
        for builtin in ("poisson", "diurnal", "flash"):
            assert builtin in names
        assert CLOSED not in names

    def test_make_dispatches(self):
        spec = ArrivalSpec(process="poisson", rate_per_s=1.0)
        assert isinstance(make_arrival_process(spec), PoissonArrivals)

    def test_plugin_process(self, scratch_registries):
        class DoubleArrivals(PoissonArrivals):
            @property
            def peak_rate(self):
                return 2.0 * self.spec.rate_per_s

            def rate_at(self, t):
                return 2.0 * self.spec.rate_per_s

        register_arrival_process("double", DoubleArrivals)
        spec = ArrivalSpec(process="double", rate_per_s=1.5)
        process = make_arrival_process(spec)
        assert process.peak_rate == pytest.approx(3.0)

    def test_cannot_register_closed(self):
        with pytest.raises(ValueError):
            register_arrival_process(CLOSED, PoissonArrivals)
        with pytest.raises(ValueError):
            register_arrival_process("", PoissonArrivals)


class TestRateProfiles:
    def test_poisson_constant(self):
        process = make_arrival_process(
            ArrivalSpec(process="poisson", rate_per_s=3.0)
        )
        assert process.peak_rate == 3.0
        assert process.rate_at(0.0) == process.rate_at(1234.5) == 3.0

    def test_diurnal_oscillates_around_mean(self):
        spec = ArrivalSpec(
            process="diurnal", rate_per_s=2.0,
            diurnal_period_s=100.0, diurnal_amplitude=0.5,
        )
        process = make_arrival_process(spec)
        assert isinstance(process, DiurnalArrivals)
        assert process.peak_rate == pytest.approx(3.0)
        assert process.rate_at(0.0) == pytest.approx(2.0)  # sin(0) = 0
        assert process.rate_at(25.0) == pytest.approx(3.0)  # quarter period
        assert process.rate_at(75.0) == pytest.approx(1.0)
        assert all(
            process.rate_at(t / 10.0) <= process.peak_rate + 1e-12
            for t in range(2000)
        )

    def test_flash_burst_window(self):
        spec = ArrivalSpec(
            process="flash", rate_per_s=1.0,
            flash_at_s=10.0, flash_duration_s=5.0, flash_multiplier=4.0,
        )
        process = make_arrival_process(spec)
        assert isinstance(process, FlashArrivals)
        assert process.rate_at(9.9) == 1.0
        assert process.rate_at(10.0) == 4.0
        assert process.rate_at(14.9) == 4.0
        assert process.rate_at(15.0) == 1.0
        assert process.peak_rate == 4.0


class TestConfigWiring:
    def test_workload_type_checked(self):
        with pytest.raises(TypeError):
            SpiffiConfig(workload="poisson")

    def test_legacy_admission_string_rejected(self):
        with pytest.raises(TypeError, match="AdmissionSpec"):
            SpiffiConfig(admission="fixed")

    def test_admission_type_checked(self):
        with pytest.raises(TypeError):
            SpiffiConfig(admission=42)

    def test_default_workload_omitted_from_canonical_dict(self):
        # Pre-workload configs must keep their digests (cache validity).
        closed = SpiffiConfig()
        assert "workload" not in config_to_dict(closed)
        explicit = SpiffiConfig(workload=ArrivalSpec())
        assert config_digest(explicit) == config_digest(closed)

    def test_open_workload_changes_digest(self):
        closed = SpiffiConfig()
        open_config = SpiffiConfig(
            workload=ArrivalSpec(process="poisson", rate_per_s=1.0)
        )
        assert "workload" in config_to_dict(open_config)
        assert config_digest(open_config) != config_digest(closed)
