"""Tests for FaultSpec validation and identity."""

import dataclasses

import pytest

from repro.faults import FaultSpec


class TestDefaults:
    def test_default_is_disabled(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert spec.disk_fault_rate_per_hour == 0.0

    def test_disk_rate_enables(self):
        assert FaultSpec(disk_fault_rate_per_hour=1.0).enabled

    def test_label(self):
        assert FaultSpec().label() == "no faults"
        assert "disk" in FaultSpec(disk_fault_rate_per_hour=6.0).label()


class TestValidation:
    def test_negative_rate(self):
        with pytest.raises(ValueError):
            FaultSpec(disk_fault_rate_per_hour=-1.0)

    def test_zero_total_weight_with_rate(self):
        with pytest.raises(ValueError):
            FaultSpec(
                disk_fault_rate_per_hour=1.0,
                slow_weight=0.0,
                outage_weight=0.0,
                fail_weight=0.0,
            )

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            FaultSpec(slow_weight=-1.0)

    def test_multipliers_must_slow_things_down(self):
        with pytest.raises(ValueError):
            FaultSpec(slow_latency_multiplier=0.5)

    def test_nonpositive_durations(self):
        with pytest.raises(ValueError):
            FaultSpec(mean_slow_duration_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(mean_outage_duration_s=-2.0)

    def test_timeout_and_retries(self):
        with pytest.raises(ValueError):
            FaultSpec(request_timeout_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(max_retries=-1)


class TestNodeOutageScript:
    def test_stagger_must_be_finite_and_nonnegative(self):
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="fail_node_stagger_s"):
                FaultSpec(
                    fail_node_ids=(0, 1),
                    fail_nodes_at_s=10.0,
                    fail_node_stagger_s=bad,
                )

    def test_stagger_needs_at_least_two_nodes(self):
        with pytest.raises(ValueError, match="two fail_node_ids"):
            FaultSpec(
                fail_node_ids=(1,),
                fail_nodes_at_s=10.0,
                fail_node_stagger_s=5.0,
            )

    def test_recovery_at_the_stagger_instant_is_refused(self):
        with pytest.raises(ValueError, match="node_recover_after_s"):
            FaultSpec(
                fail_node_ids=(0, 1),
                fail_nodes_at_s=10.0,
                fail_node_stagger_s=5.0,
                node_recover_after_s=5.0,
            )

    def test_recovery_inside_the_stagger_window_is_allowed(self):
        spec = FaultSpec(
            fail_node_ids=(0, 1),
            fail_nodes_at_s=10.0,
            fail_node_stagger_s=5.0,
            node_recover_after_s=4.0,
        )
        assert spec.node_outages_enabled

    def test_recovery_without_outages_is_refused(self):
        with pytest.raises(ValueError, match="nothing to recover"):
            FaultSpec(node_recover_after_s=5.0)

    def test_label_shows_the_stagger(self):
        spec = FaultSpec(
            fail_node_ids=(0, 1),
            fail_nodes_at_s=10.0,
            fail_node_stagger_s=5.0,
        )
        assert "@5s apart" in spec.label()
        assert "@" not in FaultSpec(
            fail_node_ids=(0, 1), fail_nodes_at_s=10.0
        ).label()


class TestIdentity:
    def test_equality_is_field_wise(self):
        assert FaultSpec() == FaultSpec()
        assert FaultSpec(disk_fault_rate_per_hour=6.0) == FaultSpec(
            disk_fault_rate_per_hour=6.0
        )
        assert FaultSpec(disk_fault_rate_per_hour=6.0) != FaultSpec()

    def test_hashable_and_frozen(self):
        spec = FaultSpec()
        assert hash(spec) == hash(FaultSpec())
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.disk_fault_rate_per_hour = 1.0
