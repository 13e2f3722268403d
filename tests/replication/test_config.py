"""Config-time validation and cache identity of the replication knobs."""

import pytest

from repro.core.config import MB, SpiffiConfig
from repro.experiments.results import config_digest, config_to_dict
from repro.faults import FaultSpec
from repro.layout.registry import LayoutSpec
from repro.replication.spec import ReplicationSpec


def config(**overrides):
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=4,
        videos_per_disk=1,
        video_length_s=60.0,
        server_memory_bytes=256 * MB,
        measure_s=5.0,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


class TestSpecValidation:
    def test_rejects_factor_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            ReplicationSpec(factor=0)

    def test_rejects_nonpositive_rebuild_bandwidth(self):
        with pytest.raises(ValueError, match="positive"):
            ReplicationSpec(rebuild_bandwidth_bytes_per_s=0.0)

    def test_enabled_and_label(self):
        assert not ReplicationSpec().enabled
        assert ReplicationSpec().label() == "r=1"
        assert ReplicationSpec(factor=2).enabled
        assert ReplicationSpec(factor=2, rebuild=False).label() == "r=2 no-rebuild"


class TestConfigValidation:
    def test_single_copy_layout_rejects_replication(self):
        with pytest.raises(ValueError) as excinfo:
            config(replication=ReplicationSpec(factor=2))
        # The error steers to the layouts that can host replicas.
        assert "mirrored" in str(excinfo.value)
        assert "chained" in str(excinfo.value)

    def test_factor_cannot_exceed_disk_count(self):
        with pytest.raises(ValueError, match="4 disks available"):
            config(
                layout=LayoutSpec("chained"),
                replication=ReplicationSpec(factor=5),
            )

    def test_fail_disk_ids_validated_against_disk_count(self):
        with pytest.raises(ValueError, match=r"valid: 0\.\.3"):
            config(faults=FaultSpec(fail_disk_ids=(4,)))

    def test_unreplicated_config_may_fail_all_but_one_disk(self):
        assert config(faults=FaultSpec(fail_disk_ids=(0, 1, 2))) is not None
        with pytest.raises(ValueError, match="at most 3 may fail"):
            config(faults=FaultSpec(fail_disk_ids=(0, 1, 2, 3)))

    def test_replication_tightens_the_fail_limit(self):
        """Factor f needs f survivors, so at most D - f disks may fail."""
        replicated = dict(
            layout=LayoutSpec("chained"), replication=ReplicationSpec(factor=2)
        )
        assert config(faults=FaultSpec(fail_disk_ids=(0, 1)), **replicated)
        with pytest.raises(ValueError, match="at most 2 may fail"):
            config(faults=FaultSpec(fail_disk_ids=(0, 1, 2)), **replicated)

    def test_replication_factor_property(self):
        assert config().replication_factor == 1
        replicated = config(
            layout=LayoutSpec("mirrored"), replication=ReplicationSpec(factor=2)
        )
        assert replicated.replication_factor == 2


class TestCacheIdentity:
    """Default replication hashes exactly like a pre-replication config."""

    def test_default_spec_dropped_from_canonical_dict(self):
        assert "replication" not in config_to_dict(config())

    def test_nondefault_spec_serialized(self):
        data = config_to_dict(
            config(
                layout=LayoutSpec("chained"),
                replication=ReplicationSpec(factor=2),
            )
        )
        assert data["replication"]["factor"] == 2
        assert data["replication"]["rebuild"] is True

    def test_explicit_default_spec_matches_omitted(self):
        assert config_digest(
            config(replication=ReplicationSpec())
        ) == config_digest(config())

    def test_replication_knobs_change_the_digest(self):
        base = config_digest(config())
        mirrored = config_digest(
            config(
                layout=LayoutSpec("mirrored"),
                replication=ReplicationSpec(factor=2),
            )
        )
        chained = config_digest(
            config(
                layout=LayoutSpec("chained"),
                replication=ReplicationSpec(factor=2),
            )
        )
        throttled = config_digest(
            config(
                layout=LayoutSpec("chained"),
                replication=ReplicationSpec(
                    factor=2, rebuild_bandwidth_bytes_per_s=1.0
                ),
            )
        )
        assert len({base, mirrored, chained, throttled}) == 4
