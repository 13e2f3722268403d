"""Tests for SpiffiConfig validation and derived quantities."""

import math
import re

import pytest

from repro import GB, KB, LayoutSpec, MB, ReplacementSpec, SpiffiConfig
from repro.prefetch import PrefetchSpec
from repro.sched import SchedulerSpec


class TestDefaults:
    def test_table1_base_configuration(self):
        config = SpiffiConfig()
        assert config.nodes == 4
        assert config.disks_per_node == 4
        assert config.disk_count == 16
        assert config.video_count == 64
        assert config.stripe_bytes == 512 * KB
        assert config.server_memory_bytes == 4 * GB
        assert config.terminal_memory_bytes == 2 * MB
        assert config.video_bit_rate_bps == 4_000_000.0
        assert config.cpu.speed_mips == 40.0
        assert config.drive.seek_factor_ms == 0.283
        assert config.drive.rotation_time_ms == 8.333

    def test_derived_pages(self):
        config = SpiffiConfig()
        # 1 GB per node at 512 KB pages.
        assert config.pages_per_node == 2048
        assert config.terminal_slots == 4

    def test_warmup_composition(self):
        config = SpiffiConfig(start_spread_s=10, warmup_grace_s=5, measure_s=60)
        assert config.warmup_s == 15
        assert config.total_sim_time_s == 75


class TestValidation:
    def test_bad_layout(self):
        # The error names the registered layouts so plugin authors can
        # see what is actually available.
        with pytest.raises(ValueError, match="striped"):
            SpiffiConfig(layout=LayoutSpec("raid5"))

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="global_lru"):
            SpiffiConfig(replacement_policy=ReplacementSpec("mru"))

    def test_bad_access_model(self):
        with pytest.raises(ValueError, match="zipf"):
            SpiffiConfig(access_model="pareto")

    def test_wrong_spec_type(self):
        with pytest.raises(TypeError):
            SpiffiConfig(layout=42)
        with pytest.raises(TypeError):
            SpiffiConfig(replacement_policy=3.5)

    def test_terminal_memory_too_small(self):
        with pytest.raises(ValueError):
            SpiffiConfig(terminal_memory_bytes=512 * KB)

    def test_server_memory_too_small(self):
        with pytest.raises(ValueError):
            SpiffiConfig(server_memory_bytes=1 * MB)

    def test_zero_terminals(self):
        with pytest.raises(ValueError):
            SpiffiConfig(terminals=0)

    def test_zero_measure(self):
        with pytest.raises(ValueError):
            SpiffiConfig(measure_s=0)

    @pytest.mark.parametrize("field", ["video_length_s", "measure_s"])
    @pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
    def test_bad_length_names_field_and_value(self, field, value):
        message = f"{field} must be positive and finite, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SpiffiConfig(**{field: value})

    @pytest.mark.parametrize("field", ["video_bit_rate_bps", "frames_per_second"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_stream_rate_names_field_and_value(self, field, value):
        message = f"{field} must be positive and finite, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SpiffiConfig(**{field: value})


class TestLegacyStrings:
    """Bare component-name strings no longer coerce: specs only."""

    def test_layout_string_rejected(self):
        with pytest.raises(TypeError, match="LayoutSpec"):
            SpiffiConfig(layout="nonstriped")

    def test_replacement_string_rejected(self):
        with pytest.raises(TypeError, match="ReplacementSpec"):
            SpiffiConfig(replacement_policy="love_prefetch")

    def test_admission_string_rejected(self):
        with pytest.raises(TypeError, match="AdmissionSpec"):
            SpiffiConfig(admission="bandwidth")


class TestReplace:
    def test_replace_returns_new_config(self):
        config = SpiffiConfig()
        other = config.replace(terminals=50)
        assert other.terminals == 50
        assert config.terminals == 100
        assert other.disk_count == config.disk_count

    def test_describe_mentions_algorithms(self):
        config = SpiffiConfig(
            scheduler=SchedulerSpec("realtime"),
            prefetch=PrefetchSpec("delayed"),
            replacement_policy=ReplacementSpec("love_prefetch"),
        )
        text = config.describe()
        assert "real-time" in text
        assert "delayed" in text
        assert "love_prefetch" in text
