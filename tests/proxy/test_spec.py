"""ProxySpec validation, labels, cache form, and the prefix-policy
registry/plans — the pure-value layer of the proxy tier."""

import dataclasses
import math

import pytest

from repro.bufferpool.registry import ReplacementSpec
from repro.core.config import MB, SpiffiConfig
from repro.proxy import (
    HottestFirst,
    ProxySpec,
    make_prefix_policy,
    prefix_policy_names,
    register_prefix_policy,
)
from repro.schema import canonical_form


class TestProxySpec:
    def test_default_is_disabled(self):
        spec = ProxySpec()
        assert not spec.enabled
        assert spec.label() == "no-proxy"

    def test_enabled_needs_memory(self):
        with pytest.raises(ValueError, match="memory"):
            ProxySpec(prefix_s=30.0)

    def test_memory_without_prefix_is_rejected(self):
        with pytest.raises(ValueError, match="prefix_s"):
            ProxySpec(memory_bytes=16 * MB)

    def test_negative_prefix_is_rejected(self):
        with pytest.raises(ValueError, match="prefix_s"):
            ProxySpec(prefix_s=-1.0)

    @pytest.mark.parametrize("prefix_s", [math.nan, math.inf])
    def test_non_finite_prefix_is_rejected(self, prefix_s):
        # Anchored: the error must name the field itself, not merely
        # mention it (NaN used to fall through to the memory check).
        with pytest.raises(ValueError, match="^prefix_s"):
            ProxySpec(prefix_s=prefix_s, memory_bytes=16 * MB)

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown prefix policy"):
            ProxySpec(prefix_s=30.0, memory_bytes=16 * MB, policy="nope")

    def test_replacement_must_be_a_spec(self):
        with pytest.raises(TypeError, match="ReplacementSpec"):
            ProxySpec(prefix_s=30.0, memory_bytes=16 * MB, replacement="lru")

    def test_label_names_the_shape(self):
        spec = ProxySpec(prefix_s=60.0, memory_bytes=48 * MB)
        assert "60s" in spec.label()
        assert "48MB" in spec.label()
        assert "hottest" in spec.label()

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ProxySpec().prefix_s = 5.0


class TestCacheDict:
    def test_component_specs_collapse_to_names(self):
        spec = ProxySpec(
            prefix_s=30.0,
            memory_bytes=16 * MB,
            replacement=ReplacementSpec("love_prefetch"),
        )
        assert canonical_form(spec) == {
            "prefix_s": 30.0,
            "memory_bytes": 16 * MB,
            "replacement": "love_prefetch",
            "policy": "hottest",
        }

    def test_enabled_proxy_changes_the_config_digest(self):
        from repro.experiments.results import config_digest

        base = SpiffiConfig(terminals=4)
        proxied = base.replace(
            proxy=ProxySpec(prefix_s=30.0, memory_bytes=16 * MB)
        )
        assert config_digest(base) != config_digest(proxied)

    def test_every_proxy_knob_is_digest_visible(self, scratch_registries):
        from repro.experiments.results import config_digest

        register_prefix_policy("test-hottest", HottestFirst)
        variants = [
            ProxySpec(prefix_s=30.0, memory_bytes=16 * MB),
            ProxySpec(prefix_s=60.0, memory_bytes=16 * MB),
            ProxySpec(prefix_s=30.0, memory_bytes=32 * MB),
            ProxySpec(prefix_s=30.0, memory_bytes=16 * MB, policy="test-hottest"),
            ProxySpec(
                prefix_s=30.0,
                memory_bytes=16 * MB,
                replacement=ReplacementSpec("love_prefetch"),
            ),
        ]
        digests = {
            config_digest(SpiffiConfig(terminals=4, proxy=spec))
            for spec in variants
        }
        assert len(digests) == len(variants)


class TestSpiffiConfigValidation:
    def test_proxy_must_be_a_spec(self):
        with pytest.raises(TypeError, match="ProxySpec"):
            SpiffiConfig(terminals=4, proxy="yes please")

    def test_proxy_memory_must_hold_a_block(self):
        config = SpiffiConfig(terminals=4)
        with pytest.raises(ValueError, match="block"):
            config.replace(
                proxy=ProxySpec(prefix_s=30.0, memory_bytes=1024)
            )

    def test_enabled_proxy_shows_in_describe(self):
        config = SpiffiConfig(
            terminals=4, proxy=ProxySpec(prefix_s=30.0, memory_bytes=16 * MB)
        )
        assert "proxy" in config.describe()
        assert "proxy" not in SpiffiConfig(terminals=4).describe()


class TestPolicies:
    WEIGHTS = [0.1, 0.6, 0.3]  # popularity order: 1, 2, 0
    PREFIX = [2, 2, 1]

    def test_hottest_first_is_depth_first(self):
        plan = list(HottestFirst().plan(self.WEIGHTS, self.PREFIX))
        assert plan == [(1, 0), (1, 1), (2, 0), (0, 0), (0, 1)]

    def test_ties_break_by_title_id(self):
        plan = list(HottestFirst().plan([0.5, 0.5], [1, 1]))
        assert plan == [(0, 0), (1, 0)]

    def test_builtins_are_registered(self):
        assert "hottest" in prefix_policy_names()

    def test_make_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown prefix policy"):
            make_prefix_policy("absent")

    def test_third_party_registration(self, scratch_registries):
        class Reversed:
            def plan(self, weights, prefix_blocks):
                for vid in reversed(range(len(weights))):
                    for block in range(prefix_blocks[vid]):
                        yield vid, block

        register_prefix_policy("test-reversed", Reversed)
        spec = ProxySpec(prefix_s=30.0, memory_bytes=16 * MB, policy="test-reversed")
        assert isinstance(spec.build_policy(), Reversed)

    def test_bad_registration_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_prefix_policy("", HottestFirst)
