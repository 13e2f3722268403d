"""SharingSpec: validation, the policy registry, and config wiring."""

import dataclasses

import pytest

from repro.core.config import SpiffiConfig
from repro.experiments.results import config_to_dict
from repro.sharing import (
    SharingSpec,
    register_sharing_policy,
    sharing_policy_names,
)
from repro.sharing.spec import BATCH, CHAIN


class TestValidation:
    def test_default_is_inert(self):
        spec = SharingSpec()
        assert spec.policy == "none"
        assert not spec.enabled
        assert spec.components == frozenset()
        assert not (spec.batching or spec.chaining)

    def test_builtin_policies_registered(self):
        names = sharing_policy_names()
        for name in ("none", "batch", "batch+chain"):
            assert name in names

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown sharing policy"):
            SharingSpec(policy="telepathy")

    def test_components_follow_the_policy(self):
        spec = SharingSpec(policy="batch+chain")
        assert spec.components == frozenset({BATCH, CHAIN})
        assert spec.batching and spec.chaining

    @pytest.mark.parametrize(
        "field,value",
        [
            ("window_s", -1.0),
            # Non-finite windows: an inf one never launches its batch,
            # and a nan one fails mid-run in env.timeout.
            ("window_s", float("nan")),
            ("window_s", float("inf")),
        ],
    )
    def test_bad_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SharingSpec(policy="batch+chain", **{field: value})

    def test_batching_needs_a_positive_window(self):
        with pytest.raises(ValueError, match="window"):
            SharingSpec(policy="batch", window_s=0.0)

    def test_register_rejects_bad_names_and_components(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_sharing_policy("", (BATCH,))
        with pytest.raises(ValueError, match="unknown sharing components"):
            register_sharing_policy("test-bogus", ("teleport",))

    def test_register_custom_policy(self, scratch_registries):
        register_sharing_policy("test-batch-only", (BATCH,))
        spec = SharingSpec(policy="test-batch-only")
        assert spec.batching and not spec.chaining

    def test_labels(self):
        assert SharingSpec().label() == "no-sharing"
        assert "2" in SharingSpec(policy="batch", window_s=2.0).label()


class TestConfigWiring:
    def test_config_rejects_non_spec(self):
        with pytest.raises(TypeError, match="SharingSpec"):
            SpiffiConfig(sharing="batch")

    def test_inert_spec_omitted_from_cache_dict(self):
        data = config_to_dict(SpiffiConfig())
        assert "sharing" not in data
        explicit = config_to_dict(SpiffiConfig(sharing=SharingSpec()))
        assert explicit == data

    def test_active_spec_serializes_every_field(self):
        spec = SharingSpec(policy="batch+chain", window_s=3.0)
        data = config_to_dict(SpiffiConfig(sharing=spec))
        # Every field, plus the retired knobs at their old values.
        assert data["sharing"] == {
            **dataclasses.asdict(spec),
            "rate_delta": 0.05,
            "merge_max_lag_s": 60.0,
            "max_batch": 0,
            "chain_max_lag_s": 30.0,
            "chain_pin_limit_blocks": 32,
        }
        assert data["sharing"]["policy"] == "batch+chain"
        assert data["sharing"]["window_s"] == 3.0
