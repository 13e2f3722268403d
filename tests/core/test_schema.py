"""The declared schema: type checks, canonical forms and metric groups
come from field declarations (``repro.schema``)."""

import dataclasses

import pytest

from repro import schema
from repro.cluster import ClusterConfig
from repro.core.config import SpiffiConfig
from repro.core.metrics import RunMetrics
from repro.layout import LayoutSpec
from repro.proxy import ProxySpec


def spec_fields(config_type):
    """(config type, field name, spec class) for every field whose
    default factory is a dataclass."""
    return [
        (config_type, field.name, field.default_factory)
        for field in dataclasses.fields(config_type)
        if dataclasses.is_dataclass(field.default_factory)
    ]


SPEC_FIELDS = [
    case
    for config_type in (SpiffiConfig, ClusterConfig, ProxySpec)
    for case in spec_fields(config_type)
]


@pytest.mark.parametrize(
    "config_type, name, spec_class",
    SPEC_FIELDS,
    ids=[f"{config.__name__}.{name}" for config, name, _ in SPEC_FIELDS],
)
def test_bad_spec_type_fails_at_construction_naming_the_field(
    config_type, name, spec_class
):
    with pytest.raises(TypeError, match=rf"\.{name} must be a {spec_class.__name__},"):
        config_type(**{name: "x"})


def test_every_spec_field_is_covered():
    names = {f"{config.__name__}.{name}" for config, name, _ in SPEC_FIELDS}
    assert {"SpiffiConfig.cpu", "SpiffiConfig.prefetch", "ClusterConfig.node"} <= names
    assert "ProxySpec.replacement" in names


@dataclasses.dataclass(frozen=True)
class Widget:
    size: int = 1


@dataclasses.dataclass(frozen=True)
class ToyConfig:
    """A throwaway subsystem owner: one declaration per field."""

    schema_constants = {"retired_knob": 0.0}

    seed: int = 1
    layout: LayoutSpec = schema.field(factory=LayoutSpec, digest=schema.AS_NAME)
    widget: Widget = schema.field(factory=Widget, digest=schema.OMIT_WHEN_DEFAULT)
    inner: Widget = dataclasses.field(default_factory=Widget)
    level: float = schema.field(0.0, digest=schema.OMIT_WHEN_DEFAULT)
    hits: int = schema.field(0, group="cache")
    misses: int = schema.field(0, group="cache")
    wall_s: float = dataclasses.field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        schema.check_types(self)


class TestToyConfig:
    def test_type_check_names_field_and_class(self):
        with pytest.raises(TypeError, match=r"ToyConfig\.widget must be a Widget"):
            ToyConfig(widget={"size": 2})
        with pytest.raises(TypeError, match=r"ToyConfig\.inner must be a Widget"):
            ToyConfig(inner=None)

    def test_default_form(self):
        assert schema.canonical_form(ToyConfig()) == {
            "retired_knob": 0.0,
            "seed": 1,
            "layout": "striped",
            "inner": {"size": 1},
        }

    def test_active_form(self):
        config = ToyConfig(widget=Widget(3), level=0.5, hits=2, wall_s=9.0)
        assert schema.canonical_form(config) == {
            "retired_knob": 0.0,
            "seed": 1,
            "layout": "striped",
            "widget": {"size": 3},
            "inner": {"size": 1},
            "level": 0.5,
            "hits": 2,
            "misses": 0,
        }

    def test_group_filter_keeps_a_group_with_any_nonzero_field(self):
        data = {"hits": 0, "misses": 0, "seed": 1}
        assert schema.drop_inert_groups(ToyConfig(), dict(data)) == {"seed": 1}
        assert schema.drop_inert_groups(ToyConfig(misses=1), dict(data)) == data

    def test_field_reusing_a_retired_key_is_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Revived:
            schema_constants = {"retired_knob": 0.0}

            retired_knob: float = 1.0

        with pytest.raises(TypeError, match=r"Revived\.retired_knob .*retired"):
            schema.canonical_form(Revived())

    def test_unknown_digest_rule_is_rejected(self):
        with pytest.raises(ValueError, match="digest rule"):
            schema.field(0, digest="sometimes")


class TestRunMetricsGroups:
    def metrics(self, **values):
        counters = {
            field.name: 0
            for field in dataclasses.fields(RunMetrics)
            if field.default is dataclasses.MISSING
        }
        return RunMetrics(**{**counters, **values})

    def test_inert_groups_and_non_compared_fields_are_not_digested(self):
        values = self.metrics(per_node=({"node": 0},), wall_time_s=3.0).deterministic_dict()
        for absent in ("proxy_hits", "chain_reads", "lost_sessions", "per_node", "wall_time_s"):
            assert absent not in values
        assert values["events_processed"] == 0

    def test_one_active_field_keeps_its_whole_group(self):
        values = self.metrics(lost_sessions=1).deterministic_dict()
        assert values["lost_sessions"] == 1
        assert values["rejoin_resync_bytes"] == 0
        assert "proxy_hits" not in values
