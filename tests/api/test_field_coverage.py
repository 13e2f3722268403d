"""Every config field is set by some run path.

A field that no experiment, benchmark, example or ``perfbench``
workload ever sets is a knob nothing measures: it only widens the
space a config fuzzer has to cover.  Each field of every dataclass
reachable from :class:`SpiffiConfig` and :class:`ClusterConfig` must
therefore be passed by name (``field=...``) somewhere in those trees,
or be the first field of its class passed positionally
(``SharingSpec("batch")``), or sit on :data:`ALLOWED` with the reason
it stays anyway.  A retired field keeps its old default in its class's
``schema_constants``, so digests do not move when it goes.
"""

import ast
import dataclasses
import pathlib

import pytest

from repro import schema
from repro.cluster.config import ClusterConfig
from repro.cluster.selfheal import SelfHealSpec
from repro.core.config import SpiffiConfig
from repro.faults.spec import FaultSpec
from repro.replication.spec import ReplicationSpec
from repro.sharing.spec import SharingSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Trees whose source counts as a run path.
RUN_PATHS = ("src/repro/experiments", "benchmarks", "examples", "perfbench")

TABLE_1 = "a Table 1 hardware constant: the paper fixes it, no run varies it"

#: Classes whose every field stays unset on purpose.
ALLOWED_CLASSES = {
    "DriveParameters": TABLE_1,
    "CpuParameters": TABLE_1,
    "InstructionCosts": TABLE_1,
    "NetworkParameters": TABLE_1,
}

#: (class, field) -> why the field stays although no run path sets it.
ALLOWED = {
    ("SpiffiConfig", "video_bit_rate_bps"): TABLE_1,
    ("SpiffiConfig", "frames_per_second"): TABLE_1,
    ("SpiffiConfig", "control_message_bytes"): TABLE_1,
    ("SpiffiConfig", "cpu"): TABLE_1,
    ("SpiffiConfig", "network"): TABLE_1,
    ("AdmissionSpec", "max_streams"): (
        "kept for ROADMAP item 15: the M/M/c/K+M admission oracle needs "
        "a hard stream cap"
    ),
}

#: Fields that no run path set, retired to module constants at their
#: old defaults: (class, field, the default every digest still holds).
RETIRED = [
    (FaultSpec, "failover_penalty_s", 0.5),
    (FaultSpec, "shed_during_outage", True),
    (FaultSpec, "attribution_grace_s", 5.0),
    (SharingSpec, "max_batch", 0),
    (SharingSpec, "chain_max_lag_s", 30.0),
    (SharingSpec, "chain_pin_limit_blocks", 32),
    (SelfHealSpec, "rebuild_load_penalty", 2.0),
    (ReplicationSpec, "suspect_cooldown_s", 10.0),
]


def reachable_classes() -> dict[str, type]:
    """Name -> dataclass, for every dataclass reachable from the two
    top-level configs through field defaults."""
    found: dict[str, type] = {}
    pending = [SpiffiConfig, ClusterConfig]
    while pending:
        cls = pending.pop()
        if cls.__name__ in found:
            continue
        found[cls.__name__] = cls
        for spec in dataclasses.fields(cls):
            if spec.default_factory is not dataclasses.MISSING:
                default = spec.default_factory
            else:
                default = type(spec.default)
            if dataclasses.is_dataclass(default):
                pending.append(default)
    return found


def set_in_run_paths(classes: dict[str, type]) -> set[tuple[str, str]]:
    """(class, field) pairs a run path sets: any keyword argument of
    that name, or the class's first field passed positionally."""
    keywords: set[str] = set()
    positional: set[str] = set()
    for tree in RUN_PATHS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                keywords.update(kw.arg for kw in node.keywords if kw.arg)
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in classes and node.args:
                    positional.add(name)
    pairs = set()
    for name, cls in classes.items():
        fields = dataclasses.fields(cls)
        for spec in fields:
            if spec.name in keywords:
                pairs.add((name, spec.name))
        if name in positional:
            pairs.add((name, fields[0].name))
    return pairs


def test_every_field_is_set_or_allowed():
    classes = reachable_classes()
    assert {"SpiffiConfig", "ClusterConfig", "FaultSpec", "SharingSpec"} <= set(
        classes
    )
    settable = {
        (name, spec.name)
        for name, cls in classes.items()
        if name not in ALLOWED_CLASSES
        for spec in dataclasses.fields(cls)
    }
    unset = sorted(settable - set_in_run_paths(classes) - set(ALLOWED))
    assert not unset, (
        f"config fields that no run path in {RUN_PATHS} sets: {unset}"
    )


def test_allow_list_names_only_real_fields():
    classes = reachable_classes()
    stale = [name for name in ALLOWED_CLASSES if name not in classes]
    stale += [
        (name, field)
        for name, field in ALLOWED
        if name not in classes
        or field not in {spec.name for spec in dataclasses.fields(classes[name])}
    ]
    assert not stale, f"allow-listed classes or fields that no longer exist: {stale}"


@pytest.mark.parametrize(
    "cls,name,default", RETIRED, ids=[name for _, name, _ in RETIRED]
)
def test_retired_field_is_rejected_and_keeps_its_digest_value(cls, name, default):
    with pytest.raises(TypeError, match=name):
        cls(**{name: default})
    assert schema.canonical_form(cls())[name] == default
