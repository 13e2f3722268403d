"""The name-registry contract, identical for every registry-backed spec.

Each kind of component is selected by name.  For all ten kinds:

* registering an empty or non-string name fails with
  ``"{kind} name must be a non-empty string, got {name!r}"``;
* selecting an unknown name fails with
  ``"unknown {kind} {name!r}; choose from {names}"``, the names in
  registration order (the arrival process lists its reserved
  ``"closed"`` first);
* a newly registered name is accepted by its spec and listed last.

The ``scratch_registries`` fixture rolls every registration back.
"""

import dataclasses
import typing

import pytest

from repro.api import (
    MB,
    AdmissionSpec,
    ArrivalSpec,
    LayoutSpec,
    PlacementSpec,
    ProxySpec,
    ReplacementSpec,
    RouterSpec,
    SchedulerSpec,
    SharingSpec,
    SpiffiConfig,
    access_model_names,
    admission_policy_names,
    arrival_process_names,
    layout_names,
    placement_names,
    prefix_policy_names,
    register_access_model,
    register_admission_policy,
    register_arrival_process,
    register_layout,
    register_placement,
    register_prefix_policy,
    register_replacement,
    register_router,
    register_scheduler,
    register_sharing_policy,
    replacement_names,
    router_names,
    scheduler_names,
    sharing_policy_names,
)


@dataclasses.dataclass(frozen=True)
class Kind:
    register: typing.Callable
    names: typing.Callable
    #: Builds the spec (or config) that selects *name*.
    select: typing.Callable[[str], object]
    #: A valid entry to register under a new name.
    entry: object
    #: What an unknown-name error lists, in registration order.
    choices: tuple[str, ...]


KINDS = {
    "admission policy": Kind(
        register_admission_policy,
        admission_policy_names,
        lambda name: AdmissionSpec(policy=name),
        lambda spec, *context: None,
        ("none", "fixed", "bandwidth"),
    ),
    "scheduler": Kind(
        register_scheduler,
        scheduler_names,
        SchedulerSpec,
        lambda spec: None,
        ("fcfs", "elevator", "round_robin", "gss", "realtime", "edf"),
    ),
    "access model": Kind(
        register_access_model,
        access_model_names,
        lambda name: SpiffiConfig(access_model=name),
        lambda count, skew: None,
        ("zipf", "uniform"),
    ),
    "layout": Kind(
        register_layout,
        layout_names,
        LayoutSpec,
        lambda counts, nodes, disks, block_size, rng: None,
        ("striped", "nonstriped", "mirrored", "chained"),
    ),
    "arrival process": Kind(
        register_arrival_process,
        arrival_process_names,
        lambda name: ArrivalSpec(process=name, rate_per_s=1.0),
        lambda spec: None,
        ("closed", "poisson", "diurnal", "flash"),
    ),
    "router": Kind(
        register_router,
        router_names,
        RouterSpec,
        lambda spec, cluster: None,
        ("least-loaded", "locality"),
    ),
    "placement": Kind(
        register_placement,
        placement_names,
        PlacementSpec,
        lambda spec, nodes, per: None,
        ("partitioned", "replicated", "chained-declustered"),
    ),
    "prefix policy": Kind(
        register_prefix_policy,
        prefix_policy_names,
        lambda name: ProxySpec(prefix_s=30.0, memory_bytes=16 * MB, policy=name),
        lambda: None,
        ("hottest",),
    ),
    "replacement policy": Kind(
        register_replacement,
        replacement_names,
        ReplacementSpec,
        lambda: None,
        ("global_lru", "love_prefetch"),
    ),
    "sharing policy": Kind(
        register_sharing_policy,
        sharing_policy_names,
        lambda name: SharingSpec(policy=name),
        (),
        ("none", "batch", "batch+chain"),
    ),
}

KIND_IDS = sorted(KINDS)


@pytest.mark.parametrize("kind", KIND_IDS)
@pytest.mark.parametrize("name", ["", None, 42])
def test_bad_name_is_rejected(kind, name, scratch_registries):
    spec = KINDS[kind]
    with pytest.raises(ValueError) as err:
        spec.register(name, spec.entry)
    assert str(err.value) == f"{kind} name must be a non-empty string, got {name!r}"
    assert spec.names() == tuple(c for c in spec.choices if c != "closed")


@pytest.mark.parametrize("kind", KIND_IDS)
def test_unknown_name_lists_the_registry_in_order(kind):
    spec = KINDS[kind]
    with pytest.raises(ValueError) as err:
        spec.select("no-such-name")
    assert str(err.value) == (
        f"unknown {kind} 'no-such-name'; choose from {spec.choices}"
    )


@pytest.mark.parametrize("kind", KIND_IDS)
def test_registered_name_is_selectable_and_listed_last(kind, scratch_registries):
    spec = KINDS[kind]
    spec.register("contract-probe", spec.entry)
    assert spec.names()[-1] == "contract-probe"
    spec.select("contract-probe")
    with pytest.raises(ValueError) as err:
        spec.select("no-such-name")
    assert str(err.value) == (
        f"unknown {kind} 'no-such-name'; choose from "
        f"{spec.choices + ('contract-probe',)}"
    )
