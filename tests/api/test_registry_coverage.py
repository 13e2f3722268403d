"""Every built-in registry name is selected by some run path.

A registered name that no experiment, benchmark, example or
``perfbench`` workload selects is a mechanism nothing measures.  Each
built-in name must therefore appear as a quoted string in one of those
trees, or sit on :data:`ALLOWED` with the reason it stays anyway.

The built-in names are read in a fresh interpreter, so plugin
registrations made by other tests cannot leak in.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Trees whose source counts as a run path.
RUN_PATHS = ("src/repro/experiments", "benchmarks", "examples", "perfbench")

#: registry -> (module, function returning the registered names).
REGISTRIES = {
    "sharing": ("repro.sharing.spec", "sharing_policy_names"),
    "placement": ("repro.cluster.placement", "placement_names"),
    "router": ("repro.cluster.routing", "router_names"),
    "admission": ("repro.server.admission", "admission_policy_names"),
    "layout": ("repro.layout.registry", "layout_names"),
    "scheduler": ("repro.sched.registry", "scheduler_names"),
    "replacement": ("repro.bufferpool.registry", "replacement_names"),
    "arrival process": ("repro.workload.arrivals", "arrival_process_names"),
    "access model": ("repro.media.access", "access_model_names"),
    "proxy": ("repro.proxy.policies", "prefix_policy_names"),
}

#: (registry, name) -> why the name stays although no run path names it.
ALLOWED = {
    ("sharing", "none"): "the inert SharingSpec default",
    ("admission", "none"): "the inert AdmissionSpec default (the paper's setup)",
    ("admission", "fixed"): (
        "kept for ROADMAP item 15: the M/M/c/K+M admission oracle needs "
        "a hard stream cap"
    ),
    ("proxy", "hottest"): (
        "the ProxySpec.policy default: every proxy the prefixsweep "
        "experiment enables runs it unnamed"
    ),
}


def builtin_names() -> dict[str, list[str]]:
    """Registry -> names, as registered by a fresh ``import repro``."""
    script = "import importlib, json\n" + "\n".join(
        f"print(json.dumps([{registry!r}, "
        f"list(importlib.import_module({module!r}).{function}())]))"
        for registry, (module, function) in REGISTRIES.items()
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    output = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    ).stdout
    return dict(json.loads(line) for line in output.splitlines())


def run_path_source() -> str:
    return "\n".join(
        path.read_text()
        for tree in RUN_PATHS
        for path in sorted((ROOT / tree).rglob("*.py"))
    )


@pytest.fixture(scope="module")
def names():
    return builtin_names()


def test_every_registry_is_read(names):
    assert set(names) == set(REGISTRIES)
    assert all(names.values())


def test_every_builtin_name_is_selected_or_allowed(names):
    source = run_path_source()
    unselected = [
        (registry, name)
        for registry, registered in names.items()
        for name in registered
        if f'"{name}"' not in source
        and f"'{name}'" not in source
        and (registry, name) not in ALLOWED
    ]
    assert not unselected, (
        f"registered but selected by no run path in {RUN_PATHS}: {unselected}"
    )


def test_allow_list_names_only_registered_names(names):
    stale = [
        (registry, name)
        for registry, name in ALLOWED
        if name not in names.get(registry, [])
    ]
    assert not stale, f"allow-listed names that are no longer registered: {stale}"
