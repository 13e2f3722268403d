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

#: Every registry kind ``repro.registry.REGISTRIES`` holds.
KINDS = {
    "access model",
    "admission policy",
    "arrival process",
    "layout",
    "placement",
    "prefix policy",
    "replacement policy",
    "router",
    "scheduler",
    "sharing policy",
}

#: (kind, name) -> why the name stays although no run path names it.
ALLOWED = {
    ("sharing policy", "none"): "the inert SharingSpec default",
    ("admission policy", "none"): (
        "the inert AdmissionSpec default (the paper's setup)"
    ),
    ("admission policy", "fixed"): (
        "kept for ROADMAP item 15: the M/M/c/K+M admission oracle needs "
        "a hard stream cap"
    ),
    ("arrival process", "closed"): (
        "the ArrivalSpec default: the paper's closed workload, which every "
        "run that sets no arrival process selects unnamed"
    ),
    ("prefix policy", "hottest"): (
        "the ProxySpec.policy default: every proxy the prefixsweep "
        "experiment enables runs it unnamed"
    ),
}


def builtin_names() -> dict[str, list[str]]:
    """Kind -> names, as registered by a fresh ``import repro.api``."""
    script = (
        "import json, repro.api\n"
        "from repro.registry import REGISTRIES\n"
        "print(json.dumps({k: list(r.names()) for k, r in REGISTRIES.items()}))"
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
    return json.loads(output)


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
    assert set(names) == KINDS
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
