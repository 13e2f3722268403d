"""The public-API audit: ``repro.api`` is complete, sorted, and
uniform.

Three contracts:

* ``__all__`` is exactly the module's public surface, ASCII-sorted —
  nothing exported that isn't declared, nothing declared that isn't
  there;
* every registry-backed ``*Spec`` ships its ``*_names()`` enumerator
  and ``register_*`` extension hook alongside it (pure value specs are
  exempt — they have nothing to register);
* the examples are written against ``repro.api`` (or the ``repro``
  root) only — no deep imports into the package internals.
"""

import ast
import json
import os
import subprocess
import sys
import types

import repro.api as api

#: Registry-backed spec -> (its names enumerator, its register hook).
SPEC_REGISTRIES = {
    "AdmissionSpec": ("admission_policy_names", "register_admission_policy"),
    "ArrivalSpec": ("arrival_process_names", "register_arrival_process"),
    "LayoutSpec": ("layout_names", "register_layout"),
    "PlacementSpec": ("placement_names", "register_placement"),
    "ProxySpec": ("prefix_policy_names", "register_prefix_policy"),
    "ReplacementSpec": ("replacement_names", "register_replacement"),
    "RouterSpec": ("router_names", "register_router"),
    "SchedulerSpec": ("scheduler_names", "register_scheduler"),
    "SharingSpec": ("sharing_policy_names", "register_sharing_policy"),
}

#: Pure value specs: parameters only, no registry behind them.
VALUE_SPECS = {"FaultSpec", "PrefetchSpec", "ReplicationSpec", "SelfHealSpec"}


def public_attributes():
    return {
        name
        for name, value in vars(api).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


class TestAllList:
    def test_every_export_exists(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_all_matches_the_public_surface(self):
        assert public_attributes() == set(api.__all__)

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_ascii_sorted(self):
        assert list(api.__all__) == sorted(api.__all__)


class TestSpecUniformity:
    def spec_names(self):
        return {name for name in api.__all__ if name.endswith("Spec")}

    def test_every_spec_is_classified(self):
        unclassified = (
            self.spec_names() - set(SPEC_REGISTRIES) - VALUE_SPECS
        )
        assert unclassified == set(), (
            f"new spec(s) {sorted(unclassified)} must be added to "
            "SPEC_REGISTRIES (with their names/register hooks) or to "
            "VALUE_SPECS"
        )

    def test_registry_specs_ship_their_hooks(self):
        for spec, (names, register) in SPEC_REGISTRIES.items():
            assert spec in api.__all__, spec
            assert names in api.__all__, f"{spec} without {names}"
            assert register in api.__all__, f"{spec} without {register}"
            assert callable(getattr(api, names))
            assert callable(getattr(api, register))

    def test_enumerators_return_names(self):
        for _, (names, _) in SPEC_REGISTRIES.items():
            listed = getattr(api, names)()
            assert len(listed) > 0
            assert all(isinstance(name, str) for name in listed)

    def test_runnable_registry_is_exported(self):
        assert "run" in api.__all__
        assert "register_runnable" in api.__all__
        assert "runnable_kinds" in api.__all__
        assert set(api.runnable_kinds()) >= {"cluster", "system"}


class TestExamplesImportSurface:
    def examples_dir(self):
        return os.path.join(os.path.dirname(api.__file__), "..", "..", "examples")

    def repro_imports(self, path):
        tree = ast.parse(open(path).read())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name.startswith("repro")]
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("repro"):
                    found.append(node.module)
        return found

    def test_examples_exist(self):
        assert len(os.listdir(self.examples_dir())) >= 5

    def test_examples_import_only_the_api(self):
        offenders = {}
        for name in sorted(os.listdir(self.examples_dir())):
            if not name.endswith(".py"):
                continue
            path = os.path.join(self.examples_dir(), name)
            deep = [
                module
                for module in self.repro_imports(path)
                if module not in ("repro", "repro.api")
            ]
            if deep:
                offenders[name] = deep
        assert offenders == {}, (
            f"examples must import from repro.api only: {offenders}"
        )


def test_importing_the_api_loads_no_process_pool_machinery():
    """Serial runs never start a process pool, so ``import repro.api``
    in a fresh interpreter leaves ``multiprocessing`` and the process
    pool module unloaded; the parallel executor imports them when it
    builds its pool."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    script = (
        "import json, sys\n"
        "import repro.api\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    ).stdout
    loaded = set(json.loads(output))
    assert "repro.experiments.runner" in loaded
    assert "concurrent.futures.process" not in loaded
    assert not {name for name in loaded if name.split(".")[0] == "multiprocessing"}
