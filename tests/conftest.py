"""Fixtures shared by the test packages."""

import pytest

import repro.api  # noqa: F401  (imports every registry)
from repro.registry import REGISTRIES


@pytest.fixture
def scratch_registries():
    """Roll back every name registry to its state before the test."""
    saved = {kind: dict(registry.entries) for kind, registry in REGISTRIES.items()}
    yield
    for kind, registry in REGISTRIES.items():
        registry.entries = saved[kind]
