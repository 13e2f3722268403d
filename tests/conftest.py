"""Fixtures shared by the test packages, and the pin-store switch:
``--pins=report`` prints the moved rows of ``tests/pins.json`` instead
of failing on them; ``--pins=write`` also rewrites the store, or fails
the session when two cases of one row disagree (``tests/pins.py``)."""

import pytest

import repro.api  # noqa: F401  (imports every registry)
from repro.registry import REGISTRIES
from tests import pins


def pytest_addoption(parser):
    parser.addoption(
        "--pins",
        choices=pins.MODES,
        default="check",
        help="check the golden runs against tests/pins.json (default), "
        "report the moved rows, or write the store",
    )


def pytest_configure(config):
    pins.STORE.mode = config.getoption("--pins")


def pytest_sessionfinish(session):
    if pins.STORE.mode == "write":
        try:
            pins.STORE.write()
        except pins.IdentityBreak:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if pins.STORE.mode != "check":
        terminalreporter.write(pins.STORE.report())


@pytest.fixture
def scratch_registries():
    """Roll back every name registry to its state before the test."""
    saved = {kind: dict(registry.entries) for kind, registry in REGISTRIES.items()}
    yield
    for kind, registry in REGISTRIES.items():
        registry.entries = saved[kind]
