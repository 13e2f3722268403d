"""Golden-digest identity: optimized kernel ≡ pre-optimization kernel.

The digests below were recorded on the commit *before* the kernel hot
path was optimized (run-loop inlining, ``__slots__``, inlined heap
pushes, lazy condition values).  A mid-size ``SpiffiSystem`` run must
reproduce them bit-for-bit — including ``events_processed``, so the
optimized kernel is not even allowed to schedule a different number of
events — under both the serial executor (``--jobs 1``) and the process
pool (``--jobs 4``), on the heap kernel and on the calendar-queue oracle
in ``calendar_kernel.py``: swapping the scheduling data structure must
never change the schedule.

If an intentional simulation-behaviour change lands later, re-record
with::

    PYTHONPATH=src python -c "import tests.sim.test_golden_digest as g; g.print_current()"
"""

import hashlib
import json

import pytest

from repro import MB, SpiffiConfig
from repro.experiments.results import config_digest
from repro.experiments.runner import (
    ProcessExecutor,
    Runner,
    RunRequest,
    SerialExecutor,
)

from tests.sim.calendar_kernel import SYSTEM_BACKENDS, system_kernels

#: sha256 of the sorted-JSON ``RunMetrics.deterministic_dict()`` of
#: ``midsize_config()``, recorded pre-optimization.
GOLDEN_METRICS_DIGEST = (
    "2db6b504668e183fc6658df5c46dbee2298d933cc2d98bd3d11ea434cea7d2bb"
)

#: Config digest pinning the exact simulated scenario (any change to
#: the config schema or defaults shows up here, not as a silent drift
#: of the metrics digest).
GOLDEN_CONFIG_DIGEST = (
    "1dcbc090e33dd57f85cf649e3cb87640e29b2822741540ca4a0455e54ccc01c4"
)

#: Recorded pre-optimization; equality is also asserted via the metrics
#: digest, but pinning it separately makes a drift diagnosable at a
#: glance ("the kernel did different work") without digest archaeology.
GOLDEN_EVENTS_PROCESSED = 46040


def midsize_config() -> SpiffiConfig:
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=32,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=60.0,
        seed=11,
    )


def metrics_digest(metrics) -> str:
    payload = json.dumps(metrics.deterministic_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_with(executor, config=None):
    runner = Runner(executor=executor, cache=None)
    try:
        outcome = runner.run_batch([RunRequest(config or midsize_config())])[0]
    finally:
        executor.close()
    assert not outcome.failed, outcome.error
    return outcome.metrics


def test_config_digest_pinned():
    assert config_digest(midsize_config()) == GOLDEN_CONFIG_DIGEST


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_identity_jobs_1(backend, monkeypatch):
    with system_kernels(backend, monkeypatch) as built:
        metrics = run_with(SerialExecutor())
    assert len(built) == (backend == "calendar")
    assert metrics.events_processed == GOLDEN_EVENTS_PROCESSED
    assert metrics_digest(metrics) == GOLDEN_METRICS_DIGEST


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_identity_jobs_4(backend, monkeypatch):
    with system_kernels(backend, monkeypatch):
        metrics = run_with(ProcessExecutor(jobs=4))
    assert metrics.events_processed == GOLDEN_EVENTS_PROCESSED
    assert metrics_digest(metrics) == GOLDEN_METRICS_DIGEST


def print_current() -> None:  # pragma: no cover - re-recording helper
    metrics = run_with(SerialExecutor())
    print("config digest: ", config_digest(midsize_config()))
    print("metrics digest:", metrics_digest(metrics))
    print("events:        ", metrics.events_processed)
