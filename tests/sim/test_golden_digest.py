"""The midsize golden run: row ``midsize`` of ``tests/pins.json``.

Recorded on the commit *before* the kernel hot path was optimized, so
the optimized kernel may not even schedule a different number of
events.  The row is one identity table of (shape × way × kernel
backend) cells, each a test through :func:`tests.pins.run`: here the
plain config at ``--jobs 1`` and ``--jobs 4`` on the heap kernel and
on the calendar-queue oracle (swapping the scheduling data structure
must never change the schedule); the 1-node cluster, inert proxy and
inert sharing cells are in ``tests/cluster/test_golden_identity.py``,
``tests/proxy/test_golden_disabled.py`` and
``tests/sharing/test_golden_inert.py``.
"""

import pytest

from repro import MB, SpiffiConfig
from tests import pins
from tests.sim.calendar_kernel import SYSTEM_BACKENDS


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


def test_config_digest_pinned():
    pins.check_config("midsize", midsize_config())


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_identity_jobs_1(backend):
    pins.check("midsize", pins.run(midsize_config(), "jobs_1", backend))


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_identity_jobs_4(backend):
    pins.check("midsize", pins.run(midsize_config(), "jobs_4", backend))
