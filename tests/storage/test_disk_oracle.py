"""The disk model against its closed form (Table 1).

One drive serves a standing FCFS backlog of uniformly random reads.
Each read's expected service time follows from the Table 1 constants
alone:

* seek: ``settle + seek_factor·√d`` over the distribution of the
  distance *d* from the previous read's last cylinder to this read's
  first (no seek at all when ``d = 0``);
* rotational latency: half a revolution;
* transfer: ``size / rate``, plus one settle per cylinder boundary
  crossed mid-transfer, ``(size - 1) / cylinder_bytes`` boundaries on
  average for a uniform offset.

The simulated mean must match within :data:`TOLERANCE`.  At
:data:`READS` reads the standard error of the sample mean is about
0.2 % of it, so the tolerance flags a modelling error, not noise.
"""

import random

import numpy as np
import pytest

from repro.sched import FcfsScheduler
from repro.sim import Environment, RandomSource
from repro.storage import DiskDrive, DiskGeometry, DiskRequest, DriveParameters

#: Reads per run, and reads kept outstanding so the drive never idles.
READS = 4000
DEPTH = 4
#: Cylinders on the simulated disk: 4 Gbytes, about the ST15150N.
CYLINDERS = 3200
#: Allowed relative error of the mean service time.
TOLERANCE = 0.01


def start_end_cylinders(params: DriveParameters, capacity: int, size: int):
    """Probabilities of a read's first and last cylinder when its
    offset is uniform over ``[0, capacity - size]``."""
    cylinder = params.cylinder_bytes
    last_offset = capacity - size
    lows = np.arange(-(-capacity // cylinder)) * cylinder

    def share(first_offsets):
        low = np.clip(first_offsets, 0, last_offset + 1)
        high = np.clip(first_offsets + cylinder, 0, last_offset + 1)
        return (high - low) / (last_offset + 1)

    return share(lows), share(lows - size + 1)


def closed_form_service_s(params: DriveParameters, capacity: int, size: int) -> float:
    start, end = start_end_cylinders(params, capacity, size)
    # P(d) for d = |start - previous end|, the two reads independent.
    joint = np.correlate(start, end, mode="full")
    distance = np.abs(np.arange(-(len(start) - 1), len(start)))
    seek_s = (params.settle_time_ms + params.seek_factor_ms * np.sqrt(distance)) / 1000
    seek_s[distance == 0] = 0.0
    mean_seek = float(np.dot(joint, seek_s))
    half_rotation = params.rotation_time_ms / 2000
    crossings = (size - 1) / params.cylinder_bytes
    transfer = size / params.transfer_rate_bytes + crossings * params.settle_time_ms / 1000
    return mean_seek + half_rotation + transfer


def simulate_service_s(params: DriveParameters, capacity: int, size: int) -> float:
    env = Environment()
    geometry = DiskGeometry(params.cylinder_bytes, capacity)
    drive = DiskDrive(env, 0, params, geometry, FcfsScheduler(), RandomSource(3))
    offsets = random.Random(11)

    def client(reads):
        for _ in range(reads):
            offset = offsets.randint(0, capacity - size)
            request = DiskRequest(
                env, offset, size, cylinder=geometry.cylinder_of(offset)
            )
            drive.submit(request)
            yield request.done

    for _ in range(DEPTH):
        env.process(client(READS // DEPTH))
    env.run()
    assert drive.reads == READS
    return drive.service_times.mean


@pytest.mark.parametrize("size", [64 * 1024, 512 * 1024], ids=["64KB", "512KB"])
def test_fcfs_random_reads_match_the_closed_form(size):
    params = DriveParameters()
    capacity = CYLINDERS * params.cylinder_bytes
    expected = closed_form_service_s(params, capacity, size)
    simulated = simulate_service_s(params, capacity, size)
    assert simulated == pytest.approx(expected, rel=TOLERANCE)


def test_closed_form_seek_matches_the_uniform_limit():
    """Sanity check of the oracle itself: on many cylinders the mean
    seek approaches ``settle + seek_factor·√C·8/15`` (continuous
    uniform start and end)."""
    params = DriveParameters()
    capacity = CYLINDERS * params.cylinder_bytes
    size = 1
    mean = closed_form_service_s(params, capacity, size)
    transfer = size / params.transfer_rate_bytes
    seek = mean - params.rotation_time_ms / 2000 - transfer
    limit = (params.settle_time_ms + params.seek_factor_ms * CYLINDERS**0.5 * 8 / 15) / 1000
    assert seek == pytest.approx(limit, rel=0.005)
