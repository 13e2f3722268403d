"""Renewal-theory oracle for the ``batch`` launch window.

One title, Poisson arrivals at rate ``lam``, no admission cap and a
batch window ``w``.  An arrival with no open window opens one; every
arrival inside it joins; the batch launches ``w`` later and the next
arrival opens the next window.  By memorylessness the gap from a launch
to that next arrival is exponential with mean ``1/lam``, so batch
openings form a renewal process with cycle ``C = w + Exp(lam)``:

    E[C] = w + 1/lam        Var[C] = 1/lam**2

and the long-run launch rate is ``1/E[C] = lam / (1 + lam*w)`` (the
single-video batching analysis of Yang & Hajek, arXiv 1307.0849).

Tolerance.  For a renewal process the count over a window ``T`` is
asymptotically normal with mean ``T/E[C]`` and variance
``T*Var[C]/E[C]**3``.  The test allows four standard deviations.  The
followers of one batch are the Poisson arrivals inside its window, so
their mean per batch is ``lam*w`` with variance ``lam*w / n`` over
``n`` batches; that check also gets four standard deviations.
"""

import math

from repro import MB, SpiffiConfig, run_simulation
from repro.sharing import SharingSpec
from repro.workload import ArrivalSpec

LAM = 0.5  # arrivals per second
WINDOW = 4.0  # seconds
MEASURE = 6000.0  # seconds: ~1000 cycles, ~3000 short sessions


def renewal_config() -> SpiffiConfig:
    return SpiffiConfig(
        nodes=1,
        disks_per_node=1,
        videos_per_disk=1,  # a single title
        video_length_s=30.0,
        server_memory_bytes=16 * MB,
        sharing=SharingSpec(policy="batch", window_s=WINDOW),
        # Default admission: no cap, so no arrival ever queues or balks.
        workload=ArrivalSpec(
            process="poisson", rate_per_s=LAM, mean_view_duration_s=1.0
        ),
        start_spread_s=0.0,
        warmup_grace_s=20.0,
        measure_s=MEASURE,
        seed=1,
    )


def test_batch_launch_rate_matches_the_renewal_rate():
    metrics = run_simulation(renewal_config())
    assert metrics.rejected_sessions == 0

    mean_cycle = WINDOW + 1.0 / LAM
    expected = MEASURE / mean_cycle  # = MEASURE * LAM / (1 + LAM * WINDOW)
    sd = math.sqrt(MEASURE * (1.0 / LAM**2) / mean_cycle**3)
    assert abs(metrics.batches_launched - expected) <= 4 * sd, (
        metrics.batches_launched, expected, sd
    )

    batches = metrics.batches_launched
    followers = metrics.shared_streams / batches
    assert abs(followers - LAM * WINDOW) <= 4 * math.sqrt(LAM * WINDOW / batches)
