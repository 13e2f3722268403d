"""Differential tests: every scheduler vs the naive reference.

The seeded programs in ``tests/sim/harness.py`` — random process
tangles and queue-stress event programs built only from the API surface
the kernels share — replay on ``repro.sim.Environment``, on the same
kernel driven by the calendar-queue oracle in ``calendar_kernel.py`` at
every bucket width, and on the ~60-line sorted-list interpreter in
``reference_kernel.py``.  Every observable must match at every seed:
the step-by-step execution log (who resumed, when, with what value),
process completion order and return values, the final clock, the number
of events processed, and the pending count at the deadline.

The extended kernel surface (interrupts, URGENT delivery, child joins)
is beyond the reference interpreter, so those programs replay two-way —
every calendar width against the heap kernel — and are pinned by a
golden table of observation digests.
"""

from bisect import insort

import pytest

from repro.sim import Environment, SimError

from tests.sim.calendar_kernel import QueueEnvironment
from tests.sim.harness import (
    BACKEND_NAMES,
    EVENT_PROGRAM_HORIZON,
    build_event_program,
    make_env,
    observation_digest,
    replay_random_graph,
    run_on,
)
from tests.sim.reference_kernel import RefEnvironment

SEEDS = range(25)

#: ``observation_digest(replay_random_graph("heap", seed))`` per seed,
#: recorded while the heap kernel and every calendar width agreed.
#: Re-record only for an intentional change to interrupt / URGENT
#: semantics, with ``print_random_graph_digests()`` below.
GOLDEN_RANDOM_GRAPH_DIGESTS = {
    0: "153e386eea807dfc8a4efe3a492b451d559d5b06794fe080a10cf7e0815b7bed",
    1: "66701d0da44fea84d32f2761649bb5dfefac0232beb8624ba43fa5194fc18fe9",
    2: "899cc164a22ec2d643cfdcfb3fd3a29592f3158210c6d84fc33eb1aae9402340",
    3: "47054de3bf4fb53a077a9a89bdf703918d5396a41a43bfc9be9620481b2f6eee",
    4: "2ce0b49a421c42b74e8d9b8fac70d5b2aee0ab4a0834834e89ccbe7533cc8693",
    5: "19b52376cbde8b5764e84f1180d97c075c97023737f9358718a4db50a9d7c79e",
    6: "a06434c1f58403ad2f0e6bb6da6821059c0c03847b4341da8c577374ac540496",
    7: "48bddabacf5bb9d3a32ff528a53c8b5ac53a688d0aee1f958d672692a7ec5f09",
    8: "c26e6aa63db7b998e7d5eb1cd3fc8f0adb8f6c64f96e5fb2a31aea03c5eb3417",
    9: "6d302555c02ca4a2b6bbd6b5e4bc8b711cffc498154b715c21bb2832f354edc3",
    10: "0d8d5601a08f2c2a5ccbcb40aca2e5f94cabaf3042062e0afa62777cebadc495",
    11: "4baa4709a831f4230d0d31d9d109df4b162d19a715049a5e8f9918f9374024cb",
    12: "381e114a09418e1dc8a8a9de460386b6927e221b68a30c141692cf67474a79a6",
    13: "b53056bc75368376e4dc2eee5c3c547bd14cde7bb9df29d7d91f6a8629ce2ab0",
    14: "fab78881073c3c9fc3b752ed74ae1bf7b2c92d2aa625d804bc5886a531cbf2cf",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_agree(seed):
    """The kernel vs the reference on the process-tangle programs."""
    fast = run_on(Environment, seed)
    reference = run_on(RefEnvironment, seed)
    assert fast["log"] == reference["log"], f"execution logs diverge (seed {seed})"
    assert fast == reference
    assert fast["events_processed"] > 0


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("seed", range(12))
def test_backend_matrix_agrees_with_reference(seed, backend):
    """Every scheduler (heap, calendar at every width) vs the reference."""
    observed = run_on(lambda: make_env(backend), seed)
    reference = run_on(RefEnvironment, seed)
    assert observed == reference, f"seed {seed} diverges on {backend}"
    assert observation_digest(observed) == observation_digest(reference)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("seed", range(12))
def test_event_programs_three_way(seed, backend):
    """Queue-stress programs: ties, zero-delay cascades, far-future.

    Replayed to a fixed deadline so the far-future events stay pending:
    the schedulers must also agree on what *didn't* run.
    """
    observed = run_on(
        lambda: make_env(backend),
        seed,
        build=build_event_program,
        until=EVENT_PROGRAM_HORIZON,
    )
    reference = run_on(
        RefEnvironment, seed, build=build_event_program, until=EVENT_PROGRAM_HORIZON
    )
    assert observed == reference, f"seed {seed} diverges on {backend}"
    assert observed["now"] == EVENT_PROGRAM_HORIZON
    assert observed["pending"] > 0 or observed["events_processed"] > 0


@pytest.mark.parametrize("backend", [b for b in BACKEND_NAMES if b != "heap"])
@pytest.mark.parametrize("seed", range(15))
def test_extended_surface_matches_heap(seed, backend):
    """Interrupt/URGENT-heavy programs: calendar widths vs the heap kernel."""
    assert replay_random_graph(backend, seed) == replay_random_graph("heap", seed), (
        f"seed {seed} diverges on {backend}"
    )


@pytest.mark.parametrize("seed", sorted(GOLDEN_RANDOM_GRAPH_DIGESTS))
def test_extended_surface_matches_golden(seed):
    """Interrupt/URGENT-heavy programs replay to their recorded digests."""
    digest = observation_digest(replay_random_graph("heap", seed))
    assert digest == GOLDEN_RANDOM_GRAPH_DIGESTS[seed], f"seed {seed} drifted"


def print_random_graph_digests() -> None:  # pragma: no cover - re-recording helper
    for seed in sorted(GOLDEN_RANDOM_GRAPH_DIGESTS):
        digest = observation_digest(replay_random_graph("heap", seed))
        print(f"    {seed}: {digest!r},")


class SortedListQueue:
    """A third scheduler: only the queue contract, nothing the calendar
    or heap could share — proves ``QueueEnvironment`` itself is sound."""

    def __init__(self):
        self.items = []

    def push(self, item):
        insort(self.items, item)

    def pop(self):
        if not self.items:
            raise IndexError("pop from an empty event queue")
        return self.items.pop(0)

    def peek_time(self):
        return self.items[0][0] if self.items else float("inf")

    def __len__(self):
        return len(self.items)


def test_third_party_backend_matches_reference():
    """A queue with nothing but the contract replays bit-identically."""
    for seed in range(6):
        observed = run_on(lambda: QueueEnvironment(SortedListQueue()), seed)
        reference = run_on(RefEnvironment, seed)
        assert observed == reference, f"seed {seed} diverges on sortedlist"


def test_third_party_backend_run_modes():
    """Run-until-time, run-until-event, ``stop()`` and ran-out-of-events
    on the interface-only ``QueueEnvironment`` loop."""

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env = QueueEnvironment(SortedListQueue())
    env.process(ticker(env))
    env.run(until=3.5)
    assert env.now == 3.5
    done = env.timeout(2.0, value="fired")
    assert env.run(until=done) == "fired"

    def stopper(env):
        yield env.timeout(1.0)
        env.stop("halted")

    env = QueueEnvironment(SortedListQueue())
    env.process(stopper(env))
    assert env.run() == "halted"

    env = QueueEnvironment(SortedListQueue())
    with pytest.raises(SimError):
        env.run(until=env.event())  # queue drains before it ever fires


def test_reference_kernel_orders_ties_fifo():
    """Sanity-check the reference itself before trusting the diff."""
    env = RefEnvironment()
    order = []
    for index in range(5):
        timeout = env.timeout(1.0)
        timeout.callbacks.append(lambda event, index=index: order.append(index))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_reference_kernel_run_until_time():
    env = RefEnvironment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=5.5)
    assert env.now == 5.5
