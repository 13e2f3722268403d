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

The extended kernel surface (child joins, URGENT immediate resumes,
``any_of`` races, failure delivery) is beyond the reference
interpreter, so those programs replay two-way — every calendar width
against the heap kernel — and are pinned by a golden table of
observation digests.
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
#: Re-record only for an intentional change to the extended surface's
#: semantics, with ``print_random_graph_digests()`` below.
GOLDEN_RANDOM_GRAPH_DIGESTS = {
    0: "b61d0672d81fa290c753ace2c881ef57c00b148e20ed9853714e0f395e3a11c5",
    1: "006a6e4c4a27f061188ce9b966ae680454395ba1be3a6b3fee2eca48d276c51a",
    2: "c70760e2387b054f7fde35398901811533c03a43a84f307efd329cf861c15348",
    3: "f5927a0efd394e05d8d262f7d1391a4561083227c5272e7818bd4b208ce9efae",
    4: "9055c3b7921198029e7ed47ba6011913c378f2128563fdd4699075d1113c51a8",
    5: "9dd6a8f40d22c95b91e8c1356f11d7aa57b6287ccd68c9c5504a08101da501fb",
    6: "7f4a33f32b01729b285285c5c98ba7945f9f7727a8d0efa81fd268ba595d4799",
    7: "0503ec0ece9f64239f61d6184261b0479ff63216b8ea858b14dce21a41656d77",
    8: "646b575b5d5f5be24b7753f917b325ebccfd94850d79a416c9c9430356cf3017",
    9: "f1461b668345fc85518a573e04979544d135e5adcd10d49581b4a28726285590",
    10: "2494acc8ac4e70659565762eb24612b956f501be7a54b16a23689841511bdd77",
    11: "2fcfd83a91ea6bc184cd6a18c36a173d6163a8aeab7beebfd9e8224dd01fa0c1",
    12: "6b47f4da54ddd95b9dac74b2bd8870672f77264621e214b35f967c24a9ccbf5e",
    13: "185f5c88e4fbce88ef5e37b6394fdf2cfb505bcc4c28a0dc9f2226dea8ce7060",
    14: "70b0bcba50a27b2a6a3930bff77bc3198e6a2a30807147b3f969f82f155c6395",
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
    """Extended-surface programs: calendar widths vs the heap kernel."""
    assert replay_random_graph(backend, seed) == replay_random_graph("heap", seed), (
        f"seed {seed} diverges on {backend}"
    )


@pytest.mark.parametrize("seed", sorted(GOLDEN_RANDOM_GRAPH_DIGESTS))
def test_extended_surface_matches_golden(seed):
    """Extended-surface programs replay to their recorded digests."""
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
