"""Shared differential-replay harness for the simulation kernel.

One place holds the seeded workload generators and the replay driver
that ``test_kernel_differential`` and ``test_kernel_properties`` share,
so every suite replays *the same* programs on the real kernel, on the
calendar-queue oracle in ``calendar_kernel.py``, and on the naive
reference interpreter:

* :func:`build_scenario` — a random tangle of sleeping, signalling,
  spawning, and waiting processes built only from the API surface the
  real kernel and ``reference_kernel.RefEnvironment`` share.
* :func:`build_event_program` — queue-stress programs: same-timestamp
  bursts, zero-delay cascades, far-future parking, signal/wait races.
  Also common-surface, so it replays three ways (heap, calendar,
  reference).
* :func:`build_random_graph` — the extended kernel surface (child
  joins, URGENT immediate resumes, ``any_of`` races, failure delivery
  from a failed child); the reference interpreter speaks neither
  ``any_of`` nor failures, so these replays compare the calendar
  schedulers against the kernel and are pinned by recorded golden
  digests (see ``test_kernel_differential``).

:data:`BACKENDS` is the scheduler matrix every parameterized test runs
over: ``heap`` is the kernel itself, the rest run it on the calendar
queue — adaptive, and fixed widths down to the degenerate
everything-in-one-bucket case.  Whatever the scheduler, :func:`run_on`
must observe byte-identical results.
"""

import hashlib
import random

from repro.sim import Environment

from tests.sim.calendar_kernel import calendar_environment

#: Scheduler matrix for parameterized differential/property tests.  The
#: fixed calendar widths force every structural regime: sub-tie-spacing
#: buckets (many empty slots), coarse buckets (deep sorted runs), and
#: one giant bucket (degenerates to sort-once-and-drain).
BACKENDS = {
    "heap": Environment,
    "calendar": calendar_environment,
    "calendar-1ms": lambda: calendar_environment(0.001),
    "calendar-500ms": lambda: calendar_environment(0.5),
    "calendar-one-bucket": lambda: calendar_environment(1e9),
}
BACKEND_NAMES = tuple(BACKENDS)

#: run() deadline for :func:`build_event_program` replays — far enough
#: that all finite activity completes, so the far-future events are
#: exactly the pending set every scheduler must agree on.
EVENT_PROGRAM_HORIZON = 200.0


def make_env(backend: str) -> Environment:
    """A fresh kernel environment on the named scheduler."""
    return BACKENDS[backend]()


def pending_count(env) -> int:
    """Events still queued, on either the real kernel or the reference."""
    queue = getattr(env, "_queue", None)
    if queue is None:
        queue = env.queue
    return len(queue)


def observation_digest(observations: dict) -> str:
    """Stable content hash of a :func:`run_on` observation dict."""
    return hashlib.sha256(repr(sorted(observations.items())).encode()).hexdigest()


def run_on(env_factory, seed: int, build=None, until: float | None = None) -> dict:
    """Replay one seeded program and collect every observable.

    *env_factory* is any zero-arg callable returning an environment
    (the ``Environment`` class itself, ``RefEnvironment``, or a lambda
    closing over :func:`make_env`).  *build* is the program generator
    (default :func:`build_scenario`).  The observation dict — execution
    log, completion values, final clock, events processed, and pending
    count — is the unit of comparison: two kernels agree iff their
    observations are equal.
    """
    env = env_factory()
    log: list = []
    top = (build or build_scenario)(env, seed, log)
    env.run(until=until)
    completions = [
        (process.value if process.processed else None) for process in top
    ]
    return {
        "log": log,
        "completions": completions,
        "now": env.now,
        "events_processed": env.events_processed,
        "pending": pending_count(env),
    }


# ----------------------------------------------------------------------
# Program generators
# ----------------------------------------------------------------------
def build_scenario(env, seed: int, log: list) -> list:
    """Spawn the same random process graph on either kernel.

    Uses only the common surface: ``timeout``/``event``/``process``,
    ``succeed``, ``triggered``, and waiting on processes.  Returns the
    top-level processes so completions can be compared.
    """
    rng = random.Random(seed)
    shared = [env.event() for _ in range(rng.randint(1, 3))]
    top = []

    def chore(name, stream):
        total = 0.0
        for step in range(stream.randint(1, 5)):
            roll = stream.random()
            if roll < 0.5:
                delay = round(stream.uniform(0.0, 6.0), 3)
                value = yield env.timeout(delay, value=delay)
                total += value
                log.append((name, step, "slept", env.now, value))
            elif roll < 0.65:
                event = shared[stream.randrange(len(shared))]
                if not event.triggered:
                    event.succeed(value=f"{name}/{step}")
                    log.append((name, step, "signalled", env.now))
                yield env.timeout(round(stream.uniform(0.0, 1.0), 3))
            elif roll < 0.8:
                event = shared[stream.randrange(len(shared))]
                if event.triggered:
                    value = yield event  # often already processed: the
                    # wait-on-finished immediate-resume path on both sides
                    log.append((name, step, "observed", env.now, value))
                else:
                    yield env.timeout(round(stream.uniform(0.0, 2.0), 3))
                    log.append((name, step, "paused", env.now))
            else:
                child = env.process(child_chore(f"{name}.c{step}", stream))
                value = yield child
                log.append((name, step, "joined", env.now, value))
        return (name, round(total, 3))

    def child_chore(name, stream):
        yield env.timeout(round(stream.uniform(0.0, 3.0), 3))
        log.append((name, "child-done", env.now))
        return name

    for index in range(rng.randint(2, 7)):
        stream = random.Random(rng.getrandbits(64))
        process = env.process(chore(f"p{index}", stream), name=f"p{index}")
        process.callbacks.append(
            lambda event, index=index: log.append(("complete", index, env.now))
        )
        top.append(process)

    # Late same-timestamp timeouts stress FIFO agreement too.
    tie = round(rng.uniform(0.0, 4.0), 3)
    for extra in range(rng.randint(0, 4)):
        timeout = env.timeout(tie, value=extra)
        timeout.callbacks.append(
            lambda event, extra=extra: log.append(("tie", extra, env.now))
        )
    return top


def build_event_program(env, seed: int, log: list) -> list:
    """Queue-stress program: the event patterns that break schedulers.

    Same-timestamp bursts (FIFO ties), zero-delay cascades (pushes
    landing at the current instant), far-future parking (events beyond
    the run deadline), and signal/wait races.  Common surface only, so
    it replays on the reference interpreter too.  Replay
    with ``until=EVENT_PROGRAM_HORIZON`` so the far-future events stay
    pending and the pending count is part of the observation.
    """
    rng = random.Random(seed)
    shared = [env.event() for _ in range(rng.randint(1, 3))]
    top = []

    def driver(name, stream):
        for step in range(stream.randint(3, 8)):
            roll = stream.random()
            if roll < 0.3:
                tie = round(stream.uniform(0.0, 10.0), 3)
                for burst in range(stream.randint(2, 6)):
                    timeout = env.timeout(tie, value=(name, step, burst))
                    timeout.callbacks.append(
                        lambda event: log.append(("tie", event.value, env.now))
                    )
                yield env.timeout(round(stream.uniform(0.0, 2.0), 3))
            elif roll < 0.5:
                for chain in range(stream.randint(1, 4)):
                    timeout = env.timeout(0.0, value=(name, step, chain))
                    timeout.callbacks.append(
                        lambda event: log.append(("zero", event.value, env.now))
                    )
                yield env.timeout(0.0)
                log.append((name, step, "resumed", env.now))
            elif roll < 0.7:
                value = yield env.timeout(
                    round(stream.uniform(0.0, 6.0), 3), value=step
                )
                log.append((name, step, "slept", env.now, value))
            elif roll < 0.85:
                far = env.timeout(
                    round(1e6 + stream.uniform(0.0, 1e9), 3), value=(name, step)
                )
                far.callbacks.append(
                    lambda event: log.append(("far", event.value, env.now))
                )
                yield env.timeout(round(stream.uniform(0.0, 1.0), 3))
            else:
                event = shared[stream.randrange(len(shared))]
                if not event.triggered:
                    event.succeed(value=(name, step))
                    log.append((name, step, "signalled", env.now))
                else:
                    value = yield event
                    log.append((name, step, "observed", env.now, value))
        return name

    for index in range(rng.randint(2, 6)):
        stream = random.Random(rng.getrandbits(64))
        process = env.process(driver(f"d{index}", stream), name=f"d{index}")
        process.callbacks.append(
            lambda event, index=index: log.append(("complete", index, env.now))
        )
        top.append(process)
    return top


class Probe:
    """Counts invocations of one watched callback and logs the clock."""

    def __init__(self, clock_log: list):
        self.calls = 0
        self.clock_log = clock_log

    def __call__(self, event) -> None:
        self.calls += 1
        self.clock_log.append(event.env.now)


class ChildFailed(Exception):
    """Raised by a failing child in :func:`build_random_graph`."""


def build_random_graph(env: Environment, rng: random.Random, clock_log: list):
    """Spawn a random tangle of processes; returns the probed events.

    The extended kernel surface — child joins (some children fail, and
    the failure is delivered into the joining parent), URGENT immediate
    resumes on already-processed events, and ``any_of`` races between a
    timeout and a shared event — which the reference interpreter
    doesn't implement; use for golden-digest replays and invariant
    checks.  Each worker returns its index and the outcome of every
    step, so the completion values record who won each race and which
    joins failed.
    """
    probed: list = []
    shared = []
    for _ in range(rng.randint(1, 4)):
        event = env.event()
        probe = Probe(clock_log)
        event.callbacks.append(probe)
        probed.append((event, probe))
        shared.append(event)

    def worker(env, stream, my_index):
        outcomes = []
        for step in range(stream.randint(1, 6)):
            roll = stream.random()
            if roll < 0.45:
                yield env.timeout(round(stream.uniform(0.0, 8.0), 3))
                outcomes.append("slept")
            elif roll < 0.6:
                event = stream.choice(shared)
                if not event.triggered:
                    event.succeed(value=(my_index, step))
                yield env.timeout(round(stream.uniform(0.0, 2.0), 3))
                outcomes.append("signalled")
            elif roll < 0.7:
                event = stream.choice(shared)
                if event.processed:
                    value = yield event  # URGENT immediate resume
                    outcomes.append(("rewaited", value))
                else:
                    yield env.timeout(round(stream.uniform(0.0, 1.0), 3))
                    outcomes.append("paused")
            elif roll < 0.85:
                event = stream.choice(shared)
                timer = env.timeout(round(stream.uniform(0.0, 4.0), 3))
                fired = yield env.any_of([timer, event])
                outcomes.append("raced-event" if event in fired else "raced-timer")
            else:
                delay = round(stream.uniform(0.0, 3.0), 3)
                if stream.random() < 0.5:
                    value = yield env.process(sleeper(env, delay))
                    outcomes.append(("joined", value))
                else:
                    try:
                        yield env.process(failer(env, delay))
                    except ChildFailed as failure:
                        outcomes.append(("caught", failure.args[0]))
        return my_index, tuple(outcomes)

    def sleeper(env, delay):
        yield env.timeout(delay)
        return delay

    def failer(env, delay):
        yield env.timeout(delay)
        raise ChildFailed(delay)

    for index in range(rng.randint(3, 10)):
        stream = random.Random(rng.getrandbits(64))
        process = env.process(worker(env, stream, index), name=f"worker-{index}")
        probe = Probe(clock_log)
        process.callbacks.append(probe)
        probed.append((process, probe))

    # A crowd of probed timeouts at identical timestamps exercises the
    # (time, priority, seq) tie-break alongside everything else.
    tie_time = round(rng.uniform(0.0, 5.0), 3)
    for _ in range(rng.randint(2, 6)):
        timeout = env.timeout(tie_time)
        probe = Probe(clock_log)
        timeout.callbacks.append(probe)
        probed.append((timeout, probe))
    return probed


def replay_random_graph(backend: str, seed: int):
    """One extended-surface replay; everything observable, hashably."""
    rng = random.Random(seed)
    env = make_env(backend)
    clock_log: list = []
    probed = build_random_graph(env, rng, clock_log)
    env.run()
    return {
        "clock_log": clock_log,
        "now": env.now,
        "events_processed": env.events_processed,
        "outcomes": [
            (event.processed, probe.calls, event.value if event.processed else None)
            for event, probe in probed
        ],
    }
