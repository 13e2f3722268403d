"""Edge-path tests for the kernel: failure surfacing, lifecycle guards,
and the small API corners the mainline suites never hit.  These pin the
error behaviour of the optimized hot path (step()/run() raising a
failed, undefused event; until-event failure modes) and keep the
``src/repro/sim`` coverage floor honest.
"""

import pytest

from repro.sim import Environment, SimError
from repro.sim.errors import EventLifecycleError
from repro.sim.process import Process
from repro.sim.resources import PriorityStore, Resource, Store


class Boom(Exception):
    pass


def handle(env, event) -> None:
    """Wait on *event* from a process that swallows its failure; the
    delivery marks the failure handled."""

    def handler(env):
        try:
            yield event
        except Boom:
            pass

    env.process(handler(env))


class TestRunFailureSurfacing:
    def test_step_raises_unhandled_failure(self):
        env = Environment()
        env.event().fail(Boom("nobody listening"))
        with pytest.raises(Boom):
            env.step()

    def test_run_until_already_failed_event_raises(self):
        env = Environment()
        event = env.event()
        handle(env, event)
        event.fail(Boom("early"))
        env.run()
        assert event.processed and not event.ok
        with pytest.raises(Boom):
            env.run(until=event)

    def test_run_until_event_that_fails_midrun_raises(self):
        env = Environment()
        event = env.event()
        handle(env, event)

        def saboteur(env, event):
            yield env.timeout(1)
            event.fail(Boom("midrun"))

        env.process(saboteur(env, event))
        with pytest.raises(Boom):
            env.run(until=event)

    def test_run_until_already_succeeded_event_returns_value(self):
        env = Environment()
        event = env.event().succeed("done")
        env.run()
        assert env.run(until=event) == "done"

    def test_run_out_of_events_before_until_fires(self):
        env = Environment()
        env.timeout(1.0)
        never = env.event()
        with pytest.raises(SimError, match="ran out of events"):
            env.run(until=never)

    def test_keyboard_interrupt_propagates_out_of_run(self):
        env = Environment()

        def impatient(env):
            yield env.timeout(1)
            raise KeyboardInterrupt

        env.process(impatient(env))
        with pytest.raises(KeyboardInterrupt):
            env.run()


class TestNanTimes:
    """NaN compares false against everything, so a ``delay < 0`` style
    guard lets it through: a NaN timeout then corrupts the heap order
    (sleepers of 5, NaN, 1, 3, 2 resumed as 3, 2, 1, NaN, 5) and a NaN
    deadline drains every event and leaves ``now`` at NaN."""

    def test_timeout_rejects_nan_delay(self):
        env = Environment()
        with pytest.raises(ValueError, match="nan"):
            env.timeout(float("nan"))
        assert env.peek() == float("inf")  # nothing was scheduled

    def test_run_rejects_nan_deadline(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(ValueError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env.events_processed == 0


class TestProcessEdges:
    def test_process_rejects_non_generator(self):
        env = Environment()
        with pytest.raises(TypeError, match="needs a generator"):
            Process(env, lambda: None)

    def test_yield_already_processed_failure_is_thrown_in(self):
        env = Environment()
        failed = env.event()
        handle(env, failed)
        failed.fail(Boom("stale"))
        env.run()
        caught = []

        def waiter(env):
            yield env.timeout(1)
            try:
                yield failed
            except Boom as exc:
                caught.append(exc)

        env.process(waiter(env))
        env.run()
        assert len(caught) == 1

class TestConditionLifecycle:
    def test_pending_condition_value_raises(self):
        env = Environment()
        condition = env.any_of([env.event(), env.event()])
        with pytest.raises(EventLifecycleError):
            condition.value


class TestResourceAccounting:
    def test_in_use_queue_length_and_utilization(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env):
            req = resource.request()
            yield req
            assert resource.in_use == 1
            yield env.timeout(4)
            resource.release(req)

        def queued(env):
            yield env.timeout(1)
            req = resource.request()
            assert resource.queue_length == 1
            yield req
            resource.release(req)

        env.process(holder(env))
        env.process(queued(env))
        env.run(until=2.0)
        # Busy since t=0 with the clock at 2: utilization is exactly 1.
        assert resource.utilization() == pytest.approx(1.0)
        env.run()
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_reset_stats_while_busy_restarts_the_busy_window(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env):
            req = resource.request()
            yield req
            yield env.timeout(10)
            resource.release(req)

        env.process(holder(env))
        env.run(until=6.0)
        resource.reset_stats()
        env.run()
        # Only the post-reset busy time (t=6..10) counts.
        assert resource.utilization(elapsed=4.0) == pytest.approx(1.0)


class TestStoreViews:
    def test_store_items_view_and_remove_predicate(self):
        env = Environment()
        store = Store(env)
        for item in ("a", "bb", "c"):
            store.put(item)
        assert store.items == ("a", "bb", "c")
        removed = store.remove(lambda item: len(item) == 2)
        assert removed == ["bb"]
        assert store.items == ("a", "c")
        assert len(store) == 2

    def test_priority_store_items_sorted_and_peek_empty_raises(self):
        env = Environment()
        store = PriorityStore(env)
        for item in (3, 1, 2):
            store.put(item)
        assert store.items == (1, 2, 3)
        assert store.get().value == 1
        with pytest.raises(SimError):
            PriorityStore(env).peek()
