"""Condition-event composition over processed events, and lazy values.

An event that was *processed-and-failed* before an ``AnyOf`` was
composed must fail the condition with the constituent's exception,
exactly as a post-composition failure does.
"""

import pytest

from repro.sim import Environment


class Boom(Exception):
    pass


def processed_failure(env: Environment) -> object:
    """An event that failed and was fully processed (handled) earlier."""
    event = env.event()

    def handler(env):
        try:
            yield event
        except Boom:
            pass  # delivery into a process marks the failure handled

    env.process(handler(env))
    event.fail(Boom("pre-existing failure"))
    env.run()
    assert event.processed and not event.ok
    return event


class TestAnyOfProcessedFailure:
    def test_fails_when_first_processed_event_failed(self):
        env = Environment()
        failed = processed_failure(env)
        caught = []

        def waiter(env):
            try:
                yield env.any_of([failed, env.timeout(10)])
            except Boom:
                caught.append(env.now)

        env.process(waiter(env))
        env.run()
        assert caught == [0.0]

    def test_fails_when_later_listed_event_failed(self):
        env = Environment()
        failed = processed_failure(env)
        caught = []

        def waiter(env):
            pending = env.event()  # never fires
            try:
                yield env.any_of([pending, failed])
            except Boom:
                caught.append(env.now)

        env.process(waiter(env))
        env.run()
        assert caught == [0.0]

    def test_processed_success_wins_over_processed_failure(self):
        """First-listed processed success fires the condition; the
        failure behind it never gets a vote (first-fired semantics)."""
        env = Environment()
        ok = env.timeout(1, value="fine")
        env.run()
        failed = processed_failure(env)
        condition = env.any_of([ok, failed])
        assert condition.triggered and condition.ok
        env.run()
        assert condition.value == {ok: "fine"}


class TestConditionValueLaziness:
    """The value dict is built on first access; semantics are pinned to
    the membership at trigger time, not at access time."""

    def test_any_of_value_excludes_events_fired_after_trigger(self):
        env = Environment()
        seen = {}

        def waiter(env):
            first = env.timeout(1, value="first")
            # Same timestamp, later insertion: processed after `first`
            # but before the condition's own callbacks run.
            second = env.timeout(1, value="second")
            result = yield env.any_of([first, second])
            seen["value"] = result

        env.process(waiter(env))
        env.run()
        assert list(seen["value"].values()) == ["first"]

    def test_value_is_cached(self):
        env = Environment()
        events = [env.timeout(1), env.timeout(2)]
        condition = env.any_of(events)
        env.run()
        assert condition.value is condition.value

    def test_run_until_condition_returns_dict(self):
        env = Environment()
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(2, value="y")
        value = env.run(until=env.any_of([t2, t1]))
        assert value == {t1: "x"}

    def test_empty_conditions_have_eager_empty_dict(self):
        env = Environment()
        condition = env.any_of([])
        assert condition.triggered
        assert condition.value == {}
        env.run()
        assert condition.value == {}


class TestSlots:
    """The kernel's per-event types must stay dict-free."""

    @pytest.mark.parametrize("maker", ["event", "timeout", "any_of", "process"])
    def test_no_instance_dict(self, maker):
        env = Environment()
        if maker == "event":
            obj = env.event()
        elif maker == "timeout":
            obj = env.timeout(1)
        elif maker == "any_of":
            obj = env.any_of([env.timeout(1)])
        else:

            def proc(env):
                yield env.timeout(1)

            obj = env.process(proc(env))
        with pytest.raises(AttributeError):
            obj.arbitrary_attribute = 1
        env.run()
