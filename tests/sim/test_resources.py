"""Tests for Resource, Store, PriorityStore, and Gate."""

import pytest

from repro.sim import Environment, PriorityStore, Resource, SimError, Store, Gate


def run_procs(env, *generators):
    for generator in generators:
        env.process(generator)
    env.run()


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_immediately_when_free(self):
        env = Environment()
        cpu = Resource(env)
        log = []

        def user(env):
            req = cpu.request()
            yield req
            log.append(env.now)
            cpu.release(req)

        run_procs(env, user(env))
        assert log == [0.0]

    def test_fifo_queueing(self):
        env = Environment()
        cpu = Resource(env)
        order = []

        def user(env, tag, hold):
            req = cpu.request()
            yield req
            order.append(tag)
            yield env.timeout(hold)
            cpu.release(req)

        env.process(user(env, "a", 2))
        env.process(user(env, "b", 2))
        env.process(user(env, "c", 2))
        env.run()
        assert order == ["a", "b", "c"]

    def test_priority_jumps_queue(self):
        env = Environment()
        cpu = Resource(env)
        order = []

        def holder(env):
            req = cpu.request()
            yield req
            yield env.timeout(5)
            cpu.release(req)

        def user(env, tag, priority, delay):
            yield env.timeout(delay)
            req = cpu.request(priority=priority)
            yield req
            order.append(tag)
            cpu.release(req)

        env.process(holder(env))
        env.process(user(env, "low", 10, 1))
        env.process(user(env, "high", 0, 2))
        env.run()
        assert order == ["high", "low"]

    def test_capacity_two_runs_pair_concurrently(self):
        env = Environment()
        pool = Resource(env, capacity=2)
        finish = []

        def user(env, tag):
            req = pool.request()
            yield req
            yield env.timeout(10)
            pool.release(req)
            finish.append((tag, env.now))

        for tag in ("a", "b", "c"):
            env.process(user(env, tag))
        env.run()
        assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]

    def test_release_foreign_request_rejected(self):
        env = Environment()
        one, two = Resource(env), Resource(env)
        req = one.request()
        with pytest.raises(SimError):
            two.release(req)

    def test_release_of_a_queued_request_rejected(self):
        """A queued request holds no unit: releasing it used to free the
        holder's unit and then grant the queued request to itself."""
        env = Environment()
        cpu = Resource(env, name="cpu-3")
        held = cpu.request()
        queued = cpu.request()
        with pytest.raises(SimError, match="queued request to 'cpu-3'"):
            cpu.release(queued)
        assert cpu.in_use == 1
        assert cpu.queue_length == 1
        assert not queued.triggered
        # The unit still passes to the queued request on a real release.
        cpu.release(held)
        assert queued.triggered
        assert cpu.in_use == 1
        assert cpu.queue_length == 0

    def test_double_release_rejected(self):
        """A double release used to drive ``in_use`` to -1, after which a
        capacity-1 resource granted two concurrent holders."""
        env = Environment()
        cpu = Resource(env, name="cpu-3")
        first = cpu.request()
        cpu.release(first)
        with pytest.raises(SimError, match="already released request to 'cpu-3'"):
            cpu.release(first)
        assert cpu.in_use == 0
        one, two = cpu.request(), cpu.request()
        assert one.triggered
        assert not two.triggered
        assert cpu.in_use == 1
        assert cpu.queue_length == 1

    def test_release_trap_adds_no_events(self):
        env = Environment()
        cpu = Resource(env)
        held = cpu.request()
        queued = cpu.request()
        before = len(env._queue)
        for request in (queued, queued):
            with pytest.raises(SimError, match="'resource'"):
                cpu.release(request)
        assert len(env._queue) == before

    def test_utilization_tracks_busy_time(self):
        env = Environment()
        cpu = Resource(env)

        def user(env):
            req = cpu.request()
            yield req
            yield env.timeout(4)
            cpu.release(req)
            yield env.timeout(6)

        env.process(user(env))
        env.run()
        assert cpu.utilization() == pytest.approx(0.4)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        got = []

        def getter(env):
            item = yield store.get()
            got.append(item)

        run_procs(env, getter(env))
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(env):
            item = yield store.get()
            got.append((env.now, item))

        def putter(env):
            yield env.timeout(5)
            store.put("late")

        run_procs(env, getter(env), putter(env))
        assert got == [(5.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def getter(env):
            for _ in range(3):
                got.append((yield store.get()))

        run_procs(env, getter(env))
        assert got == [1, 2, 3]

    def test_remove_predicate(self):
        env = Environment()
        store = Store(env)
        for item in range(6):
            store.put(item)
        removed = store.remove(lambda item: item % 2 == 0)
        assert removed == [0, 2, 4]
        assert list(store.items) == [1, 3, 5]


class TestPriorityStore:
    def test_orders_by_item(self):
        env = Environment()
        store = PriorityStore(env)
        store.put((3, 0, "c"))
        store.put((1, 1, "a"))
        store.put((2, 2, "b"))
        got = []

        def getter(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item[2])

        run_procs(env, getter(env))
        assert got == ["a", "b", "c"]

    def test_peek_smallest(self):
        env = Environment()
        store = PriorityStore(env)
        store.put((5, 0, "x"))
        store.put((2, 1, "y"))
        assert store.peek()[2] == "y"

    def test_peek_empty_is_error(self):
        env = Environment()
        with pytest.raises(SimError):
            PriorityStore(env).peek()


class TestGate:
    def test_open_wakes_all_waiters(self):
        env = Environment()
        gate = Gate(env)
        woken = []

        def waiter(env, tag):
            yield gate.wait()
            woken.append((tag, env.now))

        def opener(env):
            yield env.timeout(3)
            gate.open()

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))
        env.process(opener(env))
        env.run()
        assert woken == [("a", 3.0), ("b", 3.0)]

    def test_gate_rearms_after_open(self):
        env = Environment()
        gate = Gate(env)
        woken = []

        def waiter(env):
            yield gate.wait()
            woken.append(env.now)
            yield gate.wait()
            woken.append(env.now)

        def opener(env):
            yield env.timeout(1)
            gate.open()
            yield env.timeout(1)
            gate.open()

        env.process(waiter(env))
        env.process(opener(env))
        env.run()
        assert woken == [1.0, 2.0]

    def test_open_returns_waiter_count(self):
        env = Environment()
        gate = Gate(env)
        gate.wait()
        gate.wait()
        assert gate.open() == 2
        assert gate.open() == 0
