"""Tests for the CPU and network models."""

import pytest

from repro.cpu import CpuParameters, InstructionCosts, Processor
from repro.netsim import NetworkBus, NetworkParameters
from repro.sim import Environment


class TestCpuParameters:
    def test_table1_costs(self):
        costs = InstructionCosts()
        assert costs.start_io == 20_000
        assert costs.send_message == 6_800
        assert costs.receive_message == 2_200

    def test_seconds_at_40_mips(self):
        params = CpuParameters()
        assert params.seconds(20_000) == pytest.approx(0.0005)
        assert params.seconds(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CpuParameters().seconds(-1)


class TestProcessor:
    def test_fcfs_serialises_bursts(self):
        env = Environment()
        cpu = Processor(env, CpuParameters(), 0)
        finished = []

        def worker(env, tag):
            yield from cpu.execute(40_000_000)  # 1 second at 40 MIPS
            finished.append((tag, env.now))

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        env.run()
        assert finished == [("a", 1.0), ("b", 2.0)]

    def test_utilization(self):
        env = Environment()
        cpu = Processor(env, CpuParameters(), 0)

        def worker(env):
            yield from cpu.execute(40_000_000)
            yield env.timeout(3.0)

        env.process(worker(env))
        env.run()
        assert cpu.utilization() == pytest.approx(0.25)

    def test_reset_stats(self):
        env = Environment()
        cpu = Processor(env, CpuParameters(), 0)

        def worker(env):
            yield from cpu.execute(40_000_000)

        env.process(worker(env))
        env.run()
        cpu.reset_stats()
        assert cpu.utilization() == pytest.approx(0.0)


class TestNetwork:
    def test_table1_wire_delay(self):
        params = NetworkParameters()
        # 5 µs + 0.04 µs/byte: a 512 KB block ≈ 20.98 ms.
        assert params.transit_time(0) == pytest.approx(5e-6)
        assert params.transit_time(512 * 1024) == pytest.approx(
            5e-6 + 0.04e-6 * 512 * 1024
        )

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkParameters().transit_time(-1)

    def test_transfer_advances_clock_and_counts_bytes(self):
        env = Environment()
        bus = NetworkBus(env, NetworkParameters())
        done = []

        def sender(env):
            yield from bus.transfer(1_000_000)
            done.append(env.now)

        env.process(sender(env))
        env.run()
        assert done[0] == pytest.approx(5e-6 + 0.04)
        assert bus.traffic.total == 1_000_000
        assert bus.messages == 1

    def test_unlimited_aggregate_bandwidth(self):
        """Two concurrent transfers do not queue behind each other."""
        env = Environment()
        bus = NetworkBus(env, NetworkParameters())
        done = []

        def sender(env, tag):
            yield from bus.transfer(1_000_000)
            done.append((tag, env.now))

        env.process(sender(env, "a"))
        env.process(sender(env, "b"))
        env.run()
        assert done[0][1] == pytest.approx(done[1][1])

    def test_peak_bandwidth_windows(self):
        env = Environment()
        bus = NetworkBus(env, NetworkParameters(rate_window_s=1.0))

        def sender(env):
            yield from bus.transfer(100)
            yield env.timeout(2.0)
            yield from bus.transfer(300)

        env.process(sender(env))
        env.run()
        assert bus.peak_bandwidth == pytest.approx(300.0)

    def test_reset_stats(self):
        env = Environment()
        bus = NetworkBus(env, NetworkParameters())

        def sender(env):
            yield from bus.transfer(100)

        env.process(sender(env))
        env.run()
        bus.reset_stats()
        assert bus.traffic.total == 0
        assert bus.messages == 0


def burst_delay(env, cpu, instructions):
    """The Timeout delay of one ``Processor.execute`` burst."""
    burst = cpu.execute(instructions)
    next(burst)  # the CPU grant
    env.run()
    timeout = burst.send(None)
    with pytest.raises(StopIteration):
        burst.send(None)
    env.run()
    return timeout.delay


class TestMemoisedDelays:
    """Memoised burst and transit times are the parameter methods' own
    floats, bit for bit, on first and on later calls."""

    SIZES = (0, 1, 128, 3, 512 * 1024, 524_287, 10**9)

    def test_processor_seconds_identical(self):
        env = Environment()
        params = CpuParameters(speed_mips=37.3)
        cpu = Processor(env, params, 0)
        for _ in range(3):
            for count in (0, 1, 2_200, 6_800, 20_000, 9_001, 40_000_000):
                delay = burst_delay(env, cpu, count)
                assert delay.hex() == params.seconds(count).hex()

    def test_processor_negative_count_raises_every_call(self):
        env = Environment()
        cpu = Processor(env, CpuParameters(), 0)
        burst_delay(env, cpu, 2_200)
        for _ in range(3):
            burst = cpu.execute(-1)
            next(burst)
            env.run()
            with pytest.raises(ValueError, match="instructions must be >= 0"):
                burst.send(None)
            # The burst's finally clause still returned the CPU.
            assert cpu._resource.in_use == 0

    def test_bus_transit_identical(self):
        env = Environment()
        params = NetworkParameters(fixed_delay_s=3.3e-6, per_byte_delay_s=0.037e-6)
        bus = NetworkBus(env, params)
        for _ in range(3):
            for size in self.SIZES:
                expected = params.transit_time(size).hex()
                assert bus.transit_time(size).hex() == expected
                assert next(bus.transfer(size)).delay.hex() == expected

    def test_bus_negative_size_raises_every_call(self):
        env = Environment()
        bus = NetworkBus(env, NetworkParameters())
        next(bus.transfer(100))
        for _ in range(3):
            with pytest.raises(ValueError, match="message size must be >= 0"):
                bus.transit_time(-1)
            with pytest.raises(ValueError, match="message size must be >= 0"):
                next(bus.transfer(-1))
