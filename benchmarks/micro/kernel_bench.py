"""Microbenchmark harness for the ``repro.sim`` kernel hot path.

Measures raw kernel throughput (events per second, derived from the
environment's ``events_processed`` counter and the wall time of the
run phase alone — building thousands of generators is setup, not
kernel hot path) over four canned, fully deterministic scenarios:

* ``timer_storm``      — thousands of interleaved timeouts; pure
  event-queue churn with no resource or condition machinery.
* ``timer_storm_xl``   — the same mix at cluster scale: ~100k timers
  pending at all times over a minute-wide spread, the deep-pending-set
  regime where the heap's ``O(log n)`` operations cost the most.
* ``resource_contention`` — processes fighting over a small
  :class:`~repro.sim.resources.Resource` with ``AnyOf`` timeout races;
  exercises ``Request``/``succeed``/condition scheduling.
* ``spiffi_small``     — one complete small SPIFFI system run
  (build + warmup + measure), the end-to-end number every figure pays.

Each scenario reports its best-of-N run, timed with the garbage
collector disabled.

Stdlib-only by design: no pytest-benchmark, no numpy in the hot loop.
Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/micro/kernel_bench.py                 # print a table
    PYTHONPATH=src python benchmarks/micro/kernel_bench.py --scenario timer_storm
    PYTHONPATH=src python benchmarks/micro/kernel_bench.py --publish BENCH_kernel.json
    PYTHONPATH=src python benchmarks/micro/kernel_bench.py --check BENCH_kernel.json

``--check`` is the CI perf-smoke mode: it re-measures every scenario
and fails (exit 1) if any drops below its
``floor_events_per_s`` recorded in the published baseline.  Floors are
deliberately generous (a fraction of the tuned throughput on the
recording host) so only a genuine hot-path regression — not runner
jitter — trips them.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time

from repro.sim import Environment, Resource
from repro.sim.rng import RandomSource

#: Bump when scenario definitions or the document layout change
#: (results are not comparable across schema versions).  ``/2`` added
#: the ``timer_storm_xl`` scenario; ``/3`` dropped the per-backend axis
#: (one row per scenario).
SCHEMA = "repro.bench.kernel/3"

#: Fraction of freshly measured events/sec recorded as the CI floor.
FLOOR_FRACTION = 0.25


# ----------------------------------------------------------------------
# Scenarios.  Each takes a deterministic seed, builds the simulation
# (untimed — process/generator construction is not kernel hot path),
# and returns ``(env, go)`` where ``go()`` runs the simulation; the
# driver times ``go`` alone and reads ``events_processed`` off the
# environment.
# ----------------------------------------------------------------------
def timer_storm(
    seed: int = 1,
    processes: int = 200,
    spread: float = 1.0,
    horizon: float = 500.0,
):
    """Interleaved sleep loops: the pure timeout/queue fast path."""
    env = Environment()
    rng = RandomSource(seed)

    def sleeper(env, stream):
        while True:
            yield env.timeout(0.05 + stream.uniform(0.0, spread))

    for index in range(processes):
        env.process(sleeper(env, rng.spawn(f"storm-{index}")), name=f"storm-{index}")
    return env, lambda: env.run(until=horizon)


def timer_storm_xl(seed: int = 4):
    """The timer storm at cluster scale: ~100k pending timers.

    The wide delay spread keeps the pending set deep for the whole run,
    where the heap's ``O(log n)`` with cold caches hurts the most.
    """
    return timer_storm(seed=seed, processes=100_000, spread=60.0, horizon=30.0)


def resource_contention(
    seed: int = 2,
    processes: int = 120,
    capacity: int = 8,
    horizon: float = 400.0,
):
    """Request/release churn with AnyOf timeout races on a shared resource."""
    env = Environment()
    rng = RandomSource(seed)
    pool = Resource(env, capacity=capacity)

    def worker(env, stream):
        while True:
            req = pool.request()
            yield env.any_of([req, env.timeout(2.0)])
            if not req.processed:
                # Lost the race against the timeout: keep waiting for
                # the grant (exercises re-waiting on a pending event).
                yield req
            yield env.timeout(0.05 + stream.uniform(0.0, 0.2))
            pool.release(req)
            yield env.timeout(stream.uniform(0.0, 0.1))

    for index in range(processes):
        env.process(worker(env, rng.spawn(f"worker-{index}")), name=f"worker-{index}")
    return env, lambda: env.run(until=horizon)


def spiffi_small(seed: int = 3):
    """One complete small SpiffiSystem run (warmup + measure)."""
    from repro import MB, SpiffiConfig
    from repro.core.system import SpiffiSystem

    config = SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=24,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=150.0,
        seed=seed,
    )
    system = SpiffiSystem(config)
    return system.env, system.run


SCENARIOS = {
    "timer_storm": timer_storm,
    "timer_storm_xl": timer_storm_xl,
    "resource_contention": resource_contention,
    "spiffi_small": spiffi_small,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def measure(name: str, repeat: int = 3) -> dict:
    """Best-of-*repeat* measurement of one scenario.

    Best (not mean) is the standard microbenchmark estimator: noise on
    a busy host only ever slows a run down.
    """
    scenario = SCENARIOS[name]
    events, best = 0, float("inf")
    for _ in range(repeat):
        env, go = scenario()
        # Identical GC state for every timed run: collect the setup
        # garbage, then keep the collector out of the hot loop.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            go()
            wall = time.perf_counter() - started
        finally:
            gc.enable()
        if wall < best:
            events, best = env.events_processed, wall
    return {
        "events": events,
        "wall_s": round(best, 6),
        "events_per_s": round(events / best, 1) if best > 0 else 0.0,
    }


def run_all(repeat: int = 3) -> dict[str, dict]:
    return {name: measure(name, repeat=repeat) for name in SCENARIOS}


def publish(results: dict[str, dict]) -> dict:
    """The BENCH_kernel.json document for freshly measured *results*.

    Per scenario: the best-of numbers plus its CI floor, a generous
    :data:`FLOOR_FRACTION` of the measured throughput.
    """
    return {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scenarios": {
            name: dict(
                row,
                floor_events_per_s=round(row["events_per_s"] * FLOOR_FRACTION, 1),
            )
            for name, row in results.items()
        },
    }


def check(baseline_path: str, repeat: int = 3) -> int:
    """CI perf smoke: fail if any scenario drops below its floor."""
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != SCHEMA:
        print(f"schema mismatch: {baseline.get('schema')!r} != {SCHEMA!r}")
        return 1
    failures = 0
    for name, entry in baseline["scenarios"].items():
        if name not in SCENARIOS:
            print(f"SKIP {name}: unknown scenario in baseline")
            continue
        got = measure(name, repeat=repeat)
        floor = entry["floor_events_per_s"]
        ok = got["events_per_s"] >= floor
        print(
            f"{'ok  ' if ok else 'FAIL'} {name}: "
            f"{got['events_per_s']:>12,.0f} events/s (floor {floor:,.0f})"
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N repeats")
    parser.add_argument("--json", metavar="PATH", help="write raw scenario results as JSON")
    parser.add_argument(
        "--publish", metavar="PATH", help="write the BENCH_kernel.json document"
    )
    parser.add_argument(
        "--check", metavar="PATH", help="perf-smoke: verify against a published baseline"
    )
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), help="measure a single scenario"
    )
    args = parser.parse_args(argv)

    if args.check:
        return check(args.check, repeat=args.repeat)

    if args.scenario:
        results = {args.scenario: measure(args.scenario, repeat=args.repeat)}
    else:
        results = run_all(repeat=args.repeat)
    for name, row in results.items():
        print(
            f"{name:>20}: {row['events']:>10,} events "
            f"in {row['wall_s']:.3f}s = {row['events_per_s']:>12,.0f} events/s"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.publish:
        with open(args.publish, "w", encoding="utf-8") as handle:
            json.dump(publish(results), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
