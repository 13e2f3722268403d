"""One live system per process, holding only live sessions.

A running system must create no cyclic garbage, so nothing it drops
while it runs waits for a collection; and ``execute_timed`` collects a
finished system before it builds the next, so consecutive runs (the
probes of one search) never hold two systems at once.  Within a run, a
finished session's terminal is freed: an open workload's memory
follows the sessions in flight, not the sessions served.
"""

import contextlib
import gc
import re
import weakref

import pytest

from repro.cluster import SpiffiCluster
from repro.core.config import MB, SpiffiConfig
from repro.core.system import SpiffiSystem
from repro.faults import FaultSpec
from repro.runnable import run
from repro.sharing import SharingSpec
from repro.sim.process import Process
from repro.terminal.terminal import Terminal
from tests.cluster.conftest import open_workload, small_cluster, small_node


# Every server here has one node: multi-node striping can still place a
# block past its disk's end (ROADMAP item 9), which is not what this
# file tests.
def closed_config(**overrides):
    base = dict(
        nodes=1,
        disks_per_node=4,
        terminals=12,
        videos_per_disk=1,
        video_length_s=60.0,
        server_memory_bytes=256 * MB,
        start_spread_s=2.0,
        warmup_grace_s=2.0,
        measure_s=10.0,
    )
    base.update(overrides)
    return SpiffiConfig(**base)


def node_failure_cluster(measure_s: float = 60.0) -> SpiffiCluster:
    """Two members, open arrivals, member 1 lost at t = 8 s."""
    return SpiffiCluster(
        small_cluster(
            node=small_node(measure_s=measure_s),
            workload=open_workload(1.0),
            faults=FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=8.0),
        )
    )


SYSTEMS = {
    "closed": lambda: SpiffiSystem(closed_config()),
    "open-batch-chain": lambda: SpiffiSystem(
        small_node(
            zipf_skew=1.0,
            workload=open_workload(2.0),
            sharing=SharingSpec(policy="batch+chain", window_s=2.0),
        )
    ),
    "cluster-node-failure": node_failure_cluster,
    # Disk outages with timed-out reads that retry: every retry races a
    # read against a timeout.
    "disk-fault-retries": lambda: SpiffiSystem(
        closed_config(
            faults=FaultSpec(
                disk_fault_rate_per_hour=3600.0,
                request_timeout_s=0.2,
                max_retries=2,
            )
        )
    ),
}


@contextlib.contextmanager
def automatic_collection_off():
    """Disable the cyclic collector inside the block, restoring it after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a_running_system_creates_no_cyclic_garbage(name):
    system = SYSTEMS[name]()
    gc.collect()
    with automatic_collection_off():
        metrics = system.run()
        assert gc.collect() == 0
    assert metrics.blocks_delivered > 0
    if name == "disk-fault-retries":
        assert metrics.fault_retries > 0


def test_execute_timed_keeps_at_most_one_finished_system(monkeypatch):
    built = []
    init = SpiffiSystem.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(SpiffiSystem, "__init__", recording_init)
    with automatic_collection_off():
        run(closed_config(seed=1))
        run(closed_config(seed=2))
        assert len(built) == 2
        assert built[0]() is None, "the first run's system outlived the second run"


def run_counting_terminals(monkeypatch, build) -> dict:
    """Build a system with *build* and run it with the collector off;
    count the terminals built, those still alive at the end, the
    sessions still in flight (a live session or playback process), the
    terminals that only a collection frees, and the callbacks waiting
    on the members' outage events."""
    built = []
    init = Terminal.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Terminal, "__init__", recording_init)
    system = build()
    gc.collect()
    with automatic_collection_off():
        metrics = system.run()
        live = {ref().terminal_id for ref in built if ref() is not None}
        in_flight = {
            int(match.group(1))
            for obj in gc.get_objects()
            if type(obj) is Process
            and obj.is_alive
            and (match := re.fullmatch(r"session-(\d+)(?:-play)?", obj.name))
        }
        down_events = [system.down_event(i) for i in range(len(system.members))]
        waiting = [len(e.callbacks or ()) for e in down_events if e is not None]
        garbage = gc.collect()
        after_collection = {ref().terminal_id for ref in built if ref() is not None}
    return {
        "served": metrics.terminals,
        "built": len(built),
        "live": live,
        "in_flight": in_flight,
        "garbage": garbage,
        "freed_by_collector": live - after_collection,
        "down_callbacks": max(waiting, default=0),
    }


def assert_only_sessions_in_flight_hold_terminals(counted: dict) -> None:
    assert counted["served"] == counted["built"]
    # Refcounting, not the collector, frees a finished terminal.
    # ``gc.collect()`` can free a cycle through a suspended generator
    # without counting it (CPython 3.11 returns 0), so the weak
    # references are what show it.
    assert counted["garbage"] == 0
    assert counted["freed_by_collector"] == set()
    # Every terminal still alive belongs to a session in flight.
    assert counted["live"] <= counted["in_flight"]
    assert len(counted["live"]) <= len(counted["in_flight"])
    # A member's outage event holds only races still running: one per
    # session in flight on it at most.
    assert counted["down_callbacks"] <= len(counted["in_flight"])


def test_a_finished_session_frees_its_terminal(monkeypatch):
    short = run_counting_terminals(monkeypatch, lambda: node_failure_cluster(60.0))
    long = run_counting_terminals(monkeypatch, lambda: node_failure_cluster(120.0))
    assert_only_sessions_in_flight_hold_terminals(short)
    assert_only_sessions_in_flight_hold_terminals(long)
    assert short["down_callbacks"] > 0
    # Twice the window serves far more sessions, but live terminals
    # follow the sessions in flight: they neither double nor grow with
    # the sessions served.
    assert long["served"] > 1.5 * short["served"]
    assert len(long["live"]) < 2 * len(short["live"])
    assert len(long["live"]) - len(short["live"]) < (
        long["served"] - short["served"]
    ) / 2


def test_a_viewer_who_leaves_while_priming_frees_its_terminal(monkeypatch):
    """With a 0.1 s mean viewing time most customers leave before their
    buffer fills; the abandoned playback waits forever, but on nothing
    the terminal holds, so it is no cycle."""
    counted = run_counting_terminals(
        monkeypatch,
        lambda: SpiffiSystem(
            small_node(
                measure_s=20.0,
                workload=open_workload(2.0, mean_view_duration_s=0.1),
            )
        ),
    )
    assert counted["served"] > 50
    assert_only_sessions_in_flight_hold_terminals(counted)


def test_a_viewer_who_leaves_while_priming_a_shared_stream_frees_its_terminal(
    monkeypatch,
):
    """Under batch+chain the sharing runtime indexes every playing
    stream; a viewer who leaves before the buffer fills never ends
    playback, so abandoning must drop the stream from that index."""
    counted = run_counting_terminals(
        monkeypatch,
        lambda: SpiffiSystem(
            small_node(
                measure_s=20.0,
                zipf_skew=1.0,
                workload=open_workload(2.0, mean_view_duration_s=0.1),
                sharing=SharingSpec(policy="batch+chain", window_s=0.05),
            )
        ),
    )
    assert counted["served"] > 50
    assert_only_sessions_in_flight_hold_terminals(counted)
