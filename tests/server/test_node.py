"""Tests for the video server node service path."""



from repro.bufferpool import BufferPool, ReplacementSpec
from repro.cpu import CpuParameters, Processor
from repro.layout import StripedLayout
from repro.media import VideoLibrary
from repro.netsim import NetworkBus, NetworkParameters
from repro.prefetch import DiskPrefetcher, PrefetchSpec
from repro.sched import SchedulerSpec
from repro.server import VideoServerNode
from repro.sim import Environment, RandomSource
from repro.storage import DiskDrive, DiskGeometry, DriveParameters

BLOCK = 64 * 1024


def make_node(env, prefetch_mode="standard", depth=1, pool_pages=64):
    library = VideoLibrary(1, 4.0, BLOCK, seed=2)
    counts = [video.sequence.block_count(BLOCK) for video in library]
    layout = StripedLayout(counts, 1, 2, BLOCK)
    drive_params = DriveParameters()
    drives = []
    for disk in range(2):
        used = max(layout.disk_used_bytes(disk), drive_params.cylinder_bytes)
        geometry = DiskGeometry(drive_params.cylinder_bytes, used)
        drives.append(
            DiskDrive(env, disk, drive_params, geometry,
                      SchedulerSpec("elevator").build(), RandomSource(disk))
        )
    pool = BufferPool(env, pool_pages, ReplacementSpec("love_prefetch").build())
    cpu_params = CpuParameters()
    cpu = Processor(env, cpu_params, 0)
    spec = PrefetchSpec(prefetch_mode, depth=depth) if prefetch_mode != "none" else PrefetchSpec("none")
    prefetchers = [
        DiskPrefetcher(env, spec, drive, pool, cpu, cpu_params) for drive in drives
    ]
    bus = NetworkBus(env, NetworkParameters())
    node = VideoServerNode(
        env=env, node_id=0, cpu=cpu, cpu_params=cpu_params, drives=drives,
        pool=pool, bus=bus, library=library, layout=layout, block_size=BLOCK,
        prefetch_spec=spec, prefetchers=prefetchers,
    )
    return node, library, layout


def request(env, node, layout, block, deadline=60.0, terminal=1):
    placement = layout.locate(0, block)
    return node.request_block(
        terminal_id=terminal, video_id=0, block=block,
        size=BLOCK, placement=placement, deadline=deadline,
    )


class TestServicePath:
    def test_miss_reads_disk_and_replies(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="none")
        done = request(env, node, layout, block=0)
        env.run(until=done)
        assert node.stats.requests == 1
        assert node.stats.disk_reads == 1
        assert node.pool.lookup((0, 0)) is not None
        # Reply of 64 KB crossed the bus.
        assert node.bus.traffic.total >= BLOCK

    def test_second_request_hits(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="none")
        first = request(env, node, layout, block=0)
        env.run(until=first)
        reads_before = node.stats.disk_reads
        second = request(env, node, layout, block=0, terminal=2)
        env.run(until=second)
        assert node.stats.disk_reads == reads_before
        assert node.pool.stats.hits == 1
        assert node.pool.stats.rereferences == 1

    def test_concurrent_same_block_merges_onto_one_io(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="none")
        first = request(env, node, layout, block=0, terminal=1)
        second = request(env, node, layout, block=0, terminal=2)
        env.run(until=second)
        env.run(until=first)
        assert node.stats.disk_reads == 1
        assert node.pool.stats.inflight_hits == 1

    def test_page_unpinned_after_reply(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="none")
        done = request(env, node, layout, block=0)
        env.run(until=done)
        env.run()
        assert node.pool.lookup((0, 0)).pins == 0

    def test_prefetch_triggered_for_same_disk_successor(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="standard")
        done = request(env, node, layout, block=0)
        env.run(until=done)
        env.run()  # let the prefetcher drain
        successor = layout.next_block_on_same_disk(0, 0)
        page = node.pool.lookup((0, successor))
        assert page is not None
        assert page.loaded_by_prefetch

    def test_prefetch_depth_covers_multiple_blocks(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="standard", depth=3)
        done = request(env, node, layout, block=0)
        env.run(until=done)
        env.run()
        blocks = [0]
        current = 0
        for _ in range(3):
            current = layout.next_block_on_same_disk(0, current)
            assert node.pool.lookup((0, current)) is not None

    def test_realtime_prefetch_estimates_deadline(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="realtime")
        done = request(env, node, layout, block=0, deadline=10.0)
        env.run(until=done)
        env.run()
        successor = layout.next_block_on_same_disk(0, 0)
        schedule = library[0].schedule(BLOCK)
        frames_ahead = int(schedule.first_frame[successor]) - int(schedule.first_frame[0])
        # The prefetched page's disk request carried base + frames/fps.
        # It has completed by now; verify via prefetcher stats instead.
        prefetcher = node.prefetchers[layout.locate(0, successor).disk_in_node]
        assert prefetcher.stats.issued >= 1
        assert frames_ahead > 0

    def test_deadline_tightening_on_inflight_merge(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="none")
        first = request(env, node, layout, block=0, deadline=1000.0)
        # Merge immediately with a much tighter deadline.
        second = request(env, node, layout, block=0, deadline=1.0, terminal=2)
        page = None

        def check(env):
            yield env.timeout(0.002)  # after CPU receive + start I/O
            page = node.pool.lookup((0, 0))
            assert page is not None
            if page.disk_request is not None:
                assert page.disk_request.deadline < 2.0

        env.process(check(env))
        env.run(until=second)

    def test_reply_allowance_positive(self):
        env = Environment()
        node, _, _ = make_node(env)
        allowance = node._reply_allowance(BLOCK)
        expected_wire = NetworkParameters().transit_time(BLOCK)
        assert allowance > expected_wire
        assert allowance < expected_wire + 0.001

    def test_last_block_triggers_no_prefetch(self):
        env = Environment()
        node, library, layout = make_node(env, prefetch_mode="standard")
        last = library[0].sequence.block_count(BLOCK) - 1
        done = request(env, node, layout, block=last)
        env.run(until=done)
        env.run()
        # No successor exists; prefetcher scheduled nothing beyond.
        assert layout.next_block_on_same_disk(0, last) is None
