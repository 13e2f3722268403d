"""§8.1: server load of the two visual-search schemes.

"Since the skipped video segments need not be read, this scheme will
not significantly increase the load on the video server."  We run a
population of terminals where a fraction is continuously searching and
compare aggregate disk load against everyone watching normally, for
skim search and for version search over condensed copies stored at
10x speedup.
"""

from repro import MB, SpiffiConfig
from repro.core.metrics import collect_metrics
from repro.core.system import SpiffiSystem
from repro.experiments.report import format_table, publish
from repro.terminal import SkimParameters, skim_search, version_search


def run_search_load(searching_terminals, search="skim"):
    config = SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=24,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=128 * MB,
        start_spread_s=2.0,
        warmup_grace_s=8.0,
        measure_s=45.0,
        search_version_speedup=10 if search == "version" else None,
        seed=17,
    )
    system = SpiffiSystem(config)
    env = system.env

    def searcher(env, terminal):
        """Hold fast-forward, skimming, for the whole run."""
        yield env.timeout(config.warmup_s * 0.5)
        video = system.library[0]
        session = env.process(terminal.play(0, start_frame=1))
        yield env.timeout(1.0)
        while True:
            if terminal._next_frame >= video.frame_count - 200:
                terminal.seek(1)
                yield from terminal._wait_primed()
                terminal._anchor = env.now - terminal._next_frame / video.fps
            yield from skim_search(
                terminal, +1, 10.0, SkimParameters(show_s=1.0, skip_s=8.0)
            )

    def version_searcher(env, terminal):
        """Hold fast-forward on the condensed copy, watching one second
        of the normal video between 10 s presses."""
        yield env.timeout(config.warmup_s * 0.5)
        video = system.library[0]
        frame = 1
        while True:
            env.process(terminal.play(0, start_frame=frame))
            yield env.timeout(1.0)
            frame = yield from version_search(terminal, 0, +1, 10.0)
            if frame >= video.frame_count - 200:
                frame = 1

    # The first N terminals search instead of watching normally.
    driver = version_searcher if search == "version" else searcher
    for terminal in system.terminals[:searching_terminals]:
        env.process(driver(env, terminal))
    for terminal in system.terminals[searching_terminals:]:
        terminal.start(system._rng.spawn(f"start-{terminal.terminal_id}").uniform(
            0.0, config.start_spread_s
        ))
    env.run(until=config.warmup_s)
    system.reset_stats()
    env.run(until=config.warmup_s + config.measure_s)
    return collect_metrics(system, config.measure_s)


def test_sec81_visual_search(benchmark):
    def compare():
        normal = run_search_load(searching_terminals=0)
        searching = run_search_load(searching_terminals=6)
        versioned = run_search_load(searching_terminals=6, search="version")
        return normal, searching, versioned

    normal, searching, versioned = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    rows = [
        ("all watching", round(normal.disk_utilization_mean, 3),
         normal.blocks_delivered),
        ("6 of 24 skim-searching", round(searching.disk_utilization_mean, 3),
         searching.blocks_delivered),
        ("6 of 24 version-search", round(versioned.disk_utilization_mean, 3),
         versioned.blocks_delivered),
    ]
    publish(
        "sec81_visual_search",
        format_table(
            ("population", "disk util", "blocks delivered"),
            rows,
            title="Section 8.1: skim search does not significantly "
            "increase server load",
        ),
    )
    # Paper claim: no significant extra load (skipped segments unread).
    assert searching.disk_utilization_mean < normal.disk_utilization_mean + 0.15
