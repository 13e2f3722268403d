"""End-to-end benchmark of the SPIFFI reproduction, with per-layer attribution.

Usage, from the repository root::

    python3 perfbench/run.py --workload closed_capacity --seed 1 --seconds 40 --trace 0

A repetition is one complete answer of the workload (see
``workloads.py``) in a fresh interpreter (``child.py``): serial, run
cache off, garbage collection on.  Repetitions repeat for ``--seconds``
(at least ``MIN_REPETITIONS``).  Each workload's inputs, its config seed
included, are fixed, so ``--seed`` does not change them: it is accepted
and printed only.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` follows each untraced repetition with a cProfile-traced
one, prints a layer table ranked by self time, and reports the
per-layer metrics.

Every simulation run is checked against its pinned event count and
metrics digest in ``pins.json``, and every answer against its pinned
search result; a mismatch is a failed operation and makes the exit code
1.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Fewest repetitions a run makes, however long they take.
MIN_REPETITIONS = 3
#: Fewest (untraced, traced) pairs a ``--trace 1`` run makes.
MIN_TRACED_REPETITIONS = 1
#: A child taking longer than this is killed and counted as failed;
#: with ``--seconds`` up to 40 the whole run still ends within 180 s.
CHILD_TIMEOUT_S = 120.0
PINS = os.path.join(HERE, "pins.json")


def host_stamp() -> str:
    return (
        f"host: python={platform.python_version()} "
        f"impl={platform.python_implementation()} machine={platform.machine()} "
        f"nproc={os.cpu_count()} system={platform.system()}"
    )


def run_child(root: str, workload: str, traced: bool) -> dict | None:
    """One repetition in a fresh interpreter; None if it failed.

    Adds ``start_s``: host seconds from launching the interpreter to the
    start of the answer (interpreter start and imports), read on the
    system-wide monotonic clock the child stamps ``begun_at`` with.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload",
        workload,
    ]
    if traced:
        command.append("--trace")
    launched = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        return None
    result["start_s"] = result["begun_at"] - launched
    return result


def check(result: dict | None, pin: dict) -> tuple[int, int]:
    """(attempted, failed) simulation runs of one repetition.

    A run fails when its tag, event count or metrics digest differs
    from the pinned one at the same position; missing or extra runs
    fail too, and so does a repetition whose answer or verdicts differ
    while every run matched.
    """
    pinned = pin["runs"]
    if result is None:
        return len(pinned), len(pinned)
    runs = result["runs"]
    attempted = max(len(runs), len(pinned))
    failed = sum(
        1
        for index in range(attempted)
        if index >= len(runs)
        or index >= len(pinned)
        or list(runs[index]) != list(pinned[index])
    )
    if not failed and (
        result["answer"] != pin["answer"] or result["verdicts"] != pin["verdicts"]
    ):
        failed = 1
    return attempted, failed


def fastest_steps(results: list[dict]) -> dict:
    """Host seconds of each step of the workload's answer, fastest
    repetition each.

    The steps are interpreter start plus imports, each simulation's
    construction and run phase, and the rest of the answer (search
    planning, digests).  Every repetition repeats the same steps, and
    interference from other work on the host only ever slows a step
    down, so the fastest repetition of each step is the least-biased
    estimate of its cost.
    """
    positions = list(zip(*(r["steps"] for r in results)))
    return {
        "start": min(r["start_s"] for r in results),
        "setup": sum(min(step[0] for step in position) for position in positions),
        "run": sum(min(step[1] for step in position) for position in positions),
        "rest": min(r["answer_s"] - sum(map(sum, r["steps"])) for r in results),
    }


def end_to_end(plain: list[dict]) -> dict:
    steps = fastest_steps(plain)
    return {
        "wall_s": sum(steps.values()),
        # Interpreter start and imports are set-up too: work moved to
        # import time must show here, like work moved into construction.
        "setup_s": steps["start"] + steps["setup"],
        "sim_blocks_per_s": plain[0]["blocks"] / steps["run"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """(metrics, self seconds by layer) of the workload.

    Layers without a ``<layer>.self_s`` metric of their own are folded
    into ``other``.
    """
    reported = {name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")}
    layers = dict.fromkeys(sorted(reported), 0.0)
    for layer in traced[0]["self_s"]:
        seconds = statistics.median(r["self_s"][layer] for r in traced)
        layers[layer if layer in reported else "other"] += seconds
    traced_s = statistics.median(r["answer_s"] for r in traced)
    plain_s = statistics.median(r["answer_s"] for r in plain)
    counts = traced[0]["counts"]
    values = dict(plain[0]["simulated"])
    values.update({name: value for name, value in counts.items() if name in PER_LAYER})
    values["sim.events_per_s"] = values["sim.events"] / fastest_steps(plain)["run"]
    victims = counts["bufferpool.victim_calls"]
    values["bufferpool.pages_scanned_per_victim"] = (
        counts["bufferpool.evictable_checks"] / victims if victims else 0.0
    )
    for layer, seconds in layers.items():
        values[f"{layer}.self_s"] = seconds
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["trace.attributed_ratio"] = sum(layers.values()) / traced_s
    return values, layers


def print_layer_table(workload: str, layers: dict, attributed_ratio: float) -> None:
    total = sum(layers.values())
    print(
        f"{workload}: traced self time by layer, medians over repetitions "
        f"({total:.2f} s, {100 * attributed_ratio:.1f} % of the traced answer time)"
    )
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        if seconds > 0:
            print(f"  {layer:<12} {seconds:8.3f} s {100 * seconds / total:6.1f} %")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print(
            "perfbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    with open(PINS) as handle:
        pin = json.load(handle)[args.workload]
    # Compile once, untimed, so no repetition pays bytecode compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "repro"), HERE],
        check=True,
        stdout=subprocess.DEVNULL,
    )

    print(host_stamp())
    print(f"{args.workload}: fixed inputs; --seed {args.seed} does not change them")
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = repetitions = 0
    crashed = False
    min_repetitions = MIN_TRACED_REPETITIONS if args.trace else MIN_REPETITIONS
    started = time.perf_counter()
    while not crashed:
        elapsed = time.perf_counter() - started
        if (
            repetitions >= min_repetitions
            and elapsed * (repetitions + 1) / repetitions > args.seconds
        ):
            break
        for traced_rep in (False, True) if args.trace else (False,):
            result = run_child(root, args.workload, traced_rep)
            tried, bad = check(result, pin)
            attempted += tried
            failed += bad
            if result is None:
                crashed = True
                break
            (traced if traced_rep else plain).append(result)
        repetitions += 1

    values: dict = {}
    if not crashed and args.trace:
        values, layers = per_layer(plain, traced)
        print_layer_table(args.workload, layers, values["trace.attributed_ratio"])
    elif not crashed:
        values = end_to_end(plain)
        print(
            f"{args.workload}: fastest steps "
            + ", ".join(f"{key} {value:.3f} s" for key, value in fastest_steps(plain).items())
        )
    specs = PER_LAYER if args.trace else END_TO_END
    print(
        f"{args.workload}: {repetitions} repetitions, "
        f"{attempted} simulation runs checked, {failed} failed"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": values.get(name, 0.0), "unit": spec[0]}
                    for name, spec in specs.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
