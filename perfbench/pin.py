"""Record the pinned simulated answers the benchmark checks against.

Usage, from the repository root::

    python3 perfbench/pin.py --workload flash_sharing [cluster_heal ...]

Runs each named workload once in a fresh interpreter and stores its
answer, probe verdicts, and per-run tag, event count and metrics digest
under ``pins.json[workload]``.  Only re-pin when a change is meant to
alter the simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import PINS, WORKLOADS, run_child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=WORKLOADS)
    args = parser.parse_args()

    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as handle:
            pins = json.load(handle)
    for workload in args.workload:
        result = run_child(os.getcwd(), workload, traced=False)
        if result is None:
            print(f"{workload}: run failed", file=sys.stderr)
            return 1
        pins[workload] = {
            "answer": result["answer"],
            "verdicts": result["verdicts"],
            "runs": result["runs"],
        }
        print(
            f"{workload}: answer {result['answer']} verdicts {result['verdicts']} "
            f"events {sum(run[1] for run in result['runs'])} "
            f"took {result['answer_s']:.2f}s"
        )
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
