"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The only simulation they run is one ``cluster_heal`` answer per
repetition (about a second each).
"""

from __future__ import annotations

import cProfile
import copy
import heapq
import json
import os
import pstats
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
REPRO = os.path.join(ROOT, "src", "repro")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def pins() -> dict:
    with open(run.PINS) as handle:
        return json.load(handle)


def test_every_metric_name_is_well_formed(benchmark_json):
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_the_reported_metrics(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark_json["end_to_end"]} == {
        name: spec[:2] for name, spec in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark_json["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }


def test_every_layer_metric_names_what_it_should_move(benchmark_json):
    for entry in benchmark_json["per_layer"]:
        _, _, moves, on = PER_LAYER[entry["name"]]
        assert set(on) <= set(WORKLOADS) and on, entry["name"]
        assert set(moves) <= set(END_TO_END), entry["name"]
        if not entry["name"].startswith("trace."):
            assert moves, f"{entry['name']} names no end-to-end metric"


def test_every_workload_is_pinned(pins):
    assert sorted(pins) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        assert pins[workload]["runs"], workload


def test_construction_timer_times_each_run_once():
    from workloads import ConstructionTimer, cluster_heal_config

    from repro.api import SpiffiCluster, SpiffiSystem

    inits = (SpiffiSystem.__init__, SpiffiCluster.__init__)
    with ConstructionTimer() as construction:
        # The cluster builds four member systems inside its own __init__.
        SpiffiCluster(cluster_heal_config())
    assert len(construction.seconds) == 1
    assert construction.seconds[0] > 0
    assert (SpiffiSystem.__init__, SpiffiCluster.__init__) == inits


def test_check_counts_each_mismatched_run(pins):
    pin = pins["closed_capacity"]
    result = {"answer": pin["answer"], "verdicts": pin["verdicts"], "runs": pin["runs"]}
    assert run.check(result, pin) == (len(pin["runs"]), 0)

    wrong_events = copy.deepcopy(result)
    wrong_events["runs"][0][1] += 1
    assert run.check(wrong_events, pin) == (len(pin["runs"]), 1)

    wrong_answer = dict(result, answer=pin["answer"] + 25)
    assert run.check(wrong_answer, pin)[1] == 1

    missing = dict(result, runs=pin["runs"][:-1])
    assert run.check(missing, pin)[1] == 1

    assert run.check(None, pin) == (len(pin["runs"]), len(pin["runs"]))


def test_altered_pin_trips_the_gate(tmp_path, monkeypatch, capsys, pins):
    tampered = copy.deepcopy(pins)
    tampered["cluster_heal"]["runs"][0][2] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(tampered))
    monkeypatch.setattr(run, "PINS", str(path))
    monkeypatch.setattr(run, "MIN_REPETITIONS", 1)
    monkeypatch.chdir(ROOT)

    code = run.main(["--workload", "cluster_heal", "--seed", "0", "--seconds", "0"])

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cluster_heal",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_builtin_time_goes_to_the_calling_layer():
    def kernel_loop():
        queue = list(range(20000, 0, -1))
        heapq.heapify(queue)
        while queue:
            heapq.heappop(queue)

    # Pretend the loop lives in the kernel package.
    kernel_loop.__code__ = kernel_loop.__code__.replace(
        co_filename=os.path.join(REPRO, "sim", "environment.py")
    )
    profile = cProfile.Profile()
    profile.enable()
    kernel_loop()
    profile.disable()

    self_s = layers.attribute_self_time(pstats.Stats(profile).stats)
    total = sum(self_s.values())
    assert self_s["sim"] > 0.9 * total


def test_layer_of_owners():
    assert layers.layer_of(os.path.join(REPRO, "bufferpool", "policies.py")) == "bufferpool"
    assert layers.layer_of(os.path.join(REPRO, "proxy", "runtime.py")) == "proxy"
    assert layers.layer_of(os.path.join(REPRO, "api.py")) == "other"
    assert layers.layer_of(os.path.join(HERE, "run.py")) == "other"
    assert layers.layer_of(os.path.abspath(layers.__file__)) is None
    assert layers.layer_of(pstats.__file__) is None
    assert layers.layer_of("~") is None
