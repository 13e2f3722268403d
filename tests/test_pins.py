"""The pin store's check, report and write paths, on stores fabricated
under ``tmp_path`` (no simulation runs)."""

import dataclasses

import pytest

from repro import SpiffiConfig
from repro.core.metrics import RunMetrics
from repro.experiments.results import config_digest
from tests import pins

REQUIRED = {
    field.name: 0
    for field in dataclasses.fields(RunMetrics)
    if field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING
}
CONFIG = SpiffiConfig(terminals=4)


def metrics(**changes) -> RunMetrics:
    return RunMetrics(**{**REQUIRED, "terminals": 4, "events_processed": 100, **changes})


def row(**extra) -> dict:
    base = {"config": config_digest(CONFIG), "behaviour": pins.digest(metrics()), "events": 100}
    return {**base, **extra}


def store(tmp_path, rows, mode="write") -> pins.PinStore:
    (tmp_path / "pins.json").write_text(pins.dumps(rows))
    return pins.PinStore(tmp_path / "pins.json", mode)


def test_each_kind_of_move_lands_in_its_own_group(tmp_path):
    pinned = store(tmp_path, {"b": row(), "c": row(), "e": row()})
    for name in "bce":
        pinned.check_config(name, CONFIG.replace(seed=2) if name == "c" else CONFIG)
    pinned.check("b", metrics(glitches=1))
    pinned.check("c", metrics())
    pinned.check("e", metrics(events_processed=101))
    moved, broken = pinned.changes()
    assert not broken
    assert {field: [move[0] for move in moves] for field, moves in moved.items()} == {
        "config": ["c"],
        "behaviour": ["b"],
        "events": ["e"],
    }
    report = pinned.report()
    assert "  e: 100 -> 101 (behaviour held)" in report
    assert "events moved with behaviour held: 1 of 1 rows" in report
    pinned.write()
    rows = pins.PinStore(pinned.path).rows
    assert rows["e"] == row(events=101)
    assert rows["c"] == row(config=config_digest(CONFIG.replace(seed=2)))
    assert rows["b"] == row(behaviour=pins.digest(metrics(glitches=1)))


def test_cases_that_disagree_on_one_row_refuse_the_write(tmp_path):
    pinned = store(tmp_path, {"shared": row()})
    before = pinned.path.read_bytes()
    pinned.check("shared", metrics())
    pinned.check("shared", metrics(glitches=1))
    assert "identity broken (1)" in pinned.report()
    with pytest.raises(pins.IdentityBreak, match="shared"):
        pinned.write()
    assert pinned.path.read_bytes() == before


def test_write_with_nothing_moved_leaves_the_store_byte_identical(tmp_path):
    pinned = store(tmp_path, {"z": row(), "a": row(without=["sharing"]), "m": row()})
    before = pinned.path.read_text()
    lines = before.splitlines()
    assert (lines[0], lines[-1], before[-1]) == ("{", "}", "\n")
    assert [line.split('"')[1] for line in lines[1:-1]] == ["a", "m", "z"]
    for name in "amz":
        pinned.check(name, metrics())
        pinned.check_config(name, CONFIG)
    pinned.write()
    assert pinned.path.read_text() == before


def test_a_without_group_is_left_out_of_the_digest(tmp_path):
    sharing = metrics(shared_streams=3, batches_launched=2)
    assert pins.digest(sharing, ("sharing",)) == pins.digest(metrics()) != pins.digest(sharing)
    pinned = store(tmp_path, {"with": row(), "without": row(without=["sharing"])}, "check")
    pinned.check("without", sharing)
    with pytest.raises(AssertionError, match="pin 'with': behaviour moved"):
        pinned.check("with", sharing)
    with pytest.raises(AssertionError, match=r"pin 'without': events moved 100 -> 7$"):
        pinned.check("without", metrics(events_processed=7))
