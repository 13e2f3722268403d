"""The one pin store: every golden run is one row of ``tests/pins.json``.

A row holds ``config`` (the sha256 config digest, also the run-cache
key), ``behaviour`` (the sha256 of the sorted-JSON
``RunMetrics.deterministic_dict()`` without ``events_processed`` and
without the metric groups the row lists under ``"without"``) and
``events`` (the event count); a config-only row has the last two null.
The event count is a cost of the kernel's mechanism, so it is kept
apart from behaviour.  Several cases may share a row, and must all
agree with it.  ``pytest --pins=report`` records what each case
observed instead of asserting, and prints the moved rows;
``--pins=write`` also rewrites the store (``tests/conftest.py``).
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterConfig, SpiffiCluster
from repro.core.metrics import RunMetrics
from repro.core.system import SpiffiSystem
from repro.experiments.results import config_digest
from repro.experiments.runner import ProcessExecutor, Runner, RunRequest, SerialExecutor
from repro.telemetry.runstats import RunStopwatch
from tests.sim.calendar_kernel import system_kernels

FIELDS = ("config", "behaviour", "events")
MODES = ("check", "report", "write")


def digest(metrics: RunMetrics, without=()) -> str:
    """The behaviour digest of *metrics* (see the module docstring)."""
    values = metrics.deterministic_dict()
    values.pop("events_processed", None)
    for field in dataclasses.fields(RunMetrics):
        if field.metadata.get("group") in without:
            values.pop(field.name, None)
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def run_system(config):
    """Build and run *config* in this process: ``(system, metrics)``,
    the metrics stamped with the run's event count."""
    system = (SpiffiCluster if isinstance(config, ClusterConfig) else SpiffiSystem)(config)
    with RunStopwatch(system.env) as watch:
        metrics = system.run()
    return system, watch.stamp(metrics)


def run(config, way: str = "direct", backend: str = "heap") -> RunMetrics:
    """Run *config* one *way* on one kernel *backend*.

    ``direct`` is ``repro.run`` in this process; ``jobs_N`` goes through
    the experiment runner, ``jobs_1`` on the serial executor and larger
    N on the process pool.  ``calendar`` swaps the calendar-queue oracle
    in for the heap kernel (forked pool workers inherit the swap).
    """
    with pytest.MonkeyPatch.context() as patch, system_kernels(backend, patch) as built:
        if way == "direct":
            metrics = repro.run(config)
        else:
            jobs = int(way.removeprefix("jobs_"))
            executor = SerialExecutor() if jobs == 1 else ProcessExecutor(jobs=jobs)
            try:
                runner = Runner(executor=executor, cache=None)
                outcome = runner.run_batch([RunRequest(config)])[0]
            finally:
                executor.close()
            assert not outcome.failed, outcome.error
            metrics = outcome.metrics
    if way in ("direct", "jobs_1"):
        assert len(built) == (backend == "calendar")
    return metrics


class IdentityBreak(Exception):
    """Two cases that share a row observed different values."""


def dumps(rows: dict) -> str:
    """The store's text: sorted rows, one per line, trailing newline."""
    lines = [f"{json.dumps(n)}: {json.dumps(rows[n], sort_keys=True)}" for n in sorted(rows)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _short(value) -> str:
    return value[:16] if isinstance(value, str) else str(value)


class PinStore:
    """The rows of one store file and, outside ``check`` mode, what the
    cases run against them observed."""

    def __init__(self, path, mode: str = "check") -> None:
        self.path = Path(path)
        self.mode = mode
        self.rows = json.loads(self.path.read_text()) if self.path.exists() else {}
        #: row name -> field -> observed value -> the cases that saw it
        self.seen: dict = {}

    def _observe(self, name: str, observed: dict) -> None:
        if self.mode == "check":
            row = self.rows.get(name)
            assert row is not None, f"no pin row {name!r} in {self.path}; add it with --pins=write"
            moved = [
                f"{field} moved {row.get(field)} -> {value}"
                for field, value in observed.items()
                if row.get(field) != value
            ]
            assert not moved, f"pin {name!r}: " + "; ".join(moved)
            return
        case = os.environ.get("PYTEST_CURRENT_TEST", "?").split(" ")[0]
        for field, value in observed.items():
            self.seen.setdefault(name, {}).setdefault(field, {}).setdefault(value, []).append(case)

    def check(self, name: str, metrics: RunMetrics) -> None:
        """*metrics* reproduce row *name*'s behaviour digest and event count."""
        without = self.rows.get(name, {}).get("without", ())
        observed = {"behaviour": digest(metrics, without), "events": metrics.events_processed}
        self._observe(name, observed)

    def check_config(self, name: str, config) -> None:
        """*config* has row *name*'s config digest."""
        self._observe(name, {"config": config_digest(config)})

    def changes(self) -> tuple[dict, list]:
        """``(moved, broken)``: *moved* maps each field to its ``(name,
        old, new)`` moves; *broken* lists ``(name, field, {value:
        cases})`` where the cases of one row disagree."""
        moved: dict = {field: [] for field in FIELDS}
        broken = []
        for name in sorted(self.seen):
            for field, values in sorted(self.seen[name].items()):
                if len(values) > 1:
                    broken.append((name, field, values))
                    continue
                (value,) = values
                old = self.rows.get(name, {}).get(field)
                if value != old:
                    moved[field].append((name, old, value))
        return moved, broken

    def report(self) -> str:
        moved, broken = self.changes()
        lines = [f"pin store {self.path.name}: {len(self.seen)} of {len(self.rows)} rows observed"]
        behaviour = {name for name, _, _ in moved["behaviour"]}
        for field in FIELDS:
            lines.append(f"{field} moved ({len(moved[field])})")
            for name, old, new in moved[field]:
                held = " (behaviour held)" if field == "events" and name not in behaviour else ""
                lines.append(f"  {name}: {_short(old)} -> {_short(new)}{held}")
        held = sum(name not in behaviour for name, _, _ in moved["events"])
        lines.append(f"events moved with behaviour held: {held} of {len(moved['events'])} rows")
        if broken:
            lines.append(f"identity broken ({len(broken)}): cases of one row disagree")
            for name, field, values in broken:
                for value, cases in values.items():
                    lines.append(f"  {name} {field} {_short(value)}: {', '.join(cases)}")
        if self.mode == "write":
            lines.append("store not written" if broken else f"wrote {self.path.name}")
        return "\n".join(lines) + "\n"

    def write(self) -> None:
        """Rewrite the store with every observed value, or raise
        :class:`IdentityBreak` and leave it alone when the cases of one
        row disagree: that is a broken identity, not a re-pin."""
        moved, broken = self.changes()
        if broken:
            names = sorted({name for name, _, _ in broken})
            raise IdentityBreak(f"cases of one row disagree, store not written: {names}")
        rows = {name: dict(row) for name, row in self.rows.items()}
        for field, moves in moved.items():
            for name, _, new in moves:
                rows.setdefault(name, dict.fromkeys(FIELDS))[field] = new
        self.path.write_text(dumps(rows))


STORE = PinStore(Path(__file__).with_name("pins.json"))
check = STORE.check
check_config = STORE.check_config
