"""Structured results of experiment drivers, their JSON serialization,
and the content-addressed on-disk cache of individual simulation runs.

Serialization has two layers:

* :class:`ExperimentResult` round-trips through JSON so published
  tables are machine-readable, diffable artifacts;
* :class:`RunCache` memoises single ``run_simulation`` outcomes on
  disk, keyed by a content hash of the full :class:`SpiffiConfig`.
  Because every simulation is pure and seed-deterministic, a cache hit
  is indistinguishable from a re-run — re-invoking an experiment
  replays its (deterministic) probe plan against the cache and
  completes without simulating anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import typing

from repro.core.config import SpiffiConfig
from repro.core.metrics import RunMetrics
from repro.experiments.report import format_table, results_dir
from repro.runnable import runnable_entry

#: Bump when the meaning of cached entries changes (config or metrics
#: schema, simulator semantics) to invalidate every existing entry.
CACHE_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """One reproduced table or figure, as paper-style text rows."""

    name: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: str = ""

    def table(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n\n" + self.notes
        return text

    def column(self, header: str) -> list:
        """All values of one column, by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def cell(self, row: int, header: str) -> typing.Any:
        return self.rows[row][self.headers.index(header)]

    # --- serialization --------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        """A stable JSON document holding every field."""
        return json.dumps(
            {
                "name": self.name,
                "title": self.title,
                "headers": list(self.headers),
                "rows": [list(row) for row in self.rows],
                "notes": self.notes,
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        data = json.loads(text)
        return cls(
            name=data["name"],
            title=data["title"],
            headers=tuple(data["headers"]),
            rows=tuple(tuple(row) for row in data["rows"]),
            notes=data.get("notes", ""),
        )


# ---------------------------------------------------------------------------
# Config / metrics serialization primitives
# ---------------------------------------------------------------------------

def config_to_dict(config) -> dict:
    """The canonical form *config*'s type declared when it registered
    with :func:`repro.runnable.register_runnable`: the field
    declarations of :mod:`repro.schema` applied, so a config
    expressible before a subsystem existed hashes as it always did."""
    return runnable_entry(config).cache_dict(config)


def config_digest(config: SpiffiConfig) -> str:
    """Content hash identifying one exact simulation input.

    Every field of :class:`SpiffiConfig` (including nested parameter
    dataclasses) participates, so any change to the simulated scenario
    changes the digest.  The cache schema version participates too, so
    bumping it invalidates all prior entries at once.
    """
    payload = json.dumps(
        {"version": CACHE_SCHEMA_VERSION, "config": config_to_dict(config)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def metrics_to_dict(metrics: RunMetrics) -> dict:
    return dataclasses.asdict(metrics)


def metrics_from_dict(data: dict) -> RunMetrics:
    return RunMetrics(**data)


# ---------------------------------------------------------------------------
# The on-disk run cache
# ---------------------------------------------------------------------------

def default_cache_root() -> str:
    """Where run outcomes are cached: ``benchmarks/results/.runcache``
    (override with the ``REPRO_RUN_CACHE`` environment variable)."""
    return os.environ.get(
        "REPRO_RUN_CACHE", os.path.join(results_dir(), ".runcache")
    )


class RunCache:
    """Content-hash-keyed store of completed simulation runs.

    One JSON file per run under *root*, named by the config digest.
    Writes are atomic (temp file + rename) so concurrent workers can
    share a cache directory safely; whoever wins the rename wins, and
    both wrote identical metrics anyway.
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root or default_cache_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def load(self, config: SpiffiConfig) -> RunMetrics | None:
        """The cached metrics for *config*, or None on a miss."""
        path = self._path(config_digest(config))
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        try:
            metrics = metrics_from_dict(data["metrics"])
        except (KeyError, TypeError):
            # Entry written by an incompatible schema: treat as a miss.
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def store(self, config: SpiffiConfig, metrics: RunMetrics) -> str:
        """Persist one finished run; returns the entry's path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(config_digest(config))
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "description": config.describe(),
            "config": config_to_dict(config),
            "metrics": metrics_to_dict(metrics),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return path
