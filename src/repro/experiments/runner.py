"""The parallel experiment engine: executors, caching, and grids.

The paper's methodology is thousands of *independent* simulation runs
(every point of Figs. 9-19 and Tables 2-3 is a max-terminal search of
many runs; the original authors burned up to 10 hours per 64-disk
configuration).  Every config type executes through the unified
:func:`repro.runnable.run` registry, and each registered run is pure
and seed-deterministic, so this module fans runs out across processes
without changing any result:

* :class:`RunRequest` / :class:`RunOutcome` — one simulation in, one
  set of metrics (plus wall time) out;
* :class:`SerialExecutor` / :class:`ProcessExecutor` — the
  :class:`Executor` protocol, in-process or on a
  ``concurrent.futures.ProcessPoolExecutor``.  Worker processes are
  reused across runs, so the process-wide frame-sequence memoisation in
  ``repro.media.library`` (keyed by media parameters) amortises video
  generation across every run a worker executes;
* :class:`Runner` — an executor plus an optional on-disk
  :class:`~repro.experiments.results.RunCache` and a per-run progress
  callback;
* :func:`run_grid` / :func:`search_grid` — drivers declare their grid
  of independent cells (scheduler x stripe size, memory sweep points,
  scaleup configs) and submit it here instead of looping.

Determinism contract: outcomes are returned in request order, probes
are planned identically regardless of job count, and every simulation
is a pure function of its config — so tables are bit-identical for any
executor, job count, or submission order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import threading
import typing

from repro.core.config import SpiffiConfig
from repro.core.metrics import RunMetrics
from repro.experiments.results import RunCache
from repro.runnable import RunnableConfig, run

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.search import SearchResult


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One simulation to execute: a full config plus a display tag.

    ``max_wall_s`` is a per-run watchdog enforced by
    :class:`ProcessExecutor`: a worker that has not returned within the
    budget is presumed hung, its pool is recycled, and the run is
    retried once before being reported as an error outcome.  ``None``
    disables the watchdog (the default).
    """

    config: RunnableConfig
    tag: str = ""
    max_wall_s: float | None = None


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """One finished simulation: its metrics and how long it took.

    A run that crashed its worker or exceeded its watchdog (after one
    retry) carries ``metrics=None`` and a diagnostic in ``error``
    instead of aborting the whole batch; grid drivers surface these via
    :func:`run_grid`, which raises after the batch completes.
    """

    tag: str
    config: RunnableConfig
    metrics: RunMetrics | None
    wall_time_s: float
    cached: bool = False
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def execute_request(request: RunRequest) -> RunOutcome:
    """Run one request in this process (also the pool worker body).

    Dispatch is the :func:`repro.runnable.run` registry: any config
    type registered via :func:`repro.api.register_runnable` executes
    here — in-process or in a pool worker — without this module naming
    it.  (Workers learn of a type by unpickling its config, which
    imports its defining module, which registers it.)
    """
    metrics = run(request.config)
    return RunOutcome(
        tag=request.tag,
        config=request.config,
        metrics=metrics,
        wall_time_s=getattr(metrics, "wall_time_s", 0.0),
    )


def _error_outcome(request: RunRequest, exc: BaseException) -> RunOutcome:
    return RunOutcome(
        tag=request.tag,
        config=request.config,
        metrics=None,
        wall_time_s=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _execute_with_retry(request: RunRequest) -> RunOutcome:
    """In-process execution with one retry, never raising."""
    try:
        return execute_request(request)
    except Exception:
        try:
            return execute_request(request)
        except Exception as exc:
            return _error_outcome(request, exc)


class Executor(typing.Protocol):
    """Anything that can execute a batch of independent runs."""

    jobs: int

    def run_batch(
        self, requests: typing.Sequence[RunRequest]
    ) -> list[RunOutcome]:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class SerialExecutor:
    """Runs every request in the calling process, in order.

    A run that raises is retried once and then reported as an error
    outcome, matching :class:`ProcessExecutor`'s crash handling.  The
    ``max_wall_s`` watchdog needs process isolation and is therefore
    enforced only by :class:`ProcessExecutor`.
    """

    jobs = 1

    def run_batch(self, requests: typing.Sequence[RunRequest]) -> list[RunOutcome]:
        return [_execute_with_retry(request) for request in requests]

    def close(self) -> None:
        pass


class ProcessExecutor:
    """Fans batches out over a pool of worker processes.

    Workers receive picklable :class:`SpiffiConfig`s and return
    picklable :class:`RunMetrics`.  The pool is created lazily and
    reused for every batch, so each worker's frame-sequence cache keeps
    paying off across runs.  ``run_batch`` is thread-safe: concurrent
    searches may share one pool.

    Failure containment (one run can never sink the sweep):

    * a worker that raises gets one in-process retry; a second failure
      becomes an error outcome;
    * a broken pool (worker killed mid-run) is rebuilt, pending runs
      are resubmitted, and the victim run is retried in-process;
    * a run exceeding its ``max_wall_s`` watchdog has its pool recycled
      (``shutdown(wait=False)``; a truly hung worker process is
      orphaned rather than joined) and is resubmitted once with the
      same budget before becoming an error outcome.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.jobs
                )
            return self._pool

    def _recycle_pool(self) -> None:
        """Abandon the current pool (hung or broken) and start fresh."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def run_batch(self, requests: typing.Sequence[RunRequest]) -> list[RunOutcome]:
        requests = list(requests)
        pool = self._ensure_pool()
        futures = [pool.submit(execute_request, request) for request in requests]
        return [
            self._collect(futures, requests, index)
            for index in range(len(requests))
        ]

    def _collect(
        self,
        futures: list[concurrent.futures.Future],
        requests: list[RunRequest],
        index: int,
    ) -> RunOutcome:
        request = requests[index]
        try:
            return futures[index].result(timeout=request.max_wall_s)
        except concurrent.futures.TimeoutError:
            # Watchdog expiry: the worker is presumed hung.  Recycle the
            # pool, resubmit everything still pending, and give this run
            # one more attempt under the same budget.
            self._recycle_pool()
            self._resubmit_pending(futures, requests, index)
            try:
                retry = self._ensure_pool().submit(execute_request, request)
                return retry.result(timeout=request.max_wall_s)
            except concurrent.futures.TimeoutError:
                self._recycle_pool()
                self._resubmit_pending(futures, requests, index)
                return _error_outcome(
                    request,
                    TimeoutError(
                        f"run exceeded max_wall_s={request.max_wall_s}s twice"
                    ),
                )
            except Exception as exc:
                return _error_outcome(request, exc)
        except concurrent.futures.BrokenExecutor:
            # A worker died (OOM-kill, segfault): the pool is unusable.
            # (BrokenProcessPool's base class: naming the subclass would
            # import multiprocessing into every process that imports
            # this module, serial runs included.)
            self._recycle_pool()
            self._resubmit_pending(futures, requests, index)
            return _execute_with_retry(request)
        except Exception:
            # The run itself raised in the worker: one in-process retry,
            # then an error outcome.
            return _execute_with_retry(request)

    def _resubmit_pending(
        self,
        futures: list[concurrent.futures.Future],
        requests: list[RunRequest],
        index: int,
    ) -> None:
        """Requeue later requests whose futures died with the old pool."""
        pool = self._ensure_pool()
        for later in range(index + 1, len(requests)):
            future = futures[later]
            if future.done() and future.exception() is None:
                continue
            future.cancel()
            futures[later] = pool.submit(execute_request, requests[later])

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Runner:
    """An executor with an optional result cache and progress reporting.

    ``run_batch`` checks each request against the cache, executes only
    the misses, stores fresh outcomes, and returns everything in
    request order; *progress* (if set) is called once per outcome.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: RunCache | None = None,
        progress: typing.Callable[[RunOutcome], None] | None = None,
    ) -> None:
        self.executor = executor or SerialExecutor()
        self.cache = cache
        self.progress = progress
        self._cache_lock = threading.Lock()

    @property
    def jobs(self) -> int:
        return getattr(self.executor, "jobs", 1)

    def run_batch(
        self, requests: typing.Sequence[RunRequest]
    ) -> list[RunOutcome]:
        requests = list(requests)
        outcomes: dict[int, RunOutcome] = {}
        fresh: list[tuple[int, RunRequest]] = []
        if self.cache is None:
            fresh = list(enumerate(requests))
        else:
            for index, request in enumerate(requests):
                with self._cache_lock:
                    metrics = self.cache.load(request.config)
                if metrics is None:
                    fresh.append((index, request))
                else:
                    outcomes[index] = RunOutcome(
                        tag=request.tag,
                        config=request.config,
                        metrics=metrics,
                        wall_time_s=getattr(metrics, "wall_time_s", 0.0),
                        cached=True,
                    )
        if fresh:
            executed = self.executor.run_batch([request for _, request in fresh])
            for (index, request), outcome in zip(fresh, executed):
                # Error outcomes are never cached: the next invocation
                # should retry the run, not replay the failure.
                if self.cache is not None and outcome.metrics is not None:
                    with self._cache_lock:
                        self.cache.store(request.config, outcome.metrics)
                outcomes[index] = outcome
        ordered = [outcomes[index] for index in range(len(requests))]
        if self.progress is not None:
            for outcome in ordered:
                self.progress(outcome)
        return ordered

    def run(self, request: RunRequest) -> RunOutcome:
        return self.run_batch([request])[0]

    def map_cells(
        self, fn: typing.Callable, cells: typing.Sequence
    ) -> list:
        """Apply *fn* to each independent cell, results in cell order.

        With a parallel executor the cells are driven concurrently by
        threads (each cell's simulations still execute in the shared
        process pool); with a serial executor this is a plain loop.
        Cells must be independent — results never depend on the order
        cells happen to finish in.
        """
        cells = list(cells)
        if self.jobs <= 1 or len(cells) <= 1:
            return [fn(cell) for cell in cells]
        workers = min(len(cells), self.jobs)
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, cell) for cell in cells]
            return [future.result() for future in futures]

    def close(self) -> None:
        self.executor.close()


# ---------------------------------------------------------------------------
# The ambient runner used by drivers unless one is passed explicitly
# ---------------------------------------------------------------------------

_DEFAULT_RUNNER: Runner | None = None
_FALLBACK_RUNNER: Runner | None = None


def default_runner() -> Runner:
    """The installed runner, or an uncached serial one."""
    global _FALLBACK_RUNNER
    if _DEFAULT_RUNNER is not None:
        return _DEFAULT_RUNNER
    if _FALLBACK_RUNNER is None:
        _FALLBACK_RUNNER = Runner(SerialExecutor())
    return _FALLBACK_RUNNER


def set_default_runner(runner: Runner | None) -> None:
    """Install (or with None, clear) the process-wide default runner."""
    global _DEFAULT_RUNNER
    _DEFAULT_RUNNER = runner


@contextlib.contextmanager
def using_runner(runner: Runner):
    """Temporarily install *runner* as the default."""
    previous = _DEFAULT_RUNNER
    set_default_runner(runner)
    try:
        yield runner
    finally:
        set_default_runner(previous)


# ---------------------------------------------------------------------------
# Grids: how drivers declare their independent cells
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SearchCell:
    """One independent max-terminals search in a driver's grid."""

    tag: str
    config: SpiffiConfig
    hint: int
    granularity: int = 10
    replications: int = 1


def run_grid(
    cells: typing.Sequence[tuple[str, SpiffiConfig]],
    runner: Runner | None = None,
    max_wall_s: float | None = None,
) -> list[RunMetrics]:
    """Execute one simulation per (tag, config) cell, in cell order.

    Error outcomes (crashed or hung runs that survived their retries)
    are collected and raised *after* the whole batch completes, so one
    bad cell never discards its siblings' finished work.
    """
    runner = runner or default_runner()
    outcomes = runner.run_batch(
        [RunRequest(config, tag, max_wall_s=max_wall_s) for tag, config in cells]
    )
    errors = [outcome for outcome in outcomes if outcome.failed]
    if errors:
        detail = "; ".join(
            f"{outcome.tag or 'run'}: {outcome.error}" for outcome in errors[:5]
        )
        raise RuntimeError(
            f"{len(errors)} of {len(outcomes)} grid runs failed: {detail}"
        )
    return [outcome.metrics for outcome in outcomes]


def search_grid(
    cells: typing.Sequence[SearchCell],
    runner: Runner | None = None,
) -> list["SearchResult"]:
    """Run one max-terminals search per cell, results in cell order."""
    from repro.experiments.search import find_max_terminals

    runner = runner or default_runner()

    def one(cell: SearchCell) -> "SearchResult":
        return find_max_terminals(
            cell.config,
            hint=cell.hint,
            granularity=cell.granularity,
            replications=cell.replications,
            runner=runner,
            tag=cell.tag,
        )

    return runner.map_cells(one, cells)
