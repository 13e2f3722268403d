"""Per-layer attribution for the traced run.

Self time comes from :mod:`cProfile`.  Each profiled code object is
owned by the ``repro.<package>`` whose source file holds it; the
benchmark's own files are owned by ``other``.  Code outside both (C
builtins such as ``heapq.heappop``, the standard library) has no owner
of its own: its self time is split over its callers in proportion to
the time spent on behalf of each, recursively, so a heap pop issued by
the kernel counts as kernel time.  What reaches no owner lands in
``other``.

Call counts for plain functions come from the same profile.  A
generator function's profile count includes every resumption, so the
named generator entry points (``Terminal.play``, ``BufferPool.acquire``,
``Processor.execute``, ``NetworkBus.transfer``) are counted by a thin wrapper
installed for the traced run only.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import pstats

import repro

#: Counted public entry points: metric name -> ``module:Qualified.name``.
CALL_COUNTS = {
    "terminal.play_calls": ("repro.terminal.terminal:Terminal.play",),
    "server.request_block_calls": ("repro.server.node:VideoServerNode.request_block",),
    "bufferpool.acquire_calls": ("repro.bufferpool.pool:BufferPool.acquire",),
    "bufferpool.victim_calls": (
        "repro.bufferpool.policies:GlobalLru.victim",
        "repro.bufferpool.policies:LovePrefetch.victim",
    ),
    "bufferpool.evictable_checks": ("repro.bufferpool.page:Page.evictable",),
    "storage.submit_calls": ("repro.storage.drive:DiskDrive.submit",),
    "prefetch.schedule_calls": ("repro.prefetch.prefetcher:DiskPrefetcher.schedule",),
    "cpu.execute_calls": ("repro.cpu.processor:Processor.execute",),
    "netsim.transfer_calls": ("repro.netsim.bus:NetworkBus.transfer",),
}


_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HARNESS = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str | None:
    """The owning layer of a source file, or None when it has none."""
    if filename.startswith(_REPRO):
        # repro/<package>/<module>.py; top-level modules (api, runnable)
        # belong to no package.
        package, _, module = filename[len(_REPRO):].partition(os.sep)
        return package if module else "other"
    if filename.startswith(_HARNESS) and filename != os.path.abspath(__file__):
        # The harness itself.  The counting wrappers in this file stay
        # unowned, so their time goes to the caller that paid the call.
        return "other"
    return None


def _resolve(target: str):
    """(owner object, attribute name, function) for ``module:Qual.name``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    value = inspect.getattr_static(owner, attr)
    function = value.fget if isinstance(value, property) else value
    return owner, attr, function


class Counters:
    """Invocation counters for the generator entry points."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for metric, targets in CALL_COUNTS.items():
            for target in targets:
                owner, attr, function = _resolve(target)
                if inspect.isgeneratorfunction(function):
                    self._wrap(metric, owner, attr, function)

    def _wrap(self, metric: str, owner, attr: str, function) -> None:
        counts = self.counts
        counts.setdefault(metric, 0)

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return function(*args, **kwargs)

        self._restore.append((owner, attr, function))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, function in reversed(self._restore):
            setattr(owner, attr, function)
        self._restore.clear()


def profile_counts(stats: dict, counters: Counters) -> dict[str, int]:
    """Every ``CALL_COUNTS`` metric: wrapper counts for generator entry
    points, profile call counts for plain functions."""
    by_code = {(key[0], key[1], key[2]): value[1] for key, value in stats.items()}
    counts = {}
    for metric, targets in CALL_COUNTS.items():
        total = counters.counts.get(metric, 0)
        for target in targets:
            _, _, function = _resolve(target)
            if inspect.isgeneratorfunction(function):
                continue
            code = function.__code__
            total += by_code.get(
                (code.co_filename, code.co_firstlineno, code.co_name), 0
            )
        counts[metric] = total
    return counts


def attribute_self_time(stats: dict) -> dict[str, float]:
    """Seconds of profiled self time per ``repro`` package (plus ``other``).

    *stats* is ``pstats.Stats(profile).stats``: ``{func: (cc, nc, tt,
    ct, callers)}`` with ``callers`` mapping each caller to its own
    ``(nc, cc, tt, ct)`` share of the calls.
    """
    shares: dict[tuple, dict[str, float]] = {}
    resolving: set[tuple] = set()

    def share_of(func) -> dict[str, float]:
        cached = shares.get(func)
        if cached is not None:
            return cached
        owner = layer_of(func[0])
        if owner is not None:
            result = {owner: 1.0}
        elif func in resolving or func not in stats:
            result = {"other": 1.0}
        else:
            resolving.add(func)
            callers = stats[func][4]
            weights = {caller: entry[2] for caller, entry in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: entry[0] for caller, entry in callers.items()}
                total = sum(weights.values())
            result = {}
            if total <= 0:
                result = {"other": 1.0}
            else:
                for caller, weight in weights.items():
                    for layer, part in share_of(caller).items():
                        result[layer] = result.get(layer, 0.0) + part * weight / total
            resolving.discard(func)
        shares[func] = result
        return result

    self_s: dict[str, float] = {}
    for func, (_, _, tt, _, _) in stats.items():
        for layer, part in share_of(func).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * part
    return self_s


def profiled(callable_):
    """Run *callable_* under cProfile with the counters installed.

    Returns ``(result, self_s_by_layer, call_counts)``.
    """
    counters = Counters()
    counters.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        try:
            result = callable_()
        finally:
            profile.disable()
    finally:
        counters.uninstall()
    stats = pstats.Stats(profile).stats
    return result, attribute_self_time(stats), profile_counts(stats, counters)
