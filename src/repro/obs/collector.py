"""The cyclic garbage collector: paused over whole-instance passes,
reported on ``/metrics``.

A whole-instance pass (a batch transform, an audit, a session start,
a store recovery) allocates a large graph and keeps it.  While the
collector runs, every full collection walks that whole graph again as
it grows, and none of it is garbage.  :func:`pauses_collector`
disables the collector for the duration of such a call; the cycles the
pass leaves behind are collected by the first collections after it.
A delta step is not paused: it allocates little, and a pause would only
defer that work.

Not ``gc.freeze()``: a frozen graph is never scanned again, so its
cycles leak; a paused pass's are still collected.

Every collection of the process, paused or not, feeds
``repro_gc_collections_total{generation}`` and
``repro_gc_collection_seconds{generation}`` in the process
:data:`~repro.obs.metrics.REGISTRY` through one ``gc.callbacks`` hook.
"""

from __future__ import annotations

import functools
import gc
import threading
import time

from .metrics import LATENCY_BUCKETS, REGISTRY, enabled

__all__ = ["pauses_collector"]

# One process-wide pause: the collector's switch is process-global, so
# overlapping scopes of any threads share one depth count, and only
# the outermost exit restores the state the outermost entry found.
_pause_lock = threading.Lock()
_pause_depth = 0
_was_enabled = False


def pauses_collector(function):
    """Run ``function`` with the cyclic garbage collector disabled.

    Reentrant and thread-safe: the outermost entry disables the
    collector, the outermost exit (also when the call raises) puts
    back the state the outermost entry found — a caller who disabled
    it keeps it disabled.
    """
    @functools.wraps(function)
    def paused(*args, **kwargs):
        global _pause_depth, _was_enabled
        with _pause_lock:
            if _pause_depth == 0:
                _was_enabled = gc.isenabled()
                gc.disable()
            _pause_depth += 1
        try:
            return function(*args, **kwargs)
        finally:
            with _pause_lock:
                _pause_depth -= 1
                if _pause_depth == 0 and _was_enabled:
                    gc.enable()

    return paused


_COLLECTIONS = REGISTRY.counter(
    "repro_gc_collections_total",
    "Cyclic garbage collections by generation.", ("generation",))
_SECONDS = REGISTRY.histogram(
    "repro_gc_collection_seconds",
    "Wall time of one cyclic garbage collection by generation.",
    ("generation",), buckets=LATENCY_BUCKETS)
_CHILDREN = [(_COLLECTIONS.labels(generation), _SECONDS.labels(generation))
             for generation in range(3)]
# Collections never overlap (the interpreter runs one at a time), so
# one start time serves every thread.
_started = 0.0


def _record_collection(phase: str, info: dict) -> None:
    global _started
    if phase == "start":
        _started = time.perf_counter()
        return
    if not enabled():
        return
    collections, seconds = _CHILDREN[info["generation"]]
    collections.inc()
    seconds.observe(time.perf_counter() - _started)


gc.callbacks.append(_record_collection)
