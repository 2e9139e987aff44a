"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

Dependency-free (stdlib only), thread-safe, cheap enough for hot
paths, resettable for tests, and rendered in the Prometheus text
exposition format (version 0.0.4) for ``GET /metrics``.

Design:

* A :class:`MetricsRegistry` holds *families* — one per metric name —
  each carrying a fixed label-name tuple.  ``family.labels(...)``
  interns one child per label-value combination; hot paths resolve
  their child once and call ``inc``/``observe``/``set`` on it.
* Every child guards its state with its own small lock, so two
  threads bumping different counters never contend.  The lock is
  reentrant: the garbage-collection hook
  (:mod:`repro.obs.collector`) records into children from whatever
  thread a collection interrupts, which may be one holding that
  child's lock.
* ``registry.reset()`` zeroes every sample but keeps registrations —
  the test-isolation primitive.
* :func:`set_enabled` flips one module-global flag; when off, every
  mutation is a no-op (the ``--no-obs`` benchmark baseline).

The module-level :data:`REGISTRY` is the process default; everything
in ``repro`` that is not per-session records into it.  A serving
session owns its own registry, which ``GET /metrics`` renders after
this one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # the engine imports this module
    from ..engine.executor import ExecutionStats

__all__ = [
    "BATCH_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "SIZE_BUCKETS",
    "enabled",
    "publish_engine_stats",
    "set_enabled",
]

#: Request/operation latency buckets, in seconds (1 ms .. 10 s).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0)

#: Payload-size buckets, in bytes (64 B .. 16 MiB).
SIZE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
    16777216)

#: Group-commit batch-size buckets (deltas per applied batch).
BATCH_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)

# One global switch, read on every mutation.  A plain module global is
# a single dict lookup — cheap enough for the hot paths this guards,
# and exactly what the --no-obs baseline flips off.
_ENABLED = True


def set_enabled(value: bool) -> None:
    """Globally enable/disable metric mutations (``--no-obs``)."""
    global _ENABLED
    _ENABLED = bool(value)


def enabled() -> bool:
    """Whether metric mutations are currently recorded."""
    return _ENABLED


class Counter:
    """A monotonically increasing counter with atomic increments."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``buckets`` are the *upper bounds* of the cumulative buckets; an
    implicit ``+Inf`` bucket always exists.  ``observe`` costs one
    bisect plus one locked increment.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered:
            raise ValueError("a histogram needs at least one bucket")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram buckets must be strictly increasing: "
                f"{buckets!r}")
        self._lock = threading.RLock()
        self.buckets = ordered
        self._counts = [0] * (len(ordered) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Tuple[Tuple[int, ...], float, int]:
        """``(per-bucket counts incl. +Inf, sum, count)`` atomically."""
        with self._lock:
            return tuple(self._counts), self._sum, self._count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        counts, _total_sum, total = self.snapshot()
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), total))
        return out

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All children of one metric name (one per label-value tuple)."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets",
                 "_lock", "_children")

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, *values: object, **kwvalues: object):
        """The child for one label-value combination (interned)."""
        if kwvalues:
            if values:
                raise ValueError(
                    "pass label values positionally or by name, not both")
            try:
                values = tuple(kwvalues[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name} needs labels "
                    f"{list(self.labelnames)}, got "
                    f"{sorted(kwvalues)}") from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes {len(self.labelnames)} "
                f"label value(s), got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Convenience proxies so an unlabelled family can be used as its
    # own (single) child: ``registry.counter("x", "...").inc()``.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def samples(self) -> Dict[Tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: Sequence[str],
                   values: Sequence[str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(labelnames, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """A named collection of metric families (the process default,
    or one serving session's own)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_text: str,
                labelnames: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> _Family:
        names = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{list(family.labelnames)}; cannot "
                        f"re-register as {kind}{list(names)}")
                return family
            family = _Family(name, kind, help_text, names,
                             buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> _Family:
        """Register (idempotently) and return a counter family."""
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> _Family:
        """Register (idempotently) and return a gauge family."""
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> _Family:
        """Register (idempotently) and return a histogram family."""
        return self._family(name, "histogram", help_text, labelnames,
                            buckets=buckets)

    # ------------------------------------------------------------------
    # Introspection (tests, /metrics)
    # ------------------------------------------------------------------
    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> float:
        """One counter/gauge sample (0.0 when never touched)."""
        family = self.get(name)
        if family is None:
            return 0.0
        key = (tuple(str(labels[n]) for n in family.labelnames)
               if labels else ())
        child = family.samples().get(key)
        if child is None:
            return 0.0
        if isinstance(child, Histogram):
            raise TypeError(f"{name} is a histogram; read its "
                            f"count/sum via get()")
        return child.value

    def reset(self) -> None:
        """Zero every sample; registrations survive (test isolation)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.samples()):
                child = family.samples()[key]
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        labels = _render_labels(
                            family.labelnames, key,
                            extra=("le", _format_number(bound)))
                        lines.append(f"{family.name}_bucket{labels} "
                                     f"{cumulative}")
                    base = _render_labels(family.labelnames, key)
                    lines.append(f"{family.name}_sum{base} "
                                 f"{_format_number(child.sum)}")
                    lines.append(f"{family.name}_count{base} "
                                 f"{child.count}")
                else:
                    labels = _render_labels(family.labelnames, key)
                    lines.append(f"{family.name}{labels} "
                                 f"{_format_number(child.value)}")
        return "\n".join(lines) + "\n"


#: The process-default registry: everything in ``repro`` that is not
#: explicitly per-session records here, and ``GET /metrics`` renders it
#: before the serving session's own.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Engine-stats bridge
# ----------------------------------------------------------------------

def publish_engine_stats(engine: str, stats: ExecutionStats,
                         registry: Optional[MetricsRegistry] = None
                         ) -> None:
    """Feed one run's :class:`~repro.engine.executor.ExecutionStats`
    into the cumulative ``repro_engine_*_total{engine=...}`` counters.

    The run's record is the origin — the registry only accumulates it
    per process.  Cheap: one call per transform/program/delta-apply,
    not per row; a zero field adds no sample.
    """
    if not _ENABLED:
        return
    registry = registry or REGISTRY
    registry.counter("repro_engine_runs_total",
                     "Engine executions by engine.",
                     ("engine",)).labels(engine).inc()
    for suffix, attr, amount in (
            ("clauses", "clauses_run", stats.clauses_run),
            ("bindings", "bindings_found", stats.bindings_found),
            ("objects_created", "objects_created", stats.objects_created),
            ("index_builds", "indexes_built", stats.indexes_built),
            ("index_hits", "index_hits", stats.index_hits),
            ("index_misses", "index_misses", stats.index_misses),
            ("vectorized_steps", "vectorized_steps",
             stats.vectorized_steps),
            ("vectorized_rows", "vectorized_rows", stats.vectorized_rows)):
        if amount:
            registry.counter(
                f"repro_engine_{suffix}_total",
                f"Cumulative ExecutionStats.{attr} by engine.",
                ("engine",)).labels(engine).inc(amount)
