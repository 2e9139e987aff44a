"""The metrics registry: bucket math, rendering, isolation.

The Prometheus text rendering is wire format for ``GET /metrics`` —
one golden test pins it byte for byte.
"""

import threading

import pytest

from repro.engine.executor import ExecutionStats
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, enabled,
                               publish_engine_stats, set_enabled)


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_never_lose_updates(self):
        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_disabled_mutations_are_noops(self):
        counter = Counter()
        gauge = Gauge()
        histogram = Histogram((1.0,))
        set_enabled(False)
        try:
            assert not enabled()
            counter.inc()
            gauge.set(5)
            histogram.observe(0.5)
        finally:
            set_enabled(True)
        assert counter.value == 0
        assert gauge.value == 0
        assert histogram.count == 0


class TestHistogramBuckets:
    def test_observation_lands_in_first_bucket_at_or_above(self):
        histogram = Histogram((0.1, 0.5, 1.0))
        histogram.observe(0.05)   # < 0.1        -> le=0.1
        histogram.observe(0.1)    # == bound     -> le=0.1 (le means <=)
        histogram.observe(0.3)    #              -> le=0.5
        histogram.observe(2.0)    # above all    -> +Inf
        counts, total_sum, count = histogram.snapshot()
        assert counts == (2, 1, 0, 1)
        assert count == 4
        assert total_sum == pytest.approx(2.45)

    def test_cumulative_is_monotonic_and_ends_at_count(self):
        histogram = Histogram((1, 2, 4))
        for value in (0.5, 1.5, 3, 8, 9):
            histogram.observe(value)
        pairs = histogram.cumulative()
        assert pairs == [(1.0, 1), (2.0, 2), (4.0, 3),
                         (float("inf"), 5)]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram(())


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help")
        b = registry.counter("x_total", "ignored on re-register")
        assert a is b

    def test_conflicting_reregistration_fails(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help")
        registry.counter("y_total", "help", ("role",))
        with pytest.raises(ValueError):
            registry.counter("y_total", "help", ("other",))

    def test_labelled_children_are_interned(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", "h", ("method", "code"))
        family.labels("GET", "200").inc()
        family.labels(method="GET", code="200").inc()
        assert registry.value("req_total",
                              {"method": "GET", "code": "200"}) == 2
        with pytest.raises(ValueError):
            family.labels("GET")  # wrong arity

    def test_label_values_by_position_or_name_not_both(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", "h", ("method", "code"))
        with pytest.raises(ValueError):
            family.labels("GET", code="200")
        with pytest.raises(ValueError):
            family.labels(method="GET")  # code missing

    def test_value_of_untouched_metrics_is_zero(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "h", ("method",))
        assert registry.value("never_registered") == 0.0
        assert registry.value("req_total", {"method": "PUT"}) == 0.0

    def test_value_refuses_a_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("latency_seconds", "h").observe(0.2)
        with pytest.raises(TypeError):
            registry.value("latency_seconds")
        assert registry.get("latency_seconds").labels().count == 1

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "h", ("k",))
        family.labels("a").inc(7)
        registry.reset()
        assert registry.value("x_total", {"k": "a"}) == 0
        assert registry.get("x_total") is family

    def test_render_golden(self):
        """The exposition format, pinned: HELP/TYPE lines, cumulative
        ``_bucket`` samples with ``le``, ``_sum``/``_count``, label
        escaping, integer formatting."""
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests served.",
                         ("endpoint",)).labels('/que"ry').inc(3)
        registry.gauge("repro_in_flight", "In-flight requests.").set(2)
        histogram = registry.histogram(
            "repro_latency_seconds", "Request latency.",
            buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert registry.render() == (
            '# HELP repro_in_flight In-flight requests.\n'
            '# TYPE repro_in_flight gauge\n'
            'repro_in_flight 2\n'
            '# HELP repro_latency_seconds Request latency.\n'
            '# TYPE repro_latency_seconds histogram\n'
            'repro_latency_seconds_bucket{le="0.1"} 1\n'
            'repro_latency_seconds_bucket{le="1"} 2\n'
            'repro_latency_seconds_bucket{le="+Inf"} 3\n'
            'repro_latency_seconds_sum 5.55\n'
            'repro_latency_seconds_count 3\n'
            '# HELP repro_requests_total Requests served.\n'
            '# TYPE repro_requests_total counter\n'
            'repro_requests_total{endpoint="/que\\"ry"} 3\n')


class TestEngineStatsBridge:
    def test_publishes_nonzero_fields_per_engine(self):
        registry = MetricsRegistry()
        # Zero fields (vectorized_rows here) are skipped entirely.
        stats = ExecutionStats(clauses_run=4, bindings_found=10,
                               vectorized_steps=7)
        publish_engine_stats("columnar", stats, registry)
        publish_engine_stats("columnar", stats, registry)
        label = {"engine": "columnar"}
        assert registry.value("repro_engine_runs_total", label) == 2
        assert registry.value("repro_engine_clauses_total", label) == 8
        assert registry.value("repro_engine_bindings_total",
                              label) == 20
        assert registry.get("repro_engine_vectorized_rows_total") is None
