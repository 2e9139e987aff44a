"""The collector pause and the garbage-collection metrics.

A whole-instance pass runs with the cyclic collector disabled
(:func:`repro.obs.collector.pauses_collector`); whatever happens in
the pass, the caller gets back the collector state it had.  Every
collection of the process is counted in the process registry.
"""

import gc
import sys
import threading

import pytest

from repro.obs.collector import pauses_collector
from repro.obs.metrics import REGISTRY, set_enabled


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pauses_collector
def _inside():
    return gc.isenabled()


class TestPause:
    def test_the_pass_runs_paused_and_the_caller_gets_it_back(
            self, collector_on):
        assert _inside() is False
        assert gc.isenabled()

    def test_restored_when_the_pass_raises(self, collector_on):
        @pauses_collector
        def failing():
            assert not gc.isenabled()
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            failing()
        assert gc.isenabled()

    def test_nested_scopes_restore_only_at_the_outermost_exit(
            self, collector_on):
        seen = []

        @pauses_collector
        def outer():
            seen.append(_inside())
            seen.append(gc.isenabled())  # the inner exit kept it paused

        outer()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_a_caller_who_disabled_the_collector_keeps_it_disabled(
            self, collector_on):
        gc.disable()
        assert _inside() is False
        assert not gc.isenabled()

    def test_overlapping_scopes_of_two_threads(self, collector_on):
        """Thread A enters, B enters, A leaves, B leaves: the collector
        stays paused until the last scope closes, then comes back."""
        a_entered, b_entered = threading.Event(), threading.Event()
        a_left, b_may_leave = threading.Event(), threading.Event()
        seen = {}

        @pauses_collector
        def scope_a():
            a_entered.set()
            b_entered.wait(5)

        @pauses_collector
        def scope_b():
            b_entered.set()
            a_left.wait(5)
            seen["b after a left"] = gc.isenabled()
            b_may_leave.wait(5)

        thread_a = threading.Thread(target=scope_a)
        thread_b = threading.Thread(target=scope_b)
        thread_a.start()
        a_entered.wait(5)
        thread_b.start()
        thread_a.join(5)
        a_left.set()
        while "b after a left" not in seen and thread_b.is_alive():
            thread_b.join(0.01)
        seen["main while b is open"] = gc.isenabled()
        b_may_leave.set()
        thread_b.join(5)
        assert seen == {"b after a left": False,
                        "main while b is open": False}
        assert gc.isenabled()

    def test_many_threads_never_see_the_collector_on_inside_a_scope(
            self, collector_on):
        """More threads than cores enter and leave scopes with a short
        switch interval: a lost update of the shared depth would switch
        the collector on under a scope still open, or leave it off."""
        leaks = []

        @pauses_collector
        def scope():
            if gc.isenabled():
                leaks.append(threading.get_ident())

        def worker():
            for _ in range(2000):
                scope()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert leaks == []
        assert gc.isenabled()


def _collections(generation):
    return REGISTRY.value("repro_gc_collections_total",
                          {"generation": str(generation)})


def _seconds_count(generation):
    family = REGISTRY.get("repro_gc_collection_seconds")
    return family.labels(str(generation)).count


class TestMetrics:
    def test_every_collection_is_counted_and_timed(self, collector_on):
        before = [_collections(g) for g in range(3)]
        timed = _seconds_count(2)
        gc.collect(0)
        gc.collect(2)
        assert _collections(0) >= before[0] + 1
        assert _collections(2) >= before[2] + 1
        assert _seconds_count(2) >= timed + 1
        assert "repro_gc_collections_total{generation=\"2\"}" in \
            REGISTRY.render()

    def test_disabled_metrics_record_nothing(self, collector_on):
        before = _collections(2)
        set_enabled(False)
        try:
            gc.collect(2)
        finally:
            set_enabled(True)
        assert _collections(2) == before

    def test_a_collection_inside_a_held_child_lock_does_not_deadlock(self):
        """The hook records from whatever thread a collection interrupts;
        that thread may hold the very child lock the hook takes."""
        child = REGISTRY.get("repro_gc_collection_seconds").labels("2")
        before = child.count

        def collect_holding_the_lock():
            with child._lock:
                gc.collect(2)

        thread = threading.Thread(target=collect_holding_the_lock,
                                  daemon=True)
        thread.start()
        thread.join(10)
        if thread.is_alive():
            # A plain lock can be released by another thread: free the
            # stuck one, so the failure does not hang the suite.
            child._lock.release()
            thread.join(10)
            pytest.fail("the hook deadlocked on a lock its thread held")
        assert child.count >= before + 1
