"""Clock-free work bound: a whole-instance pass runs no garbage
collection.

A batch transform, a Tr-audit, an incremental session start and a
store recovery each build a whole instance graph and keep it; a collection inside them
would only walk that growing graph again.  Each runs with the cyclic
collector paused (:func:`repro.obs.collector.pauses_collector`), so
none of any generation starts inside the call — counted with
``gc.callbacks``, not timed.  A delta step is not paused.
"""

import gc

import pytest

from repro.store.store import WarehouseStore


@pytest.fixture
def collections():
    """A list that receives the generation of every collection that
    starts while the test runs, with the collector on and the youngest
    generation collected every 100 net allocations (700 by default), so
    that no pass stays under the threshold by its size alone."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(100, *thresholds[1:])
    gc.callbacks.append(hook)
    yield started
    gc.callbacks.remove(hook)
    gc.set_threshold(*thresholds)
    if not was:
        gc.disable()


def _passes(warehouse, path):
    morphase, sources = warehouse.morphase, warehouse.sources
    return {
        "transform": lambda: morphase.transform(sources),
        "audit": lambda: morphase.audit(sources, warehouse.target),
        "begin_incremental": lambda: morphase.begin_incremental(sources),
        "store_open": lambda: WarehouseStore.open(path),
    }


@pytest.mark.parametrize("call", ["transform", "audit",
                                  "begin_incremental", "store_open"])
def test_a_whole_instance_pass_runs_no_collection(warehouses, tmp_path,
                                                  collections, call):
    warehouse = warehouses["genome"]
    path = str(tmp_path / "store")
    WarehouseStore.create(path, warehouse.morphase._merge_sources(
        warehouse.sources)).close()
    del collections[:]
    result = _passes(warehouse, path)[call]()
    assert collections == []
    assert gc.isenabled()
    if isinstance(result, WarehouseStore):
        result.close()


def test_the_unpaused_transform_does_collect(warehouses, collections):
    """The bound above is not vacuous: the same transform with the
    pause unwrapped starts collections."""
    morphase = warehouses["genome"].morphase
    type(morphase).transform.__wrapped__(morphase,
                                         warehouses["genome"].sources)
    assert 0 in collections
