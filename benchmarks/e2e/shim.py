"""The tracing shim: spans around the public functions of each layer.

Nothing under ``src/`` is instrumented for the benchmark; the traced
replay wraps, *by attribute*, names the packages export (or public
methods of exported classes) and records one span per call: name,
start, end, parent (a per-thread stack) and the id of the operation in
flight.  Spans stay in memory and are written out when the replay
ends.  A span's self time is its duration minus the time its child
spans cover.

A wrap target that no longer exists is skipped with a warning and its
metrics read zero calls, zero time — a later change that deletes a
function must not break the ruler.

Two very hot, recursive targets (``value_to_json``, ``IndexPool.
index_for``) are wrapped in *leaf* mode: no span object, only a
``[calls, seconds]`` roll-up on the parent span, and nested calls are
not timed again.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

#: span name -> (module, attribute path, mode).  ``Class.method`` paths
#: patch the class attribute; plain names are patched in every loaded
#: ``repro`` module that imported them.
TARGETS: Dict[str, Tuple[str, str, str]] = {
    "morphase.compile": ("repro.morphase", "Morphase.compile", "span"),
    "morphase.transform": ("repro.morphase", "Morphase.transform", "span"),
    "morphase.audit": ("repro.morphase", "Morphase.audit", "span"),
    "lang.parse": ("repro.lang", "parse_program", "span"),
    "normalization.normalize": ("repro.normalization", "normalize", "span"),
    "analysis.preflight": ("repro.analysis", "analyze_program", "span"),
    "engine.planner.plan_program":
        ("repro.engine", "plan_program", "span"),
    "engine.planner.plan_audit": ("repro.engine", "plan_audit", "span"),
    "engine.planner.plan_clause": ("repro.engine", "plan_clause", "span"),
    "semantics.match.prebuild":
        ("repro.semantics.match", "IndexPool.prebuild", "span"),
    "semantics.match.index_for":
        ("repro.semantics.match", "IndexPool.index_for", "leaf"),
    "semantics.match.rebase":
        ("repro.semantics.match", "IndexPool.rebase", "span"),
    "semantics.columns.patch":
        ("repro.semantics.columns", "ColumnStore.patch", "span"),
    "engine.executor.run_program":
        ("repro.engine", "Executor.run_program", "span"),
    "engine.executor.freeze": ("repro.engine", "Executor.freeze", "span"),
    "engine.columnar.compile_steps":
        ("repro.engine.columnar", "compile_steps", "span"),
    "engine.columnar.run_steps":
        ("repro.engine.columnar", "run_steps_columnar", "span"),
    "constraints.audit.violations":
        ("repro.semantics", "program_violations", "span"),
    "engine.incremental.transform_apply":
        ("repro.engine", "IncrementalTransform.apply_delta", "span"),
    "engine.incremental.audit_apply":
        ("repro.engine", "IncrementalAudit.apply_delta", "span"),
    "evolution.delta.compose": ("repro.evolution", "compose_deltas", "span"),
    "io.json_io.instance_to_json":
        ("repro.io", "instance_to_json", "span"),
    "io.json_io.value_to_json": ("repro.io", "value_to_json", "leaf"),
    "store.store.open": ("repro.store", "WarehouseStore.open", "span"),
    "store.store.append": ("repro.store", "WarehouseStore.append", "span"),
    "store.store.decode_delta":
        ("repro.store", "WarehouseStore.decode_delta", "span"),
    "store.store.snapshot":
        ("repro.store", "WarehouseStore.snapshot", "span"),
    "store.wal.append": ("repro.store", "WriteAheadLog.append", "span"),
    "store.wal.replay": ("repro.store", "WriteAheadLog.replay", "span"),
    "store.snapshot.load": ("repro.store", "load_snapshot", "span"),
    "service.session.rebuild": ("repro.morphase", "Morphase.serve", "span"),
    "service.session.query_body_json":
        ("repro.service", "WarehouseSession.query_body_json", "span"),
    "service.session.program_json":
        ("repro.service", "WarehouseSession.program_json", "span"),
    "service.session.target_json":
        ("repro.service", "WarehouseSession.target_json", "span"),
    "service.session.check_json":
        ("repro.service", "WarehouseSession.check_json", "span"),
    "service.session.ingest_json":
        ("repro.service", "WarehouseSession.ingest_json", "span"),
    "query.parse": ("repro.query", "Query.parse", "span"),
    "query.run_planned": ("repro.query", "Query.run_planned", "span"),
    "program.parse": ("repro.program", "parse_program_text", "span"),
    "program.compile": ("repro.program", "compile_program", "span"),
    "program.run": ("repro.program", "run_compiled", "span"),
}

# span record layout
_NAME, _OP, _PARENT, _START, _END, _DUR, _CHILD, _ROLL = range(8)
_BUSY: List[Any] = ["<leaf>"]      # stack marker: inside a leaf call


def _load_all_repro_modules() -> None:
    """Import every ``repro`` submodule, so that names bound by
    ``from x import f`` exist to be patched before the replay starts."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except Exception:   # noqa: BLE001 - an optional module may not load
            pass


class Shim:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.missing: List[str] = []
        self.op = -1            # id of the operation in flight
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self, targets: Optional[Dict[str, Tuple[str, str, str]]]
                = None) -> None:
        _load_all_repro_modules()
        for name, (module_name, path, mode) in (targets or TARGETS).items():
            try:
                self._wrap(name, module_name, path, mode)
            except (ImportError, AttributeError) as exc:
                self.missing.append(name)
                print(f"warning: trace target {name} "
                      f"({module_name}:{path}) is gone: {exc}",
                      file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, module_name: str, path: str,
              mode: str) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise AttributeError(f"{class_name} has no own {attr}")
            rebind = type(raw) if isinstance(
                raw, (staticmethod, classmethod)) else None
            function = raw.__func__ if rebind else raw
            wrapped = self._wrapper(name, function, mode)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, rebind(wrapped) if rebind else wrapped)
            return
        function = getattr(module, path)
        wrapped = self._wrapper(name, function, mode)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro"
                                      or loaded_name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is function:
                    self._undo.append((loaded, attr, function))
                    setattr(loaded, attr, wrapped)

    # ------------------------------------------------------------------
    def _stack(self) -> List[Any]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _wrapper(self, name: str, function, mode: str):
        if mode == "leaf":
            return self._leaf_wrapper(name, function)
        if inspect.isgeneratorfunction(function):
            return self._generator_wrapper(name, function)
        shim, clock = self, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = shim._stack()
            parent = stack[-1] if stack else None
            record = [name, shim.op, parent, 0.0, 0.0, 0.0, 0.0, None]
            stack.append(record)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                shim._close(record, parent, start, end, end - start)

        wrapper.__wrapped__ = function
        return wrapper

    def _generator_wrapper(self, name: str, function):
        """Time only the slices in which the generator itself runs."""
        shim, clock = self, time.perf_counter

        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            record: Optional[List[Any]] = None
            first = 0.0
            active = 0.0
            parent = None
            try:
                while True:
                    stack = shim._stack()
                    if record is None:
                        parent = stack[-1] if stack else None
                        record = [name, shim.op, parent,
                                  0.0, 0.0, 0.0, 0.0, None]
                        first = clock()
                    stack.append(record)
                    start = clock()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        active += clock() - start
                        stack.pop()
                    yield item
            finally:
                generator.close()
                if record is not None:
                    shim._close(record, parent, first, clock(), active)

        wrapper.__wrapped__ = function
        return wrapper

    def _close(self, record, parent, start, end, duration) -> None:
        record[_START], record[_END], record[_DUR] = start, end, duration
        if parent is not None and parent is not _BUSY:
            parent[_CHILD] += duration
        self.spans.append(record)

    def _leaf_wrapper(self, name: str, function):
        shim, clock = self, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = shim._stack()
            if not stack or stack[-1] is _BUSY:
                return function(*args, **kwargs)
            parent = stack[-1]
            stack.append(_BUSY)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                parent[_CHILD] += spent
                rollups = parent[_ROLL]
                if rollups is None:
                    rollups = parent[_ROLL] = {}
                entry = rollups.get(name)
                if entry is None:
                    rollups[name] = [1, spent]
                else:
                    entry[0] += 1
                    entry[1] += spent

        wrapper.__wrapped__ = function
        return wrapper

    # ------------------------------------------------------------------
    def root(self, name: str, op: int):
        """Context manager: the client-side span of one operation."""
        return _Root(self, name, op)

    # ------------------------------------------------------------------
    def totals(self, ops: Optional[set] = None
               ) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over spans of ``ops``
        (default: every operation with id >= 0)."""
        out: Dict[str, List[float]] = {}
        for record in self.spans:
            op = record[_OP]
            if op < 0 if ops is None else op not in ops:
                continue
            entry = out.setdefault(record[_NAME], [0, 0.0])
            entry[0] += 1
            entry[1] += max(0.0, record[_DUR] - record[_CHILD])
            for name, (calls, seconds) in (record[_ROLL] or {}).items():
                rolled = out.setdefault(name, [0, 0.0])
                rolled[0] += calls
                rolled[1] += seconds
        return {name: (int(calls), seconds)
                for name, (calls, seconds) in out.items()}

    def server_seconds(self) -> Dict[int, float]:
        """Per operation: time covered by the outermost non-client
        spans (what the shim saw of the operation)."""
        covered: Dict[int, float] = {}
        for record in self.spans:
            if record[_OP] < 0 or record[_NAME].startswith("client."):
                continue
            parent = record[_PARENT]
            if parent is None or parent[_NAME].startswith("client."):
                covered[record[_OP]] = (covered.get(record[_OP], 0.0)
                                        + record[_DUR])
        return covered

    def dump(self, path: str, ops: List[Tuple[int, str, str]]) -> None:
        """Write every span: ``[id, name, op, parent id, start, end,
        duration, self, rollups]`` (seconds, ``perf_counter`` clock)."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        rows = []
        for index, record in enumerate(self.spans):
            parent = record[_PARENT]
            rows.append([
                index, record[_NAME], record[_OP],
                ids.get(id(parent)) if parent is not None else None,
                record[_START], record[_END], record[_DUR],
                max(0.0, record[_DUR] - record[_CHILD]),
                record[_ROLL] or {}])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["id", "name", "op", "parent", "start",
                                   "end", "duration", "self", "rollups"],
                       "ops": ops, "missing": self.missing,
                       "spans": rows}, handle)


class _Root:
    def __init__(self, shim: Shim, name: str, op: int) -> None:
        self.shim, self.name, self.op = shim, name, op

    def __enter__(self):
        shim = self.shim
        shim.op = self.op
        self.record = [self.name, self.op, None, 0.0, 0.0, 0.0, 0.0, None]
        shim._stack().append(self.record)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        shim = self.shim
        shim._stack().pop()
        shim._close(self.record, None, self.start, end, end - self.start)
        shim.op = -1
