"""Columnar instance representation (the vectorized executor's layout).

A :class:`ColumnStore` shreds an :class:`~repro.model.instance.Instance`
into per-class arrays, built lazily the first time the vectorized plan
executor (:mod:`repro.engine.columnar`) touches a class:

* an **extent array** of oids in instance insertion order, plus an
  intern table mapping each live oid to its integer row;
* **scalar attribute columns**: one list per ``(class, attribute)``,
  aligned with the extent rows, holding the stored field value or
  :data:`MISSING` where the object lacks the attribute;
* **set columns** for collection-valued attributes: a flattened values
  array with per-row ``(start, length)`` offsets, each row's elements
  pre-sorted into the matcher's deterministic order (so a vectorized
  ``in``-generator never re-sorts per binding).

A reference a column holds is *interned*: an oid stored in an object's
value is replaced by the equal oid of the referenced class's extent,
the very key of that class's intern table (and the object an extent
scan binds).  A gather through the table then finds its key by
identity instead of comparing two oids (and the key records behind
them) field by field.

The store is *patchable under deltas*: :meth:`patch` applies exactly the
edit order of :meth:`repro.evolution.delta.Delta.apply_to` — deletions
tombstone rows, updates rewrite columns in place (dict insertion order
keeps the row position), insertions append — so a patched extent stays
byte-identical to a rebuild from the updated instance.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import is_
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..model.instance import Instance
from ..model.values import Oid, Record, Value, WolList, WolSet


class _Missing:
    """Sentinel for "no value here" (distinct from any WOL value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


#: Column entry marking an absent attribute / failed projection.  The
#: vectorized executor treats it exactly like the scalar matcher treats
#: an :class:`~repro.semantics.eval.EvalError`: the row is dropped.
MISSING = _Missing()


def first_missing(values: Iterable[Value]) -> Optional[int]:
    """The position of the first :data:`MISSING` entry, or None.

    One identity scan in C: ``MISSING in values`` would call each oid's
    Python-level ``__eq__``.
    """
    return next(compress(count(), map(is_, repeat(MISSING), values)), None)


def deterministic_order(collection) -> List[Value]:
    """A collection's elements in the one deterministic order.

    Lists keep their order, sets sort by textual form.  Pre-sorted set
    columns, the columnar ``in``-generator and the reference matcher
    (:mod:`repro.oracle`) all enumerate through it, so they can never
    diverge.
    """
    if isinstance(collection, WolList):
        return list(collection)
    if isinstance(collection, WolSet):
        elements = collection.elements
        if len(elements) < 2:
            return list(elements)
        return sorted(elements, key=str)
    return sorted(collection, key=str)


class _SetColumn:
    """One flattened collection column: values + per-row offsets.

    In-place row updates append the new elements at the tail and
    repoint the row's offsets; the hole left behind is never read.
    """

    __slots__ = ("values", "starts", "lengths")

    def __init__(self) -> None:
        self.values: List[Value] = []
        self.starts: List[int] = []
        self.lengths: List[int] = []

    def append_row(self, elements: Sequence[Value]) -> None:
        self.starts.append(len(self.values))
        self.lengths.append(len(elements))
        self.values.extend(elements)

    def rewrite_row(self, row: int, elements: Sequence[Value]) -> None:
        self.starts[row] = len(self.values)
        self.lengths[row] = len(elements)
        self.values.extend(elements)

    def slice_of(self, row: int) -> List[Value]:
        start = self.starts[row]
        return self.values[start:start + self.lengths[row]]


class _ClassColumns:
    """The columnar state of one class (rows = raw extent positions)."""

    __slots__ = ("oids", "rows", "alive", "live", "scalars", "sets",
                 "_extent", "_extent_rows")

    def __init__(self, oids: Sequence[Oid]) -> None:
        #: Raw rows in insertion order; tombstoned rows stay in place.
        self.oids: List[Oid] = list(oids)
        #: Intern table: live oid -> row (tombstoned oids are evicted).
        self.rows: Dict[Oid, int] = {
            oid: row for row, oid in enumerate(self.oids)}
        self.alive: List[bool] = [True] * len(self.oids)
        self.live: int = len(self.oids)
        self.scalars: Dict[str, List[Value]] = {}
        self.sets: Dict[str, _SetColumn] = {}
        self._extent: Optional[List[Oid]] = None
        self._extent_rows: Optional[List[int]] = None

    def extent(self) -> List[Oid]:
        cached = self._extent
        if cached is None:
            if self.live == len(self.oids):
                cached = list(self.oids)
            else:
                alive = self.alive
                cached = [oid for row, oid in enumerate(self.oids)
                          if alive[row]]
            self._extent = cached
        return cached

    def extent_rows(self) -> List[int]:
        """The raw row index of each :meth:`extent` entry, aligned."""
        cached = self._extent_rows
        if cached is None:
            if self.live == len(self.oids):
                cached = list(range(len(self.oids)))
            else:
                alive = self.alive
                cached = [row for row in range(len(self.oids))
                          if alive[row]]
            self._extent_rows = cached
        return cached

    def invalidate_views(self) -> None:
        self._extent = None
        self._extent_rows = None


def _scalar_entry(value: Value, attr: str) -> Value:
    if isinstance(value, Record) and value.has(attr):
        return value.get(attr)
    return MISSING


def _set_entry(value: Value, attr: str) -> List[Value]:
    if isinstance(value, Record) and value.has(attr):
        field = value.get(attr)
        if isinstance(field, (WolSet, WolList)):
            return deterministic_order(field)
    return []


class ColumnStore:
    """Per-class columnar arrays over one instance, built lazily."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._classes: Dict[str, _ClassColumns] = {}
        #: Maintenance counters (observability; never semantics).
        self.classes_built = 0
        self.columns_built = 0
        self.rows_patched = 0

    # ------------------------------------------------------------------
    # Lazy construction
    # ------------------------------------------------------------------
    def _class(self, class_name: str) -> _ClassColumns:
        columns = self._classes.get(class_name)
        if columns is None:
            columns = _ClassColumns(self.instance.objects_of(class_name))
            self._classes[class_name] = columns
            self.classes_built += 1
        return columns

    def extent(self, class_name: str) -> List[Oid]:
        """The live oids of one class, in instance insertion order."""
        return self._class(class_name).extent()

    def row_map(self, class_name: str) -> Dict[Oid, int]:
        """The intern table: live oid -> raw row position."""
        return self._class(class_name).rows

    def extent_rows(self, class_name: str) -> List[int]:
        """Raw row indices aligned with :meth:`extent` — the batch
        executor threads these alongside scan-bound oid columns so
        downstream gathers index arrays instead of hashing oids."""
        return self._class(class_name).extent_rows()

    def scalar_column(self, class_name: str, attr: str) -> List[Value]:
        """The per-row values of one attribute (:data:`MISSING` gaps)."""
        columns = self._class(class_name)
        column = columns.scalars.get(attr)
        if column is None:
            if columns.live == len(columns.oids):
                # No tombstones: the raw rows are exactly the
                # valuation dict in iteration order (updates rewrite
                # in place, insertions append), so build straight off
                # the stored values without per-oid hash lookups.
                column = [
                    value._index.get(attr, MISSING)
                    if isinstance(value, Record) else MISSING
                    for value in
                    self.instance.valuations[class_name].values()]
            else:
                value_of = self.instance.value_of
                alive = columns.alive
                column = [
                    _scalar_entry(value_of(oid), attr) if alive[row]
                    else MISSING
                    for row, oid in enumerate(columns.oids)]
            column = self.interned(column)
            columns.scalars[attr] = column
            self.columns_built += 1
        return column

    def _set_column(self, class_name: str, attr: str) -> _SetColumn:
        columns = self._class(class_name)
        column = columns.sets.get(attr)
        if column is None:
            column = _SetColumn()
            if columns.live == len(columns.oids):
                # Tombstone-free fast path (see ``scalar_column``),
                # with the append inlined: per row one dict probe, one
                # sort and three list appends.
                values = column.values
                starts = column.starts
                lengths = column.lengths
                for value in self.instance.valuations[class_name].values():
                    field = (value._index.get(attr)
                             if isinstance(value, Record) else None)
                    starts.append(len(values))
                    if isinstance(field, (WolSet, WolList)):
                        elements = deterministic_order(field)
                        lengths.append(len(elements))
                        values.extend(elements)
                    else:
                        lengths.append(0)
            else:
                value_of = self.instance.value_of
                alive = columns.alive
                for row, oid in enumerate(columns.oids):
                    column.append_row(
                        _set_entry(value_of(oid), attr) if alive[row]
                        else ())
            column.values = self.interned(column.values)
            columns.sets[attr] = column
            self.columns_built += 1
        return column

    def interned(self, values: List[Value]) -> List[Value]:
        """``values`` with every oid replaced by the equal key of its
        class's intern table (a dangling one stays as it is).  Builds
        the referenced classes from the store's instance, so a patch,
        which runs before the store moves to the new instance, must
        not call it."""
        classes = {value.class_name for value in values
                   if value.__class__ is Oid}
        if not classes:
            return values
        for class_name in classes & self.instance.valuations.keys():
            self._class(class_name)
        canonical = self._canonical
        return [canonical(value) if value.__class__ is Oid else value
                for value in values]

    def _canonical(self, oid: Oid) -> Oid:
        """The key equal to ``oid`` in its built class's intern table,
        else ``oid`` itself."""
        columns = self._classes.get(oid.class_name)
        row = None if columns is None else columns.rows.get(oid)
        return oid if row is None else columns.oids[row]

    def set_slice(self, oid: Oid, attr: str) -> Sequence[Value]:
        """``oid``'s collection elements at ``attr``, pre-ordered.

        Empty when the object is gone, lacks the attribute, or holds a
        non-collection there — all cases where an ``in``-generator
        yields nothing.
        """
        columns = self._class(oid.class_name)
        row = columns.rows.get(oid)
        if row is None:
            return ()
        return self._set_column(oid.class_name, attr).slice_of(row)

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def patch(self, new_instance: Instance,
              strict_removed: Mapping[str, Sequence[Oid]],
              strict_added: Mapping[str, Sequence[Oid]]) -> None:
        """Patch built columns in place for one applied delta.

        ``strict_removed``/``strict_added`` are the per-class oids the
        delta itself names (the same strict sets
        :meth:`repro.semantics.match.IndexPool.rebase` uses): removed
        minus added = deletions, the intersection = in-place updates,
        added minus removed = insertions appended in ``strict_added``
        order — exactly ``Delta.apply_to``'s edit order, so patched
        extents match a rebuild from ``new_instance`` byte for byte.
        Classes the store never materialised are skipped (they build
        lazily from the new instance); any inconsistency observed while
        patching falls back to invalidating the class.
        """
        touched = set(strict_removed) | set(strict_added)
        references: List[Tuple[List[Value], int]] = []
        for class_name in touched:
            columns = self._classes.get(class_name)
            if columns is None:
                continue
            removed = set(strict_removed.get(class_name, ()))
            added = tuple(strict_added.get(class_name, ()))
            added_set = set(added)
            ok = True
            for oid in removed:
                if oid in added_set:
                    continue  # update, handled below
                row = columns.rows.pop(oid, None)
                if row is None:
                    ok = False
                    break
                columns.alive[row] = False
                columns.live -= 1
                self.rows_patched += 1
            if ok:
                ok = self._patch_added(new_instance, columns, added,
                                       removed, references)
            columns.invalidate_views()
            expected = len(new_instance.valuations.get(class_name, ()))
            if not ok or columns.live != expected:
                del self._classes[class_name]
        self.instance = new_instance
        # Interned once every class is patched: a reference may name an
        # object the same delta inserts into a class patched later.
        for column, at in references:
            column[at] = self._canonical(column[at])

    def _patch_added(self, new_instance: Instance,
                     columns: _ClassColumns, added: Sequence[Oid],
                     removed: Iterable[Oid],
                     references: List[Tuple[List[Value], int]]) -> bool:
        """Write the rows of ``added``; every position that now holds
        an oid is appended to ``references``."""
        removed = set(removed)
        for oid in added:
            try:
                value = new_instance.value_of(oid)
            except Exception:
                return False
            if oid in removed:  # update: rewrite the row in place
                row = columns.rows.get(oid)
                if row is None or not columns.alive[row]:
                    return False
            else:  # insert: append a fresh row
                if oid in columns.rows:
                    return False
                row = len(columns.oids)
                columns.oids.append(oid)
                columns.alive.append(True)
                columns.rows[oid] = row
                columns.live += 1
            for attr, column in columns.scalars.items():
                entry = _scalar_entry(value, attr)
                if row == len(column):
                    column.append(entry)
                else:
                    column[row] = entry
                if entry.__class__ is Oid:
                    references.append((column, row))
            for attr, column in columns.sets.items():
                elements = _set_entry(value, attr)
                start = len(column.values)
                if row == len(column.starts):
                    column.append_row(elements)
                else:
                    column.rewrite_row(row, elements)
                references.extend(
                    (column.values, start + at)
                    for at, element in enumerate(elements)
                    if element.__class__ is Oid)
            self.rows_patched += 1
        return True
