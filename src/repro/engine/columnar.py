"""Vectorized plan-step execution over columnar batches.

This is how every planned clause body and every constraint head runs.
It executes a :class:`~repro.semantics.match.PlanStep` sequence one
**batch** at a time: a batch is a dict of parallel binding columns
(``variable -> list of values``) plus a row count, and each step
consumes the whole batch — extent cross-products, batched index probes,
selector filters as list comprehensions — emitting the surviving
columns.

A batch stage maps input rows in order and expands each row's
candidates in candidate order, so a batch seeded with several rows
enumerates exactly what running the plan once per row would, grouped
by row in row order.  That is what makes a constraint audit one
anti-join (:func:`unextended_rows`): the head runs once over the whole
body batch, and the body rows it never extends are the violations.
The differential fuzz harness holds the batch path to results
byte-equal with the oracle's dynamic matcher's.

Every step is a batch stage.  A generator whose element is a
*pattern* — variables and constants under record, variant and Skolem
constructors — fills a hidden candidate column and destructures it,
and an equation binding a pattern evaluates its other side and
destructures that: :func:`compile_pattern` turns the unification into
keep-masks, gathers and equality tests over whole columns.

Terms are compiled once per plan into column evaluators; a failed
per-row evaluation (the scalar evaluator's :class:`EvalError`) marks
the row :data:`~repro.semantics.columns.MISSING` and the consuming
stage drops it.  Stages take the
:class:`~repro.semantics.match.IndexPool` they run on — its instance,
hash indexes and columns — and keep no state between calls, so one
compilation serves any instance of the schema (the incremental engine
compiles once a session).

Stages and plan steps are one-to-one, and each step mode has one
general stage: Skolem terms differ only where their *meaning* does
(constant, bare single key, duplicate labels, interned n-ary key),
identities are minted through the unchecked constructors of
:mod:`repro.model.values` (the only module that knows the layout of
``Oid`` and ``Record``), and a generator whose element nobody reads
runs like any other — liveness filtering drops its column afterwards.
A hand-specialised copy of a stage earns its place only when an
end-to-end metric of ``benchmarks/e2e`` can see it.
"""

from __future__ import annotations

from itertools import repeat
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..lang.ast import (Atom, Const, EqAtom, InAtom, LtAtom, MemberAtom,
                        NeqAtom, Proj, RecordTerm, SkolemTerm, Term, Var,
                        VariantTerm)
from ..model.instance import InstanceError
from ..model.schema import Schema
from ..model.types import ClassType, ListType, RecordType, SetType
from ..model.values import Oid, Record, Value, Variant, WolList, WolSet
from ..obs.trace import current_span
from ..obs.trace import span as trace_span
from ..semantics.columns import (MISSING, deterministic_order,
                                 first_missing)
from ..semantics.eval import skolem_key
from ..semantics.match import (STEP_COMPARE, STEP_EQ_BIND, STEP_EQ_TEST,
                               STEP_IN_GENERATE, STEP_IN_TEST,
                               STEP_MEMBER_INDEX, STEP_MEMBER_SCAN,
                               STEP_MEMBER_TEST, IndexPool, PlanStep,
                               checked_steps)
from .executor import ExecutionStats

#: A batch: parallel binding columns, all of one length.
Columns = Dict[str, List[Value]]

#: A compiled column evaluator: ``(pool, columns, count) -> values``.
Evaluator = Callable[[IndexPool, Columns, int], List[Value]]

#: A compiled stage: ``(pool, columns, count) -> (columns, count)``.
Stage = Callable[[IndexPool, Columns, int], Tuple[Columns, int]]

#: A compiled pattern (:func:`compile_pattern`): ``(columns, values) ->
#: (keep, bound)``, the matching rows and the columns bound over them.
Pattern = Callable[[Columns, List[Value]], Tuple[List[int], Columns]]

#: What :func:`compile_steps` returns: ``(stages, names, retains)``.
CompiledPlan = Tuple[List[Stage], Tuple[str, ...], List[Optional[frozenset]]]

#: Hidden-column prefix: a scan that binds variable ``X`` also emits
#: ``\0row\0X`` holding each oid's raw :class:`ColumnStore` row, so
#: downstream gathers and ``in``-generators index attribute arrays by
#: integer instead of hashing oids through the intern table.  The NUL
#: byte keeps the name disjoint from every parseable variable; row
#: columns ride through filters like any other column and die at
#: liveness boundaries with their base variable.
_ROW_PREFIX = "\0row\0"

#: Hidden column numbering the rows of a probed batch
#: (:func:`unextended_rows`).  Every hidden column starts with NUL.
_PROBE_ROW = "\0probe"

#: Hidden column a generator whose element is a pattern fills with its
#: candidates, for :func:`compile_pattern` to destructure.
_CANDIDATE = "\0candidate"


# ----------------------------------------------------------------------
# Term compilation: Term -> column evaluator
# ----------------------------------------------------------------------

def compile_term(term: Term,
                 var_class: Optional[Dict[str, str]] = None) -> Evaluator:
    """Compile ``term`` into a whole-column evaluator.

    Rows that fail to evaluate (the scalar path's ``EvalError``) come
    back as :data:`MISSING`.  ``var_class`` maps variables statically
    known to hold oids of one class (membership-bound) to that class,
    enabling gathers from prebuilt attribute columns.
    """
    if var_class is None:
        var_class = {}
    if isinstance(term, Var):
        name = term.name
        return lambda pool, columns, count: columns[name]
    if isinstance(term, Const):
        value = term.value
        return lambda pool, columns, count: [value] * count
    if isinstance(term, Proj):
        return _compile_proj(term, var_class)
    if isinstance(term, VariantTerm):
        payload = compile_term(term.payload, var_class)
        label = term.label

        def variant_column(pool: IndexPool, columns: Columns,
                           count: int) -> List[Value]:
            return [MISSING if value is MISSING else Variant(label, value)
                    for value in payload(pool, columns, count)]
        return variant_column
    if isinstance(term, RecordTerm):
        labels = tuple(label for label, _ in term.fields)
        parts = tuple(compile_term(sub, var_class)
                      for _, sub in term.fields)

        def record_column(pool: IndexPool, columns: Columns,
                          count: int) -> List[Value]:
            evaluated = [part(pool, columns, count) for part in parts]
            out: List[Value] = []
            for row in range(count):
                values = tuple(column[row] for column in evaluated)
                if any(value is MISSING for value in values):
                    out.append(MISSING)
                else:
                    out.append(Record(tuple(zip(labels, values))))
            return out
        return record_column
    if isinstance(term, SkolemTerm):
        labels = tuple(label for label, _ in term.args)
        parts = tuple(compile_term(sub, var_class) for _, sub in term.args)
        class_name = term.class_name
        # The key packing rule (``skolem_key``) depends only on the
        # argument shape — resolve it once per compiled term.
        if not parts:
            constant = Oid.keyed(class_name, skolem_key(class_name, ()))
            return lambda pool, columns, count: [constant] * count
        if labels[0] is None and len(parts) == 1:
            single = parts[0]
            mint = Oid.keyed_unchecked

            def skolem_single(pool: IndexPool, columns: Columns,
                              count: int) -> List[Value]:
                # Interning minted identities matters beyond saving the
                # constructor call: in-generate steps fan each source
                # row out over collection elements, so identity columns
                # are full of duplicate keys.  Handing every duplicate
                # the same object keeps its hash cached, which is what
                # makes the pending-store probes in the head phase
                # cheap.  Per call: a compiled term keeps no identities.
                interned: Dict[Value, Oid] = {}
                cached = interned.get
                out: List[Value] = []
                append = out.append
                for value in single(pool, columns, count):
                    if value is MISSING:
                        append(MISSING)
                        continue
                    oid = cached(value)
                    if oid is None:
                        oid = mint(class_name, value)
                        interned[value] = oid
                    append(oid)
                return out
            return skolem_single
        if labels[0] is None:
            key_labels = tuple(f"arg{index}" for index in range(len(parts)))
        else:
            key_labels = labels
        if len(set(key_labels)) != len(key_labels):
            # Duplicate key labels: defer to skolem_key's validation
            # row by row (the scalar behaviour).
            def skolem_generic(pool: IndexPool, columns: Columns,
                               count: int) -> List[Value]:
                evaluated = [part(pool, columns, count)
                             for part in parts]
                out: List[Value] = []
                for row in range(count):
                    values = tuple(column[row] for column in evaluated)
                    if any(value is MISSING for value in values):
                        out.append(MISSING)
                        continue
                    out.append(Oid.keyed(class_name, skolem_key(
                        class_name, tuple(zip(labels, values)))))
                return out
            return skolem_generic
        # Pre-sort the label layout once so each row's key record can
        # skip canonicalisation (Record.presorted).
        order = sorted(range(len(key_labels)), key=lambda i: key_labels[i])
        sorted_labels = tuple(key_labels[i] for i in order)
        presorted = Record.presorted
        mint = Oid.keyed_unchecked

        def skolem_column(pool: IndexPool, columns: Columns,
                          count: int) -> List[Value]:
            interned_keys: Dict[Tuple[Value, ...], Oid] = {}
            cached = interned_keys.get
            out: List[Value] = []
            append = out.append
            for values in zip(*[parts[i](pool, columns, count)
                                for i in order]):
                if MISSING in values:
                    append(MISSING)
                    continue
                oid = cached(values)
                if oid is None:
                    oid = mint(class_name, presorted(
                        tuple(zip(sorted_labels, values))))
                    interned_keys[values] = oid
                append(oid)
            return out
        return skolem_column
    raise NotImplementedError(f"cannot compile term {term!r}")


def _compile_proj(term: Proj, var_class: Dict[str, str]) -> Evaluator:
    attr = term.attr
    subject = term.subject
    if isinstance(subject, Var) and subject.name in var_class:
        # Gather from the prebuilt attribute column: the variable is
        # class-typed (see ``compile_steps``), so every row is a
        # (live-or-dead) oid of one class; dead rows miss the intern
        # table and read MISSING.
        class_name = var_class[subject.name]
        name = subject.name
        row_name = _ROW_PREFIX + name

        def gather(pool: IndexPool, columns: Columns,
                   count: int) -> List[Value]:
            store = pool.columns()
            column = store.scalar_column(class_name, attr)
            rows = columns.get(row_name)
            if rows is not None:
                # The scan that bound the subject threaded its raw
                # rows along — pure integer indexing, no oid hashing.
                return [column[row] for row in rows]
            get = store.row_map(class_name).get
            return [MISSING if row is None else column[row]
                    for row in map(get, columns[name])]
        return gather

    inner = compile_term(subject, var_class)

    def project_column(pool: IndexPool, columns: Columns,
                       count: int) -> List[Value]:
        out: List[Value] = []
        append = out.append
        value_of = pool.instance.value_of
        for value in inner(pool, columns, count):
            if value is MISSING:
                append(MISSING)
                continue
            if isinstance(value, Oid):
                try:
                    value = value_of(value)
                except InstanceError:
                    append(MISSING)
                    continue
            if isinstance(value, Record) and value.has(attr):
                append(value.get(attr))
            else:
                append(MISSING)
        return out
    return project_column


# ----------------------------------------------------------------------
# Pattern compilation: Term -> destructuring of a value column
# ----------------------------------------------------------------------

def compile_pattern(term: Term, binds: Iterable[str]) -> Pattern:
    """Compile the unification of ``term`` against a value column.

    ``term`` is a pattern (:func:`~repro.semantics.match._is_pattern`):
    variables and constants under record, variant and Skolem
    constructors.  The compiled pattern takes the batch and one
    candidate value per row, and returns the rows whose candidate
    matches, in order, with a column per variable of ``binds`` over
    those rows.  It is a fixed sequence of column operations, in the
    pattern's pre-order:

    * a type, label-set, tag or Skolem-class test and a constant are
      keep-masks;
    * a record field, variant payload, Skolem key or key argument is a
      gather into a new column (the key's layout is ``skolem_key``'s:
      the bare value of one positional argument, else a record of
      exactly ``arg0 … arg(n-1)`` or of the named labels);
    * the first occurrence of a variable of ``binds`` names its
      column; any other occurrence, and a variable the batch binds, is
      an equality test against that column.
    """
    binds = frozenset(binds)
    ops: List[Tuple[bool, Callable]] = []  # (gathers a column?, op)
    first: Dict[str, int] = {}  # variable -> the column holding it

    def gather(op: Callable) -> int:
        """Append a gather; returns its column (0 holds the
        candidates, gather ``i`` fills column ``i``)."""
        ops.append((True, op))
        return sum(1 for gathers, _ in ops if gathers)

    def part(read: Callable[[Value], Value], at: int) -> int:
        return gather(lambda columns, rows, regs: [
            read(value) for value in regs[at]])

    def test(predicate: Callable[[Value], bool], at: int) -> None:
        ops.append((False, lambda columns, rows, regs: [
            index for index, value in enumerate(regs[at])
            if predicate(value)]))

    def fields(pairs: Sequence[Tuple[str, Term]], at: int) -> None:
        labels = frozenset(label for label, _ in pairs)
        test(lambda value: isinstance(value, Record)
             and set(value.labels()) == labels, at)
        for label, sub in pairs:
            walk(sub, part(lambda value, label=label: value.get(label), at))

    def walk(term: Term, at: int) -> None:
        if isinstance(term, Var):
            name = term.name
            if name not in first:
                if name in binds:
                    first[name] = at
                    return
                first[name] = gather(lambda columns, rows, regs: [
                    columns[name][row] for row in rows])
            bound_at = first[name]
            ops.append((False, lambda columns, rows, regs: [
                index for index, (bound, value)
                in enumerate(zip(regs[bound_at], regs[at]))
                if bound == value]))
        elif isinstance(term, Const):
            constant = term.value
            test(lambda value: constant == value, at)
        elif isinstance(term, RecordTerm):
            fields(term.fields, at)
        elif isinstance(term, VariantTerm):
            tag = term.label
            test(lambda value: isinstance(value, Variant)
                 and value.label == tag, at)
            walk(term.payload, part(lambda value: value.value, at))
        elif isinstance(term, SkolemTerm):
            class_name = term.class_name
            test(lambda value: isinstance(value, Oid) and value.is_keyed
                 and value.class_name == class_name, at)
            key = part(lambda value: value.key, at)
            args = term.args
            if len(args) == 1 and args[0][0] is None:
                walk(args[0][1], key)
            elif args and args[0][0] is None:
                fields([(f"arg{index}", sub)
                        for index, (_, sub) in enumerate(args)], key)
            else:
                fields(args, key)
        else:
            raise NotImplementedError(f"{term!r} is not a pattern")

    walk(term, 0)
    bound_columns = tuple((name, at) for name, at in first.items()
                          if name in binds)

    def pattern(columns: Columns, values: List[Value]
                ) -> Tuple[List[int], Columns]:
        rows = list(range(len(values)))
        regs = [values]
        for gathers, op in ops:
            if not rows:
                return [], {name: [] for name, _ in bound_columns}
            if gathers:
                regs.append(op(columns, rows, regs))
                continue
            keep = op(columns, rows, regs)
            if len(keep) < len(rows):
                rows = [rows[index] for index in keep]
                regs = [[reg[index] for index in keep] for reg in regs]
        return rows, {name: regs[at] for name, at in bound_columns}
    return pattern


def _matched(columns: Columns, count: int, values: List[Value],
             pattern: Pattern) -> Tuple[Columns, int]:
    """The batch rows whose value ``pattern`` matches, extended with
    the columns it binds."""
    keep, bound = pattern(columns, values)
    out = {name: [column[row] for row in keep]
           for name, column in columns.items()}
    out.update(bound)
    return out, len(keep)


# ----------------------------------------------------------------------
# Stage compilation: PlanStep -> batch stage
# ----------------------------------------------------------------------

def _take(columns: Columns, keep: List[int], count: int
          ) -> Tuple[Columns, int]:
    if len(keep) == count:
        return columns, count
    return ({name: [column[row] for row in keep]
             for name, column in columns.items()}, len(keep))


def _element_name(element: Term) -> str:
    """The column a generator fills: its element variable's, or the
    hidden candidate column when the element is a pattern."""
    return element.name if isinstance(element, Var) else _CANDIDATE


def _destructuring(generate: Stage, pattern: Pattern) -> Stage:
    """A generator whose element is a pattern: ``generate`` fills the
    :data:`_CANDIDATE` column, then ``pattern`` destructures it."""
    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        columns, count = generate(pool, columns, count)
        if not count:
            return columns, 0
        values = columns.pop(_CANDIDATE)
        columns.pop(_ROW_PREFIX + _CANDIDATE, None)
        return _matched(columns, count, values, pattern)
    return stage


def _scan_stage(step: PlanStep) -> Stage:
    atom = step.atom
    assert isinstance(atom, MemberAtom)
    class_name = atom.class_name
    name = _element_name(atom.element)
    row_name = _ROW_PREFIX + name

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        store = pool.columns()
        extent = store.extent(class_name)
        rows = store.extent_rows(class_name)
        width = len(extent)
        if width == 0:
            return {}, 0
        if width == 1:
            out = dict(columns)
        else:
            repeated = range(width)
            out = {variable: [value for value in column for _ in repeated]
                   for variable, column in columns.items()}
        out[name] = list(extent) if count == 1 else extent * count
        out[row_name] = list(rows) if count == 1 else rows * count
        return out, count * width
    return stage


def _index_stage(step: PlanStep, var_class: Dict[str, str]) -> Stage:
    atom = step.atom
    assert isinstance(atom, MemberAtom) and isinstance(atom.element, Var)
    class_name = atom.class_name
    name = atom.element.name
    path = step.selector_path
    selector = compile_term(step.selector_term, var_class)

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        index = pool.index_for(class_name, path)
        get = index.get
        values = selector(pool, columns, count)
        keep: List[int] = []
        out_column: List[Value] = []
        hits = misses = 0
        for row, value in enumerate(values):
            if value is MISSING:
                continue
            candidates = get(value, ())
            if candidates:
                hits += 1
                for oid in candidates:
                    keep.append(row)
                    out_column.append(oid)
            else:
                misses += 1
        pool.hits += hits
        pool.misses += misses
        out = {variable: [column[row] for row in keep]
               for variable, column in columns.items()}
        out[name] = out_column
        # Resolve each candidate's store row once here, so the several
        # downstream gathers and set slices index by int instead of
        # re-probing the intern table per stage.
        rows_get = pool.columns().row_map(class_name).get
        out_rows = [rows_get(oid) for oid in out_column]
        if None not in out_rows:
            out[_ROW_PREFIX + name] = out_rows
        return out, len(out_column)
    return stage


def _member_test_stage(step: PlanStep, var_class: Dict[str, str]) -> Stage:
    atom = step.atom
    assert isinstance(atom, MemberAtom)
    class_name = atom.class_name
    element = compile_term(atom.element, var_class)

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        has = pool.instance.has_object
        values = element(pool, columns, count)
        keep = [row for row, value in enumerate(values)
                if isinstance(value, Oid)
                and value.class_name == class_name and has(value)]
        return _take(columns, keep, count)
    return stage


def _elements_of(value: Value, attr: str) -> Sequence[Value]:
    """Non-oid fallback of the ``in``-generator fast path: project the
    attribute off a record value directly (anything else yields no
    rows, like the scalar path's failed evaluation)."""
    if isinstance(value, Record) and value.has(attr):
        field = value.get(attr)
        if isinstance(field, (WolSet, WolList)):
            return deterministic_order(field)
    return ()


def _generated(columns: Columns, count: int, keep: List[int], name: str,
               elements: List[Value]) -> Tuple[Columns, int]:
    """A generator's output batch: row ``keep[i]`` with ``name`` bound
    to ``elements[i]``."""
    if len(keep) == count and keep == list(range(count)):
        out = dict(columns)  # every row kept exactly once
    else:
        out = {variable: [column[row] for row in keep]
               for variable, column in columns.items()}
    out[name] = elements
    return out, len(elements)


def _in_generate_stage(step: PlanStep, var_class: Dict[str, str],
                       var_collection: Dict[str, Tuple[str, str]]) -> Stage:
    atom = step.atom
    assert isinstance(atom, InAtom)
    name = _element_name(atom.element)
    collection = atom.collection
    if (isinstance(collection, Var)
            and collection.name in var_collection):
        # The collection variable was bound by a preceding equation
        # ``V = X.attr`` (the normal form flattens nested projections
        # that way), so the elements are exactly the subject's set
        # column — read the pre-sorted slice instead of re-ordering
        # each row's collection value.
        subject, attr = var_collection[collection.name]
        collection = Proj(Var(subject), attr)
    if isinstance(collection, Proj) and isinstance(collection.subject, Var):
        # Fast path: read pre-sorted flattened set columns instead of
        # re-ordering each row's collection.
        subject = collection.subject.name
        attr = collection.attr
        if subject in var_class:
            # The subject is membership-bound: every row holds a live
            # oid of one statically known class, so the flattened set
            # column and intern table resolve once per batch and the
            # per-row work is a dict probe plus a list slice.
            class_name = var_class[subject]
            row_name = _ROW_PREFIX + subject

            def stage(pool: IndexPool, columns: Columns,
                      count: int) -> Tuple[Columns, int]:
                store = pool.columns()
                column = store._set_column(class_name, attr)
                values = column.values
                starts = column.starts
                lengths = column.lengths
                keep: List[int] = []
                extend_keep = keep.extend
                out_column: List[Value] = []
                extend_out = out_column.extend
                # Integer-indexed when the subject column carries its
                # raw store rows (bound by a scan or index stage).
                subject_rows = columns.get(row_name)
                if subject_rows is None:
                    rows_get = store.row_map(class_name).get
                    subject_rows = [rows_get(oid) for oid in columns[subject]]
                for row, at in enumerate(subject_rows):
                    if at is None:
                        continue
                    length = lengths[at]
                    if not length:
                        continue
                    start = starts[at]
                    extend_out(values[start:start + length])
                    extend_keep(repeat(row, length))
                return _generated(columns, count, keep, name, out_column)
            return stage

        def stage(pool: IndexPool, columns: Columns,
                  count: int) -> Tuple[Columns, int]:
            slice_of = pool.columns().set_slice
            keep: List[int] = []
            out_column: List[Value] = []
            for row, value in enumerate(columns[subject]):
                elements = (slice_of(value, attr)
                            if isinstance(value, Oid)
                            else _elements_of(value, attr))
                for element in elements:
                    keep.append(row)
                    out_column.append(element)
            return _generated(columns, count, keep, name, out_column)
        return stage

    evaluator = compile_term(collection, var_class)

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        keep: List[int] = []
        out_column: List[Value] = []
        # Cross-products repeat collection values across rows; order
        # each distinct object once.  Keying by id() is safe because
        # the evaluated column keeps every value alive for the whole
        # stage call.
        ordered_cache: Dict[int, List[Value]] = {}
        values = evaluator(pool, columns, count)
        for row, value in enumerate(values):
            if isinstance(value, (WolSet, WolList)):
                elements = ordered_cache.get(id(value))
                if elements is None:
                    elements = deterministic_order(value)
                    ordered_cache[id(value)] = elements
                for element in elements:
                    keep.append(row)
                    out_column.append(element)
        return _generated(columns, count, keep, name, out_column)
    return stage


def _in_test_stage(step: PlanStep, var_class: Dict[str, str]) -> Stage:
    atom = step.atom
    assert isinstance(atom, InAtom)
    collection = compile_term(atom.collection, var_class)
    element = compile_term(atom.element, var_class)

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        collections = collection(pool, columns, count)
        values = element(pool, columns, count)
        # ``in`` hits WolSet's hash-based __contains__ — the linear
        # equality scan it replaces is what the scalar path does, with
        # the same equality relation, so the kept rows are identical.
        keep = [row for row in range(count)
                if isinstance(collections[row], (WolSet, WolList))
                and values[row] in collections[row]]
        return _take(columns, keep, count)
    return stage


def _eq_bind_stage(step: PlanStep, var_class: Dict[str, str]) -> Stage:
    evaluator = compile_term(step.eval_term, var_class)
    if not isinstance(step.pattern_term, Var):
        pattern = compile_pattern(step.pattern_term, step.binds)

        def destructure(pool: IndexPool, columns: Columns,
                        count: int) -> Tuple[Columns, int]:
            # A row whose evaluation failed holds MISSING, which the
            # constructor test at the pattern's root rejects.
            return _matched(columns, count,
                            evaluator(pool, columns, count), pattern)
        return destructure
    name = step.pattern_term.name

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        values = evaluator(pool, columns, count)
        if first_missing(values) is None:
            out = dict(columns)
            out[name] = values
            return out, count
        keep = [row for row, value in enumerate(values)
                if value is not MISSING]
        out = {variable: [column[row] for row in keep]
               for variable, column in columns.items()}
        out[name] = [values[row] for row in keep]
        return out, len(keep)
    return stage


def _eq_test_stage(step: PlanStep, var_class: Dict[str, str]) -> Stage:
    atom = step.atom
    assert isinstance(atom, EqAtom)
    left = compile_term(atom.left, var_class)
    right = compile_term(atom.right, var_class)

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        lefts = left(pool, columns, count)
        rights = right(pool, columns, count)
        keep = [row for row in range(count)
                if lefts[row] is not MISSING
                and rights[row] is not MISSING
                and lefts[row] == rights[row]]
        return _take(columns, keep, count)
    return stage


def _compare_stage(step: PlanStep, var_class: Dict[str, str]) -> Stage:
    atom = step.atom
    left = compile_term(atom.left, var_class)
    right = compile_term(atom.right, var_class)
    neq = isinstance(atom, NeqAtom)
    strict = isinstance(atom, LtAtom)

    def stage(pool: IndexPool, columns: Columns,
              count: int) -> Tuple[Columns, int]:
        lefts = left(pool, columns, count)
        rights = right(pool, columns, count)
        keep: List[int] = []
        for row in range(count):
            low, high = lefts[row], rights[row]
            if low is MISSING or high is MISSING:
                continue
            if neq:
                if low != high:
                    keep.append(row)
                continue
            try:
                holds = low < high if strict else low <= high
            except TypeError:
                continue
            if holds:
                keep.append(row)
        return _take(columns, keep, count)
    return stage


_STAGES = {
    STEP_MEMBER_INDEX: _index_stage,
    STEP_MEMBER_TEST: _member_test_stage,
    STEP_IN_TEST: _in_test_stage,
    STEP_EQ_BIND: _eq_bind_stage,
    STEP_EQ_TEST: _eq_test_stage,
    STEP_COMPARE: _compare_stage,
}


def _attr_class(schema: Schema, class_name: str, attr: str,
                elements: bool = False) -> Optional[str]:
    """The class of ``class_name.attr`` (of its collection's elements,
    with ``elements``), when the schema declares one — so a well-formed
    instance guarantees every stored value is an oid of that class."""
    try:
        ctype = schema.class_type(class_name)
    except Exception:
        return None
    if not isinstance(ctype, RecordType) or not ctype.has_field(attr):
        return None
    fty = ctype.field_type(attr)
    if elements:
        if not isinstance(fty, (SetType, ListType)):
            return None
        fty = fty.element
    return fty.name if isinstance(fty, ClassType) else None


def _step_variables(step: PlanStep) -> frozenset:
    """Every variable a compiled stage may read for ``step``."""
    out = step.atom.variables()
    for term in (step.selector_term, step.eval_term, step.pattern_term):
        if term is not None:
            out |= term.variables()
    return out


def member_classes(atoms: Iterable[Atom]) -> Dict[str, str]:
    """Variable -> class, for each variable a membership atom binds: the
    static typing that lets projections off it gather from attribute
    columns."""
    return {atom.element.name: atom.class_name for atom in atoms
            if isinstance(atom, MemberAtom) and isinstance(atom.element, Var)}


def compile_steps(schema: Schema, steps: Sequence[PlanStep],
                  initial_names: Tuple[str, ...],
                  needed: Optional[frozenset] = None,
                  var_class: Optional[Mapping[str, str]] = None
                  ) -> CompiledPlan:
    """Compile a plan into batch stages (reads only the plan and the
    schema of the instances the stages will run over).

    Returns ``(stages, names, retains)``: one stage per step, the
    final column names in binding order, and — when
    ``needed`` (the variables the *caller* reads from the final batch)
    is given — per-step retention sets for liveness filtering: after
    stage ``i`` only ``retains[i]`` columns are still live, the rest
    are dead weight every later stage would copy through its row
    filters.  With ``needed`` None every retention is None (no
    filtering).  ``var_class`` types variables statically known to hold
    one class's oids, so projections off them gather: the initial
    names' typing (e.g. :func:`member_classes` of the body that bound
    them), extended by every membership bind and passed membership
    test of ``steps``, every element an ``in``-generator draws from a
    class-typed collection attribute, and every ``V = X.a`` whose
    ``X`` is typed and whose ``a`` the schema declares a class.
    """
    known: List[str] = list(initial_names)
    var_class = dict(var_class or {})
    var_collection: Dict[str, Tuple[str, str]] = {}
    stages: List[Stage] = []
    reads: List[frozenset] = []
    for step in steps:
        extra_reads: frozenset = frozenset()
        mode = step.mode
        atom = step.atom
        if mode == STEP_MEMBER_SCAN:
            stage = _scan_stage(step)
        elif mode == STEP_IN_GENERATE:
            collection = atom.collection
            if (isinstance(collection, Var)
                    and collection.name in var_collection):
                # The stage reads the rewrite's subject column, not
                # the collection variable (see the rewrite in
                # ``_in_generate_stage``) — keep the subject live.
                extra_reads = frozenset(
                    (var_collection[collection.name][0],))
            stage = _in_generate_stage(step, var_class, var_collection)
        else:
            stage = _STAGES[mode](step, var_class)
        if (mode in (STEP_MEMBER_SCAN, STEP_IN_GENERATE)
                and not isinstance(atom.element, Var)):
            stage = _destructuring(
                stage, compile_pattern(atom.element, step.binds))
        stages.append(stage)
        reads.append(_step_variables(step) | extra_reads)
        if isinstance(atom, MemberAtom) and isinstance(atom.element, Var):
            var_class[atom.element.name] = atom.class_name
        if (step.mode == STEP_IN_GENERATE
                and isinstance(atom.element, Var)):
            # Elements drawn from a class-typed collection attribute
            # are oids of that class (instance well-formedness), so
            # downstream projections off them can gather too.
            collection = atom.collection
            if (isinstance(collection, Var)
                    and collection.name in var_collection):
                source_var, source_attr = var_collection[collection.name]
            elif (isinstance(collection, Proj)
                    and isinstance(collection.subject, Var)):
                source_var, source_attr = (collection.subject.name,
                                           collection.attr)
            else:
                source_var = None
            if source_var is not None and source_var in var_class:
                element_class = _attr_class(
                    schema, var_class[source_var], source_attr,
                    elements=True)
                if element_class is not None:
                    var_class[atom.element.name] = element_class
        if (step.mode == STEP_EQ_BIND
                and isinstance(step.pattern_term, Var)
                and isinstance(step.eval_term, Proj)
                and isinstance(step.eval_term.subject, Var)):
            subject, attr = step.eval_term.subject.name, step.eval_term.attr
            var_collection[step.pattern_term.name] = (subject, attr)
            # ``V = X.a`` with ``a`` declared a class: V holds that
            # class's oids, so projections off V gather too (a dangling
            # reference misses the intern table and reads MISSING, as
            # it does for a membership-bound variable).
            if subject in var_class:
                target_class = _attr_class(schema, var_class[subject], attr)
                if target_class is not None:
                    var_class[step.pattern_term.name] = target_class
        known.extend(step.binds)
    retains: List[Optional[frozenset]] = [None] * len(stages)
    if needed is not None:
        alive = frozenset(needed)
        for index in range(len(stages) - 1, -1, -1):
            retains[index] = alive
            alive |= reads[index]
    return stages, tuple(known), retains


# ----------------------------------------------------------------------
# Batch runners
# ----------------------------------------------------------------------

def run_steps_columnar(pool: IndexPool, steps: Sequence[PlanStep],
                       columns: Columns, count: int,
                       stats: Optional[ExecutionStats] = None,
                       needed: Optional[frozenset] = None,
                       compiled: Optional[CompiledPlan] = None
                       ) -> Tuple[Tuple[str, ...], Columns, int]:
    """Run a plan over an initial batch; returns final names/columns.

    ``stats`` is the run's record: its step, row and batch counters
    grow here.

    With ``needed``, dead binding columns are dropped between stages
    (liveness filtering): the final batch holds only the columns the
    caller reads, so callers must index it by key, not by the full
    ``names`` tuple.  ``compiled``: :func:`compile_steps`'s result
    for these ``steps`` and initial names, else compiled here.
    """
    if compiled is None:
        compiled = compile_steps(pool.instance.schema, tuple(steps),
                                 tuple(columns), needed)
    stages, names, retains = compiled
    # One context-variable read decides whether per-step spans exist at
    # all — the untraced hot path keeps its original loop body.
    tracing = current_span() is not None
    for index, (step, stage, retain) in enumerate(
            zip(steps, stages, retains)):
        if count == 0:
            return names, {name: [] for name in names}, 0
        if stats is not None:
            stats.vectorized_steps += 1
            stats.vectorized_rows += count
            if count > stats.max_batch_rows:
                stats.max_batch_rows = count
        if tracing:
            with trace_span(f"{index + 1}. {step.mode} {step.atom}",
                            rows_in=count) as step_span:
                columns, count = stage(pool, columns, count)
                step_span.set(rows_out=count)
        else:
            columns, count = stage(pool, columns, count)
        if retain is not None and not retain.issuperset(columns):
            prefix = _ROW_PREFIX
            cut = len(prefix)
            columns = {name: column for name, column in columns.items()
                       if name in retain
                       or (name.startswith(prefix) and name[cut:] in retain)}
    if count == 0:
        return names, {name: [] for name in names}, 0
    return names, columns, count


def compile_probe(schema: Schema, steps: Sequence[PlanStep],
                  var_class: Optional[Mapping[str, str]] = None
                  ) -> CompiledPlan:
    """Compile ``steps`` as the existence probe of
    :func:`unextended_rows`: only the row-number column outlives the
    stages, so it is the only name the compiled plan reports."""
    return compile_steps(schema, tuple(steps), (_PROBE_ROW,),
                         frozenset((_PROBE_ROW,)), var_class)


def unextended_rows(pool: IndexPool, steps: Sequence[PlanStep],
                    columns: Columns, count: int,
                    compiled: CompiledPlan) -> List[int]:
    """The rows of a batch that no solution of ``steps`` extends, in
    batch order: the anti-join ``batch − (batch ⋉ steps)``.

    This is a constraint's violation test, set-at-a-time — ``steps`` is
    the head plan, planned with the body's variables pre-bound, and the
    batch is the body's solutions.  The batch is seeded with a hidden
    row-number column, the only column kept to the end; the rows whose
    numbers never come out have no head witness.  The batch's variables
    must fit the plan (:func:`~repro.semantics.match.checked_steps`
    raises :class:`~repro.semantics.match.MatchError` otherwise).
    ``compiled`` is :func:`compile_probe`'s result for these steps.
    """
    steps = checked_steps(steps, (name for name in columns
                                  if not name.startswith("\0")))
    if not count:
        return []
    seeded = dict(columns)
    seeded[_PROBE_ROW] = list(range(count))
    _, out, _ = run_steps_columnar(pool, steps, seeded, count,
                                   compiled=compiled)
    extended = bytearray(count)
    for row in out[_PROBE_ROW]:
        extended[row] = 1
    return [row for row in range(count) if not extended[row]]
