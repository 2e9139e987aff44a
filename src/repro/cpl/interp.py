"""Interpreter for the miniature CPL (paper Section 5).

Evaluates a :class:`~repro.cpl.ast.CplProgram` against a source instance,
accumulating inserts into a target instance with the same merge semantics
as the direct executor: keyed identities are idempotent, attribute
conflicts are errors, set-valued attributes accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set

from ..model.instance import Instance, InstanceBuilder, InstanceError
from ..model.schema import Schema
from ..model.types import RecordType, SetType
from ..model.values import (Oid, Record, Value, Variant, WolList, WolSet,
                            format_value)
from .ast import (
    CplProgram, EBinOp, EConst, EExtent, EField, EIsVariant, EMkOid, ERecord,
    EVar, EVariant, EVariantPayload, Expr, Filter, Generator, LetBind,
    Qualifier)


class CplRuntimeError(Exception):
    """Raised on evaluation failures or conflicting inserts."""


Env = Dict[str, Value]


def eval_expr(expr: Expr, env: Env, source: Instance) -> Value:
    """Evaluate one CPL expression."""
    if isinstance(expr, EVar):
        try:
            return env[expr.name]
        except KeyError:
            raise CplRuntimeError(
                f"unbound CPL variable {expr.name}") from None
    if isinstance(expr, EConst):
        return expr.value  # type: ignore[return-value]
    if isinstance(expr, ERecord):
        return Record(tuple(
            (label, eval_expr(sub, env, source))
            for label, sub in expr.fields))
    if isinstance(expr, EVariant):
        return Variant(expr.label, eval_expr(expr.payload, env, source))
    if isinstance(expr, EField):
        subject = eval_expr(expr.subject, env, source)
        if isinstance(subject, Oid):
            try:
                subject = source.value_of(subject)
            except InstanceError as exc:
                raise CplRuntimeError(str(exc)) from exc
        if not isinstance(subject, Record):
            raise CplRuntimeError(
                f"cannot project .{expr.label} from "
                f"{format_value(subject)}")
        if not subject.has(expr.label):
            raise CplRuntimeError(f"no field {expr.label!r}")
        return subject.get(expr.label)
    if isinstance(expr, EMkOid):
        return Oid.keyed(expr.class_name, eval_expr(expr.key, env, source))
    if isinstance(expr, EExtent):
        if not source.schema.has_class(expr.class_name):
            raise CplRuntimeError(
                f"extent of unknown class {expr.class_name}")
        return WolList(tuple(sorted(source.objects_of(expr.class_name),
                                    key=str)))
    if isinstance(expr, EIsVariant):
        subject = eval_expr(expr.subject, env, source)
        return isinstance(subject, Variant) and subject.label == expr.label
    if isinstance(expr, EVariantPayload):
        subject = eval_expr(expr.subject, env, source)
        if not (isinstance(subject, Variant)
                and subject.label == expr.label):
            raise CplRuntimeError(
                f"payload<{expr.label}> of {format_value(subject)}")
        return subject.value
    if isinstance(expr, EBinOp):
        left = eval_expr(expr.left, env, source)
        right = eval_expr(expr.right, env, source)
        if expr.op == "==":
            return left == right
        if expr.op == "<>":
            return left != right
        if expr.op == "in":
            if not isinstance(right, (WolSet, WolList)):
                raise CplRuntimeError("'in' needs a collection")
            return any(left == element for element in right)
        try:
            if expr.op == "<":
                return left < right  # type: ignore[operator]
            return left <= right  # type: ignore[operator]
        except TypeError as exc:
            raise CplRuntimeError(f"incomparable values in {expr}") from exc
    raise CplRuntimeError(f"unknown CPL expression {expr!r}")


def solutions(qualifiers: Sequence[Qualifier], env: Env,
              source: Instance) -> Iterator[Env]:
    """Enumerate environments satisfying the qualifier list."""
    if not qualifiers:
        yield env
        return
    head, rest = qualifiers[0], qualifiers[1:]
    if isinstance(head, Generator):
        collection = eval_expr(head.source, env, source)
        if not isinstance(collection, (WolSet, WolList)):
            raise CplRuntimeError(
                f"generator source is not a collection: {head.source}")
        elements = (list(collection) if isinstance(collection, WolList)
                    else sorted(collection, key=str))
        for element in elements:
            extended = dict(env)
            extended[head.var] = element
            yield from solutions(rest, extended, source)
        return
    if isinstance(head, LetBind):
        extended = dict(env)
        extended[head.var] = eval_expr(head.value, env, source)
        yield from solutions(rest, extended, source)
        return
    if isinstance(head, Filter):
        value = eval_expr(head.condition, env, source)
        if value is True:
            yield from solutions(rest, env, source)
        return
    raise CplRuntimeError(f"unknown qualifier {head!r}")


@dataclass
class _Accumulated:
    class_name: str
    attributes: Dict[str, Value] = field(default_factory=dict)
    set_attributes: Dict[str, Set[Value]] = field(default_factory=dict)


def run_cpl(program: CplProgram, source: Instance,
            target_schema: Schema) -> Instance:
    """Execute a CPL program, producing the target instance."""
    pending: Dict[Oid, _Accumulated] = {}

    for insert in program.inserts:
        for env in solutions(insert.qualifiers, {}, source):
            oid = eval_expr(insert.identity, env, source)
            if not isinstance(oid, Oid):
                raise CplRuntimeError(
                    f"insert identity is not an oid: {insert.identity}")
            if oid.class_name != insert.class_name:
                raise CplRuntimeError(
                    f"identity {oid} inserted into class "
                    f"{insert.class_name}")
            accumulated = pending.setdefault(
                oid, _Accumulated(insert.class_name))
            for label, expr in insert.attributes:
                value = eval_expr(expr, env, source)
                existing = accumulated.attributes.get(label)
                if existing is not None and existing != value:
                    raise CplRuntimeError(
                        f"conflict on {oid}.{label}: "
                        f"{format_value(existing)} vs "
                        f"{format_value(value)}")
                accumulated.attributes[label] = value
            for label, expr in insert.set_inserts:
                accumulated.set_attributes.setdefault(label, set()).add(
                    eval_expr(expr, env, source))

    builder = InstanceBuilder(target_schema)
    problems: List[str] = []
    for oid, accumulated in sorted(pending.items(), key=lambda i: str(i[0])):
        ctype = target_schema.class_type(accumulated.class_name)
        if not isinstance(ctype, RecordType):
            raise CplRuntimeError(
                f"target class {accumulated.class_name} is not "
                f"record-typed")
        fields = dict(accumulated.attributes)
        for label, elements in accumulated.set_attributes.items():
            fields[label] = WolSet(frozenset(elements))
        for label, fty in ctype.fields:
            if label not in fields and isinstance(fty, SetType):
                fields[label] = WolSet(frozenset())
        missing = [label for label in ctype.labels() if label not in fields]
        if missing:
            problems.append(f"{oid}: missing {missing}")
            continue
        builder.put(oid, Record(tuple(fields.items())))
    if problems:
        raise CplRuntimeError("incomplete inserts: " + "; ".join(problems))
    try:
        return builder.freeze()
    except InstanceError as exc:
        raise CplRuntimeError(str(exc)) from exc
