"""Automatic constraint generation from meta-data (paper Section 5).

"A large number of constraints, such as keys and other dependencies, can be
automatically generated from the meta-data associated with the source and
target databases, in order to complete a transformation program.  Such
constraints are time consuming and tedious to program by hand."

Given a :class:`~repro.model.keys.KeyedSchema` this module generates the
**target key clauses** ``X = Mk_C(...) <= X in C, ...`` — the Skolem
identity clauses the normaliser uses to identify created objects.  The
optimiser reads source keys straight from the key specification
(:func:`~repro.normalization.key_paths_from_spec`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..lang.ast import (Clause, EqAtom, KIND_CONSTRAINT, MemberAtom, Proj,
                        SkolemTerm, Var)
from ..model.keys import KeyFunction, KeyedSchema


def _path_definitions(object_var: str, path: Tuple[str, ...],
                      result_var: str, counter: List[int]
                      ) -> List[EqAtom]:
    """SNF definition atoms tracing ``object_var.<path>`` into ``result_var``."""
    atoms: List[EqAtom] = []
    subject = Var(object_var)
    for attr in path[:-1]:
        counter[0] += 1
        step = Var(f"_k{counter[0]}")
        atoms.append(EqAtom(step, Proj(subject, attr)))
        subject = step
    atoms.append(EqAtom(Var(result_var), Proj(subject, path[-1])))
    return atoms


def key_clause_for(fn: KeyFunction, name: Optional[str] = None) -> Clause:
    """The target key clause induced by one key function.

    For ``K^CityE(c) = (name = c.name, country_name = c.country.name)`` the
    generated clause is::

        X = Mk_CityE(country_name = K2, name = K1)
          <= X in CityE, K1 = X.name, _k1 = X.country, K2 = _k1.name;
    """
    counter = [0]
    body: List = [MemberAtom(Var("X"), fn.class_name)]
    args: List[Tuple[Optional[str], Var]] = []
    for index, (label, path) in enumerate(fn.components):
        result = f"K{index + 1}"
        body.extend(_path_definitions("X", path, result, counter))
        args.append((label, Var(result)))
    skolem = SkolemTerm(fn.class_name, tuple(args))
    return Clause((EqAtom(Var("X"), skolem),), tuple(body),
                  name=name or f"key_{fn.class_name}",
                  kind=KIND_CONSTRAINT)


def generate_target_key_clauses(keyed: KeyedSchema,
                                skip: Iterable[str] = ()) -> List[Clause]:
    """Key clauses for every keyed class not in ``skip``.

    ``skip`` lists classes whose key clause the programmer already wrote
    (hand-written clauses take precedence — they may key on structure the
    schema-level specification cannot express, such as variant values).
    """
    skipped = set(skip)
    return [key_clause_for(keyed.keys.key_for(cname))
            for cname in keyed.keys.classes() if cname not in skipped]
