"""Information-capacity analysis of transformations (paper Section 4.3).

A transformation is *information preserving* when it is injective: distinct
source instances map to distinct target instances (Hull's information
dominance, adapted to object identities by comparing instances up to oid
renaming).  The paper's key observation is that transformations often fail
to preserve information **not** because they are wrong, but because
constraints that hold on the source are not expressed in its schema: the
(T6)-(T8) schema evolution loses information on arbitrary sources but is
injective on sources satisfying (C9)-(C11).

This module provides an *empirical* checker over instance families (exact
injectivity is undecidable): pairwise transformation plus isomorphism
comparison, reporting witnesses for non-injectivity; and helpers that
filter a family by constraint satisfaction to reproduce the paper's
argument quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..lang.ast import Clause
from ..model.instance import Instance
from ..model.isomorphism import isomorphic
from ..semantics.satisfaction import satisfies_clause

#: A transformation under analysis: source instance -> target instance.
Transform = Callable[[Instance], Instance]


@dataclass
class NonInjectiveWitness:
    """Two non-isomorphic sources with isomorphic images."""

    first: Instance
    second: Instance
    image: Instance

    def __str__(self) -> str:
        return ("non-injective: two distinct sources share the image "
                f"with classes {self.image.class_sizes()}")


@dataclass
class InjectivityReport:
    """Result of an empirical injectivity check."""

    instances_checked: int
    failures: List[NonInjectiveWitness] = field(default_factory=list)
    errors: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def injective(self) -> bool:
        return not self.failures

    @property
    def total(self) -> bool:
        """Did the transformation succeed on every instance?"""
        return not self.errors


def check_injectivity(transform: Transform,
                      instances: Sequence[Instance],
                      stop_at_first: bool = False) -> InjectivityReport:
    """Empirically test injectivity of ``transform`` on ``instances``.

    Pairwise: sources that are themselves isomorphic are skipped (they
    *should* map to isomorphic images); non-isomorphic sources with
    isomorphic images are counterexamples.
    """
    report = InjectivityReport(instances_checked=len(instances))
    images: List[Optional[Instance]] = []
    for index, instance in enumerate(instances):
        try:
            images.append(transform(instance))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            report.errors.append((index, str(exc)))
            images.append(None)

    for i in range(len(instances)):
        if images[i] is None:
            continue
        for j in range(i + 1, len(instances)):
            if images[j] is None:
                continue
            if not isomorphic(images[i], images[j]):
                continue
            if isomorphic(instances[i], instances[j]):
                continue
            report.failures.append(NonInjectiveWitness(
                instances[i], instances[j], images[i]))
            if stop_at_first:
                return report
    return report


def filter_by_constraints(instances: Iterable[Instance],
                          constraints: Sequence[Clause]
                          ) -> List[Instance]:
    """The sub-family satisfying all ``constraints``.

    Used to reproduce Section 4.3: a transformation non-injective on the
    full family becomes injective on the constrained sub-family.

    Per-clause checks are deliberate: the family members are tiny and
    the check short-circuits on the first violation, so per-instance
    audit planning (and eager index prebuilds) would cost more than it
    saves.
    """
    return [instance for instance in instances
            if all(satisfies_clause(instance, clause)
                   for clause in constraints)]


@dataclass
class PreservationReport:
    """Side-by-side injectivity with and without source constraints."""

    unconstrained: InjectivityReport
    constrained: InjectivityReport
    constrained_count: int
    total_count: int

    def summary(self) -> str:
        lines = [
            f"instances: {self.total_count} total, "
            f"{self.constrained_count} satisfy the constraints",
            f"unconstrained family: "
            f"{'injective' if self.unconstrained.injective else 'NOT injective'}"
            f" ({len(self.unconstrained.failures)} witnesses)",
            f"constrained family:   "
            f"{'injective' if self.constrained.injective else 'NOT injective'}"
            f" ({len(self.constrained.failures)} witnesses)",
        ]
        return "\n".join(lines)


def check_preservation(transform: Transform,
                       instances: Sequence[Instance],
                       constraints: Sequence[Clause]
                       ) -> PreservationReport:
    """The paper's Section 4.3 experiment in one call."""
    constrained = filter_by_constraints(instances, constraints)
    return PreservationReport(
        unconstrained=check_injectivity(transform, list(instances)),
        constrained=check_injectivity(transform, constrained),
        constrained_count=len(constrained),
        total_count=len(instances))
