"""Common dependency interfaces and violation records.

Every dependency class in the library (FD, IND, denial constraint, CFD,
eCFD, CIND, MD) implements :class:`Dependency`: it can check whether it
holds on a database instance and enumerate the witnesses of its failure as
:class:`Violation` records.  Violations are the raw material of Section 5:
repairing edits them away, consistent query answering reasons around them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple as PyTuple

from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple

if TYPE_CHECKING:
    from repro.engine.scan import ScanTask
    from repro.relational.schema import RelationSchema

__all__ = [
    "Dependency",
    "InclusionDependency",
    "ScanDependency",
    "Violation",
    "holds",
    "all_violations",
]


class Violation:
    """A witness that a dependency fails on an instance.

    ``tuples`` are the concrete (relation_name, tuple) witnesses: one tuple
    for single-tuple violations (e.g. a constant CFD pattern or an
    unmatched CIND tuple), two for pair violations (classical FD-style).
    """

    __slots__ = ("dependency", "tuples", "reason")

    def __init__(
        self,
        dependency: "Dependency",
        tuples: Sequence[PyTuple[str, Tuple]],
        reason: str,
    ):
        self.dependency = dependency
        self.tuples = tuple(tuples)
        self.reason = reason

    def __repr__(self) -> str:
        witnesses = "; ".join(f"{rel}:{t!r}" for rel, t in self.tuples)
        return f"Violation({self.reason}; witnesses: {witnesses})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Violation)
            and self.dependency == other.dependency
            and self.tuples == other.tuples
        )

    def __hash__(self) -> int:
        return hash((id(type(self.dependency)), self.tuples))


class Dependency(ABC):
    """Abstract integrity constraint over a database schema."""

    @abstractmethod
    def violations(self, db: DatabaseInstance) -> Iterator[Violation]:
        """Yield every violation of this dependency in ``db``."""

    def holds_on(self, db: DatabaseInstance) -> bool:
        """True iff ``db`` satisfies the dependency (D ⊨ φ)."""
        return next(self.violations(db), None) is None

    @abstractmethod
    def relations(self) -> PyTuple[str, ...]:
        """Names of the relations the dependency is defined on."""


class ScanDependency(Dependency):
    """A dependency the batch executor evaluates as compiled scan tasks
    over one relation's LHS partitions: FD, CFD and eCFD, which supply
    ``relation_name``, ``lhs`` and ``scan_tasks(schema)``.

    One alone detects as a one-member plan, so it reports what a batch
    reports for it, in the same order.
    """

    @abstractmethod
    def scan_tasks(self, schema: RelationSchema) -> List[ScanTask]:
        """The dependency compiled against ``schema``, one task per
        pattern row."""

    def violations(self, db: DatabaseInstance) -> Iterator[Violation]:
        return _one_member_plan(self, db)


class InclusionDependency(Dependency):
    """A dependency the batch executor decides on the source relation's
    layout against a counted target index: IND and CIND.

    Each supplies the source ``lhs_relation`` with its attributes X
    (``lhs_attrs``) and pattern attributes Xp (``lhs_pattern_attrs``), the
    target ``rhs_relation`` with Y (``rhs_attrs``) and Yp
    (``rhs_pattern_attrs``), and :meth:`inclusion_rows`.  An IND is the
    case with no pattern attributes and one row.  One alone detects as a
    one-member plan, so it reports what a batch reports for it, in the
    same order.
    """

    lhs_relation: str
    rhs_relation: str
    lhs_attrs: PyTuple[str, ...]
    rhs_attrs: PyTuple[str, ...]
    lhs_pattern_attrs: PyTuple[str, ...]
    rhs_pattern_attrs: PyTuple[str, ...]

    @abstractmethod
    def inclusion_rows(self) -> List[PyTuple[tuple, tuple, str]]:
        """Per tableau row: its Xp constants (in ``lhs_pattern_attrs``
        order), its Yp key (in ``rhs_pattern_attrs`` order) and the reason
        its violations carry."""

    def violations(self, db: DatabaseInstance) -> Iterator[Violation]:
        return _one_member_plan(self, db)


def _one_member_plan(dep: Dependency, db: DatabaseInstance) -> Iterator[Violation]:
    from repro.engine.executor import detect_violations_indexed

    return iter(detect_violations_indexed(db, [dep]).violations)


def holds(db: DatabaseInstance, dependencies: Sequence[Dependency]) -> bool:
    """D ⊨ Σ: true iff every dependency in the set holds.

    The planned dependencies run as one plan; the rest (denial
    constraints) stop at their first violation, since listing them all
    can take quadratic time.
    """
    from repro.engine.executor import execute_plan
    from repro.engine.planner import plan_detection

    plan = plan_detection(dependencies)
    fallback, plan.fallback = plan.fallback, []
    return execute_plan(db, plan).is_clean() and all(
        dep.holds_on(db) for _, dep in fallback
    )


def all_violations(
    db: DatabaseInstance, dependencies: Sequence[Dependency]
) -> list[Violation]:
    """Collect every violation of every dependency in the set (one plan)."""
    from repro.engine.executor import detect_violations_indexed

    return detect_violations_indexed(db, dependencies).violations
