"""Batch CFD violation detection.

Mirrors the detection method of [36]: for each pattern tuple, one pass
catches single-tuple violations (RHS constants), one grouped pass catches
pair violations (embedded FD on the matching subset).  The report separates
the two kinds and aggregates per-dependency and per-tuple statistics, which
the benchmarks (EXP-DETECT) use to compare the detection power of FDs
vs CFDs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple as PyTuple

from repro.deps.base import Dependency, Violation
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple

__all__ = ["DetectionReport", "detect_violations", "violating_tuples"]


class DetectionReport:
    """Aggregated outcome of running a set of dependencies over a database."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations: List[Violation] = list(violations)

    @property
    def total(self) -> int:
        return len(self.violations)

    def single_tuple(self) -> List[Violation]:
        """Violations witnessed by one tuple (constant-pattern clashes)."""
        return [v for v in self.violations if len(v.tuples) == 1]

    def pairs(self) -> List[Violation]:
        """Violations witnessed by two or more tuples."""
        return [v for v in self.violations if len(v.tuples) >= 2]

    def by_dependency(self) -> Dict[Dependency, List[Violation]]:
        grouped: Dict[Dependency, List[Violation]] = {}
        for v in self.violations:
            grouped.setdefault(v.dependency, []).append(v)
        return grouped

    def violating_tuples(self) -> Set[PyTuple[str, Tuple]]:
        """Every (relation, tuple) pair involved in some violation."""
        found: Set[PyTuple[str, Tuple]] = set()
        for v in self.violations:
            found.update(v.tuples)
        return found

    def is_clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        per_dep = {
            getattr(dep, "name", repr(dep)): len(vs)
            for dep, vs in self.by_dependency().items()
        }
        return (
            f"{self.total} violations "
            f"({len(self.single_tuple())} single-tuple, {len(self.pairs())} pair) "
            f"across {len(self.violating_tuples())} tuples; per dependency: {per_dep}"
        )

    def __repr__(self) -> str:
        return f"DetectionReport({self.summary()})"


def detect_violations(
    db: DatabaseInstance, dependencies: Iterable[Dependency]
) -> DetectionReport:
    """Batch violation detection, aggregated into a report.

    The dependency set is planned and executed over shared relation
    indexes — each relation is partitioned once per LHS signature no
    matter how many dependencies or tableau rows share it.  The
    per-dependency loop is :func:`repro.deps.all_violations`.
    """
    from repro.engine.executor import detect_violations_indexed

    return detect_violations_indexed(db, list(dependencies))


def violating_tuples(
    db: DatabaseInstance, dependencies: Iterable[Dependency]
) -> Set[PyTuple[str, Tuple]]:
    """Convenience: the set of (relation, tuple) witnesses over all deps."""
    return detect_violations(db, dependencies).violating_tuples()
