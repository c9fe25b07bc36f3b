"""Functional dependencies: syntax, semantics and classical analyses.

This module is the FD row of Table 1: satisfiability is trivial (any set of
FDs is satisfiable), implication is linear time via attribute-set closure,
and Armstrong's axioms give a finite axiomatization (implemented in
:mod:`repro.deps.armstrong`).  Also provided: minimal covers, candidate-key
computation, and violation detection over instances.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple as PyTuple

from repro.deps.base import ScanDependency, Violation
from repro.errors import DependencyError
from repro.relational.schema import RelationSchema

__all__ = [
    "FD",
    "closure",
    "implies",
    "equivalent",
    "minimal_cover",
    "candidate_keys",
    "is_superkey",
    "project_fds",
]


class FD(ScanDependency):
    """A functional dependency R: X → Y."""

    __slots__ = ("relation_name", "lhs", "rhs")

    def __init__(self, relation_name: str, lhs: Sequence[str], rhs: Sequence[str]):
        if not rhs:
            raise DependencyError("FD must have a non-empty right-hand side")
        self.relation_name = relation_name
        self.lhs: PyTuple[str, ...] = tuple(dict.fromkeys(lhs))
        self.rhs: PyTuple[str, ...] = tuple(dict.fromkeys(rhs))

    def relations(self) -> PyTuple[str, ...]:
        return (self.relation_name,)

    def check_schema(self, schema: RelationSchema) -> None:
        """Raise if the FD mentions attributes outside ``schema``."""
        schema.check_attributes(self.lhs)
        schema.check_attributes(self.rhs)

    @property
    def scan_signature(self) -> PyTuple[str, ...]:
        """Canonical LHS signature; FDs and CFDs sharing it share a partition."""
        from repro.engine.indexes import canonical_signature

        return canonical_signature(self.lhs)

    def scan_tasks(self, schema: RelationSchema) -> List["ScanTask"]:
        """One compiled sweep task: pair violations within each partition.

        Within a partition all tuples agree on X, so each tuple disagreeing
        with the first on the RHS is a pair violation; singleton groups are
        skipped by the executor before any call is made.
        """
        from repro.engine.scan import ColumnarSpec, ScanTask

        from repro.engine.indexes import key_getter

        rhs_of = key_getter(schema, self.rhs)
        message = (
            f"tuples agree on {list(self.lhs)} but differ on {list(self.rhs)}"
        )

        def pair(first, other, out: list) -> None:
            if rhs_of(first.values()) != rhs_of(other.values()):
                out.append(
                    Violation(
                        self,
                        [(self.relation_name, first), (self.relation_name, other)],
                        message,
                    )
                )

        def single(t, out: list) -> None:  # FDs have no single-tuple shape
            return None

        return [
            ScanTask(
                None,
                [],
                single=single,
                pair=pair,
                columnar=ColumnarSpec(pair_attrs=self.rhs),
                skip_singletons=True,
            )
        ]

    def __repr__(self) -> str:
        return f"FD({self.relation_name}: {list(self.lhs)} -> {list(self.rhs)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FD)
            and (self.relation_name, frozenset(self.lhs), frozenset(self.rhs))
            == (other.relation_name, frozenset(other.lhs), frozenset(other.rhs))
        )

    def __hash__(self) -> int:
        return hash((self.relation_name, frozenset(self.lhs), frozenset(self.rhs)))


def closure(attributes: Iterable[str], fds: Sequence[FD]) -> FrozenSet[str]:
    """Attribute-set closure X⁺ under a set of FDs (linear-time algorithm).

    Standard Beeri–Bernstein: maintain per-FD unsatisfied-LHS counters and a
    work queue, so each attribute/FD edge is touched once.
    """
    closed: Set[str] = set()
    queue: List[str] = list(dict.fromkeys(attributes))
    # count[i] = number of LHS attributes of fds[i] not yet seen
    count: List[int] = [len(fd.lhs) for fd in fds]
    fd_by_attr: dict[str, List[int]] = {}
    for i, fd in enumerate(fds):
        for a in fd.lhs:
            fd_by_attr.setdefault(a, []).append(i)
    # FDs with an empty LHS fire unconditionally.
    for i, fd in enumerate(fds):
        if count[i] == 0:
            queue.extend(fd.rhs)
    while queue:
        attr = queue.pop()
        if attr in closed:
            continue
        closed.add(attr)
        for i in fd_by_attr.get(attr, ()):
            count[i] -= 1
            if count[i] == 0:
                queue.extend(b for b in fds[i].rhs if b not in closed)
    return frozenset(closed)


def implies(fds: Sequence[FD], fd: FD) -> bool:
    """Σ ⊨ φ for FDs: true iff rhs ⊆ closure(lhs) w.r.t. Σ on the same relation."""
    same_relation = [f for f in fds if f.relation_name == fd.relation_name]
    return set(fd.rhs) <= closure(fd.lhs, same_relation)


def equivalent(left: Sequence[FD], right: Sequence[FD]) -> bool:
    """True iff the two FD sets imply each other."""
    return all(implies(right, f) for f in left) and all(implies(left, f) for f in right)


def minimal_cover(fds: Sequence[FD]) -> List[FD]:
    """A minimal (canonical) cover: singleton RHS, no redundant LHS attribute,
    no redundant FD.  Deterministic given input order."""
    # 1. split right-hand sides
    work: List[FD] = [
        FD(fd.relation_name, fd.lhs, [b]) for fd in fds for b in fd.rhs
    ]
    # 2. remove extraneous LHS attributes
    reduced: List[FD] = []
    for fd in work:
        lhs = list(fd.lhs)
        for attr in list(lhs):
            if len(lhs) == 1:
                break
            candidate = [a for a in lhs if a != attr]
            if fd.rhs[0] in closure(candidate, work):
                lhs = candidate
        reduced.append(FD(fd.relation_name, lhs, fd.rhs))
    # 3. remove redundant FDs
    result: List[FD] = list(dict.fromkeys(reduced))
    changed = True
    while changed:
        changed = False
        for fd in list(result):
            rest = [f for f in result if f != fd]
            if implies(rest, fd):
                result = rest
                changed = True
                break
    return result


def is_superkey(attributes: Iterable[str], schema: RelationSchema, fds: Sequence[FD]) -> bool:
    """True iff ``attributes`` functionally determine the whole schema."""
    return set(schema.attribute_names) <= closure(attributes, fds)


def candidate_keys(schema: RelationSchema, fds: Sequence[FD]) -> List[FrozenSet[str]]:
    """All candidate keys (minimal superkeys) of the relation.

    Exponential in the worst case (there can be exponentially many keys);
    fine for the schema sizes of the paper's examples.
    """
    attrs = list(schema.attribute_names)
    keys: List[FrozenSet[str]] = []
    for size in range(len(attrs) + 1):
        for combo in itertools.combinations(attrs, size):
            candidate = frozenset(combo)
            if any(key <= candidate for key in keys):
                continue
            if is_superkey(candidate, schema, fds):
                keys.append(candidate)
    return keys


def project_fds(
    fds: Sequence[FD], attributes: Iterable[str], relation_name: str | None = None
) -> List[FD]:
    """FDs implied on a projection (the classical exponential algorithm).

    For every subset X of ``attributes``, emit X → (X⁺ ∩ attributes) − X.
    Used by BCNF decomposition; exponential, so intended for small schemas.
    """
    attrs = list(dict.fromkeys(attributes))
    result: List[FD] = []
    for size in range(1, len(attrs) + 1):
        for combo in itertools.combinations(attrs, size):
            closed = closure(combo, fds)
            rhs = [a for a in attrs if a in closed and a not in combo]
            if rhs:
                name = relation_name or (fds[0].relation_name if fds else "R")
                result.append(FD(name, combo, rhs))
    return minimal_cover(result) if result else []
