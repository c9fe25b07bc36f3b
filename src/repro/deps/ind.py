"""Inclusion dependencies: syntax, semantics, and implication.

INDs are the second classical baseline of the paper (Table 1): consistency is
trivial (O(1)), implication is PSPACE-complete, and — taken together with
FDs — implication becomes undecidable, which is why this module offers only
the pure-IND procedures.  The implication test implements the complete
inference system of Casanova, Fagin and Papadimitriou (reflexivity,
projection-and-permutation, transitivity) as a saturation search with an
explicit bound on derived IND width, which is exact because every derived
IND's attribute lists are drawn from the finite pool of the given ones.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Set, Tuple as PyTuple

from repro.deps.base import InclusionDependency
from repro.errors import DependencyError

__all__ = ["IND", "ind_implies", "is_acyclic"]


class IND(InclusionDependency):
    """An inclusion dependency R1[X] ⊆ R2[Y] with |X| = |Y|: the CIND with
    no pattern attributes."""

    __slots__ = ("lhs_relation", "lhs_attrs", "rhs_relation", "rhs_attrs")

    lhs_pattern_attrs: PyTuple[str, ...] = ()
    rhs_pattern_attrs: PyTuple[str, ...] = ()

    def __init__(
        self,
        lhs_relation: str,
        lhs_attrs: Sequence[str],
        rhs_relation: str,
        rhs_attrs: Sequence[str],
    ):
        if len(lhs_attrs) != len(rhs_attrs):
            raise DependencyError(
                f"IND attribute lists must have equal length: "
                f"{list(lhs_attrs)} vs {list(rhs_attrs)}"
            )
        if not lhs_attrs:
            raise DependencyError("IND attribute lists must be non-empty")
        if len(set(lhs_attrs)) != len(lhs_attrs) or len(set(rhs_attrs)) != len(rhs_attrs):
            raise DependencyError("IND attribute lists must not repeat attributes")
        self.lhs_relation = lhs_relation
        self.lhs_attrs: PyTuple[str, ...] = tuple(lhs_attrs)
        self.rhs_relation = rhs_relation
        self.rhs_attrs: PyTuple[str, ...] = tuple(rhs_attrs)

    def relations(self) -> PyTuple[str, ...]:
        return (self.lhs_relation, self.rhs_relation)

    def check_schema(self, db_schema: "DatabaseSchema") -> None:
        """Raise if either side mentions a missing relation or attribute."""
        db_schema.relation(self.lhs_relation).check_attributes(self.lhs_attrs)
        db_schema.relation(self.rhs_relation).check_attributes(self.rhs_attrs)

    def inclusion_rows(self) -> List[PyTuple[tuple, tuple, str]]:
        """One row with no pattern constants."""
        reason = f"no {self.rhs_relation} tuple matches on {list(self.rhs_attrs)}"
        return [((), (), reason)]

    def __repr__(self) -> str:
        return (
            f"IND({self.lhs_relation}{list(self.lhs_attrs)} ⊆ "
            f"{self.rhs_relation}{list(self.rhs_attrs)})"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IND) and (
            self.lhs_relation,
            self.lhs_attrs,
            self.rhs_relation,
            self.rhs_attrs,
        ) == (other.lhs_relation, other.lhs_attrs, other.rhs_relation, other.rhs_attrs)

    def __hash__(self) -> int:
        return hash(
            (self.lhs_relation, self.lhs_attrs, self.rhs_relation, self.rhs_attrs)
        )


def _projections(ind: IND, width: int) -> Iterator[IND]:
    """All projection-and-permutation consequences of ``ind`` of width ``width``."""
    positions = range(len(ind.lhs_attrs))
    for combo in itertools.permutations(positions, width):
        # Attribute lists may not repeat attributes, which permutations ensure.
        yield IND(
            ind.lhs_relation,
            [ind.lhs_attrs[i] for i in combo],
            ind.rhs_relation,
            [ind.rhs_attrs[i] for i in combo],
        )


def ind_implies(sigma: Sequence[IND], target: IND, max_derived: int = 200_000) -> bool:
    """Decide Σ ⊨ φ for INDs by saturation under the complete axioms.

    Axioms (Casanova–Fagin–Papadimitriou):

    * reflexivity  R[X] ⊆ R[X];
    * projection & permutation;
    * transitivity R[X] ⊆ S[Y], S[Y] ⊆ T[Z] ⟹ R[X] ⊆ T[Z].

    The procedure saturates the set of INDs of width ≤ |target| over the
    attributes appearing in Σ and the target; this search space is finite, so
    the procedure is exact (PSPACE-complete in general, hence the
    ``max_derived`` guard on pathological inputs).
    """
    if target.lhs_relation == target.rhs_relation and target.lhs_attrs == target.rhs_attrs:
        return True  # reflexivity
    width = len(target.lhs_attrs)
    known: Set[IND] = set()
    frontier: List[IND] = []

    def absorb(ind: IND) -> None:
        if ind not in known:
            known.add(ind)
            frontier.append(ind)

    for ind in sigma:
        if len(ind.lhs_attrs) >= width:
            for proj in _projections(ind, width):
                absorb(proj)
    while frontier:
        if len(known) > max_derived:
            raise MemoryError(
                f"IND implication saturation exceeded {max_derived} derived INDs"
            )
        current = frontier.pop()
        if current == target:
            return True
        for other in list(known):
            # transitivity in both directions
            if (
                current.rhs_relation == other.lhs_relation
                and current.rhs_attrs == other.lhs_attrs
            ):
                absorb(
                    IND(
                        current.lhs_relation,
                        current.lhs_attrs,
                        other.rhs_relation,
                        other.rhs_attrs,
                    )
                )
            if (
                other.rhs_relation == current.lhs_relation
                and other.rhs_attrs == current.lhs_attrs
            ):
                absorb(
                    IND(
                        other.lhs_relation,
                        other.lhs_attrs,
                        current.rhs_relation,
                        current.rhs_attrs,
                    )
                )
    return target in known


def is_acyclic(inds: Iterable[IND]) -> bool:
    """True iff the relation-level dependency graph of the INDs is acyclic.

    Acyclicity is the condition under which repair checking for FDs+INDs is
    tractable (Theorem 5.1) and the chase terminates.
    """
    edges: dict[str, set[str]] = {}
    for ind in inds:
        if ind.lhs_relation == ind.rhs_relation:
            return False
        edges.setdefault(ind.lhs_relation, set()).add(ind.rhs_relation)
    # Kahn-style cycle detection via DFS with colouring.
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[str, int] = {}

    def visit(node: str) -> bool:
        colour[node] = GREY
        for succ in edges.get(node, ()):
            state = colour.get(succ, WHITE)
            if state == GREY:
                return False
            if state == WHITE and not visit(succ):
                return False
        colour[node] = BLACK
        return True

    return all(
        visit(node)
        for node in list(edges)
        if colour.get(node, WHITE) == WHITE
    )
