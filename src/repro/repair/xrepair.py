"""X-repairs: maximal consistent subsets (tuple deletions only).

The X-repair model of [25] assumes the data is inconsistent but *complete*,
so only deletions are allowed.  Two algorithms:

* :func:`greedy_x_repair` — delete a most-conflicting tuple until clean,
  then add deleted tuples back while consistency allows (guaranteeing
  maximality); polynomial with a violation-count heuristic.
* :func:`all_x_repairs` — exact enumeration of *all* maximal consistent
  subsets by branching on the witnesses of a violation; exponential, as it
  must be (Example 5.1 exhibits 2^n repairs), intended for small instances
  and for the EX51 benchmark.

Both are complete for *universal* dependencies (FDs, CFDs, eCFDs, denial
constraints) and remain correct for INDs/CINDs because a violated source
tuple can only be fixed by deleting it when insertions are forbidden.

Both run on the delta engine (:mod:`repro.engine.delta`): the violation set
is maintained incrementally as tuples are deleted and restored, so the
greedy loop pays per-edit cost instead of a full re-detection per step, and
the exhaustive search explores its tree through apply/undo instead of
copying the database at every node.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple as PyTuple

from repro.deps.base import Dependency
from repro.engine.delta import Changeset, DeltaEngine
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple

__all__ = ["greedy_x_repair", "all_x_repairs", "count_x_repairs"]

Cell = PyTuple[str, Tuple]  # (relation name, tuple)


def _subset_db(db: DatabaseInstance, removed: Set[Cell]) -> DatabaseInstance:
    result = db.copy()
    for relation, t in removed:
        result.relation(relation).discard(t)
    return result


def greedy_x_repair(
    db: DatabaseInstance,
    dependencies: Sequence[Dependency],
) -> DatabaseInstance:
    """A maximal consistent subset, greedily (delete max-degree witnesses,
    then re-insert while consistent)."""
    current = db.copy()
    engine = DeltaEngine(current, dependencies)
    removed: Set[Cell] = set()
    while not engine.is_clean():
        degree: Dict[Cell, int] = {}
        for v in engine.violations():
            for cell in v.tuples:
                degree[cell] = degree.get(cell, 0) + 1
        victim = max(degree, key=lambda c: (degree[c], repr(c[1])))
        removed.add(victim)
        engine.apply(Changeset().delete(victim[0], victim[1]))
    # maximality: try to re-add in deterministic order
    for relation, t in sorted(removed, key=lambda c: (c[0], repr(c[1]))):
        delta = engine.apply(Changeset().insert(relation, t))
        if not delta.clean_after:
            engine.apply(delta.undo)
    return current


def all_x_repairs(
    db: DatabaseInstance,
    dependencies: Sequence[Dependency],
    limit: int = 100_000,
) -> List[DatabaseInstance]:
    """All X-repairs (maximal consistent subsets), exactly.

    Branch on the witness tuples of the first violation: any consistent
    subset must exclude at least one of them.  The search walks one
    delta-maintained working instance via apply/undo.  Collected subsets
    are then filtered for maximality and deduplicated.  ``limit`` bounds
    the number of search nodes (MemoryError beyond — Example 5.1 is
    exponential).
    """
    engine = DeltaEngine(db.copy(), dependencies)
    consistent_subsets: Set[FrozenSet[Cell]] = set()
    nodes = [0]

    def explore(removed: FrozenSet[Cell]) -> None:
        nodes[0] += 1
        if nodes[0] > limit:
            raise MemoryError(f"X-repair enumeration exceeded {limit} nodes")
        violations = engine.violations()
        if not violations:
            consistent_subsets.add(removed)
            return
        first = violations[0]
        for cell in first.tuples:
            delta = engine.apply(Changeset().delete(cell[0], cell[1]))
            explore(removed | {cell})
            engine.apply(delta.undo)

    explore(frozenset())
    # keep only subsets whose removal set is minimal (⟺ subset maximal)
    repairs: List[DatabaseInstance] = []
    minimal: List[FrozenSet[Cell]] = [
        r
        for r in consistent_subsets
        if not any(other < r for other in consistent_subsets)
    ]
    for removed in sorted(minimal, key=lambda s: (len(s), sorted(map(repr, s)))):
        repairs.append(_subset_db(db, set(removed)))
    return repairs


def count_x_repairs(
    db: DatabaseInstance, dependencies: Sequence[Dependency], limit: int = 100_000
) -> int:
    """Number of X-repairs (exact; exponential in the worst case)."""
    return len(all_x_repairs(db, dependencies, limit))
