"""S-repairs: consistent instances at ⊆-minimal symmetric difference.

The S-repair model of [7] allows deletions *and* insertions.  Two regimes:

* For **denial-class** dependencies (FDs, CFDs, eCFDs, denial constraints)
  insertions never help — the paper notes X- and S-repairs coincide there —
  so S-repairs are exactly the maximal consistent subsets and we delegate
  to :mod:`repro.repair.xrepair`.

* With **inclusion dependencies** in the mix, insertions can replace
  deletions; :func:`all_s_repairs` additionally explores insertion of
  *witness tuples* built over the active domain plus the pattern constants
  (the canonical choices), up to a configurable bound.  This is exact for
  the acyclic, small-instance cases the tests and benchmarks exercise, and
  bounded otherwise (repair checking is already coNP-hard in general,
  Theorem 5.1).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Sequence, Set, Tuple as PyTuple

from repro.cind.model import CIND
from repro.deps.base import Dependency
from repro.deps.ind import IND
from repro.engine.delta import Changeset, DeltaEngine
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple
from repro.repair.xrepair import all_x_repairs

__all__ = ["is_denial_class", "all_s_repairs", "symmetric_difference"]

Cell = PyTuple[str, Tuple]


def is_denial_class(dependencies: Sequence[Dependency]) -> bool:
    """True iff no dependency has existential (inclusion) semantics."""
    return not any(isinstance(d, (IND, CIND)) for d in dependencies)


def symmetric_difference(
    original: DatabaseInstance, repaired: DatabaseInstance
) -> Set[Cell]:
    """(D \\ D′) ∪ (D′ \\ D) as a set of (relation, tuple) cells."""
    delta: Set[Cell] = set()
    for rel in original.schema.relation_names:
        old = set(original.relation(rel))
        new = set(repaired.relation(rel))
        for t in old - new:
            delta.add((rel, t))
        for t in new - old:
            delta.add((rel, t))
    return delta


def _insertion_candidates(
    db: DatabaseInstance, dependencies: Sequence[Dependency], max_per_relation: int
) -> List[Cell]:
    """Witness tuples an IND/CIND repair might insert: for each inclusion
    dependency and each violated source tuple, the forced target tuple with
    unconstrained attributes drawn from the active domain."""
    candidates: List[Cell] = []
    for dep in dependencies:
        if isinstance(dep, IND):
            specs = [
                (dep.lhs_relation, dep.lhs_attrs, dep.rhs_relation, dep.rhs_attrs, {})
            ]
        elif isinstance(dep, CIND):
            specs = [
                (
                    dep.lhs_relation,
                    dep.lhs_attrs,
                    dep.rhs_relation,
                    dep.rhs_attrs,
                    dep.rhs_pattern(row),
                )
                for row in dep.tableau
            ]
        else:
            continue
        for lhs_rel, lhs_attrs, rhs_rel, rhs_attrs, pinned in specs:
            target_schema = db.relation(rhs_rel).schema
            free_attrs = [
                a
                for a in target_schema.attribute_names
                if a not in rhs_attrs and a not in pinned
            ]
            pools = []
            for attr in free_attrs:
                pool = db.relation(rhs_rel).active_domain(attr) or [
                    target_schema.domain(attr).fresh_value()
                ]
                pools.append(pool[:max_per_relation])
            for source in db.relation(lhs_rel):
                produced = 0
                for combo in itertools.product(*pools):
                    values = dict(zip(free_attrs, combo))
                    values.update(pinned)
                    for src_attr, dst_attr in zip(lhs_attrs, rhs_attrs):
                        values[dst_attr] = source[src_attr]
                    candidates.append((rhs_rel, Tuple(target_schema, values)))
                    produced += 1
                    if produced >= max_per_relation:
                        break
    seen: Set[Cell] = set()
    unique: List[Cell] = []
    for cell in candidates:
        if cell not in seen:
            seen.add(cell)
            unique.append(cell)
    return unique


def all_s_repairs(
    db: DatabaseInstance,
    dependencies: Sequence[Dependency],
    limit: int = 100_000,
    max_insertions: int = 4,
    max_candidates_per_relation: int = 8,
) -> List[DatabaseInstance]:
    """All S-repairs (⊆-minimal symmetric difference), exactly for the
    denial class and bounded-exactly with inclusion dependencies."""
    if is_denial_class(dependencies):
        return all_x_repairs(db, dependencies, limit)

    candidates = _insertion_candidates(
        db, dependencies, max_candidates_per_relation
    )
    # One delta-maintained working instance walks the whole search tree:
    # each branch applies its edit, recurses, and reverts through the
    # returned undo changeset instead of copying the database per node.
    engine = DeltaEngine(db.copy(), dependencies)
    consistent: List[PyTuple[FrozenSet[Cell], DatabaseInstance]] = []
    nodes = [0]

    def branch(cell: Cell, removed: FrozenSet[Cell], inserted: FrozenSet[Cell], remove: bool) -> None:
        rel, t = cell
        edit = Changeset()
        (edit.delete if remove else edit.insert)(rel, t)
        delta = engine.apply(edit)
        explore(
            removed | {cell} if remove else removed,
            inserted if remove else inserted | {cell},
        )
        engine.apply(delta.undo)

    def explore(
        removed: FrozenSet[Cell], inserted: FrozenSet[Cell]
    ) -> None:
        nodes[0] += 1
        if nodes[0] > limit:
            raise MemoryError(f"S-repair enumeration exceeded {limit} nodes")
        violations = engine.violations()
        if not violations:
            consistent.append((removed | inserted, engine.database.copy()))
            return
        first = violations[0]
        for cell in first.tuples:
            if cell not in inserted:
                branch(cell, removed, inserted, remove=True)
            else:
                # undoing an insertion re-creates the obligation; skip
                continue
        if len(inserted) < max_insertions:
            for cell in candidates:
                rel, t = cell
                if t in db.relation(rel) or cell in inserted:
                    continue
                branch(cell, removed, inserted, remove=False)

    explore(frozenset(), frozenset())
    deltas = [symmetric_difference(db, inst) for _, inst in consistent]
    repairs: List[DatabaseInstance] = []
    seen: Set[FrozenSet[Cell]] = set()
    for delta, (_, inst) in zip(deltas, consistent):
        frozen = frozenset(delta)
        if frozen in seen:
            continue
        if any(frozenset(other) < frozen for other in deltas):
            continue
        seen.add(frozen)
        repairs.append(inst)
    return repairs
