"""Batch detection execution over shared indexes.

The executor walks a :class:`~repro.engine.planner.DetectionPlan`:

* for each scan group it fetches the one shared vectorized layout of the
  relation (:mod:`repro.engine.kernels`), resolves fully-constant pattern
  tuples by one key lookup, and visits, in a single pass, only the groups
  the kernels flag for the remaining pattern tuples of *all* members;
* for each inclusion group it warms the shared target key index once and
  runs every member against it;
* fallback dependencies run through their own ``violations`` method.

Violations are reassembled in input-dependency order, so the resulting
:class:`~repro.cfd.detect.DetectionReport` groups per dependency exactly
like a naive per-dependency loop — only the work is shared.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.deps.base import Dependency, Violation
from repro.engine.kernels import flagged_rows
from repro.engine.planner import DetectionPlan, plan_detection
from repro.relational.instance import DatabaseInstance

__all__ = ["ExecutionStats", "execute_plan", "detect_violations_indexed"]


class ExecutionStats:
    """What one plan execution actually did, for tests and tuning."""

    __slots__ = ("partitions_built", "constant_lookups", "swept_patterns", "groups_swept")

    def __init__(self) -> None:
        self.partitions_built = 0
        self.constant_lookups = 0
        self.swept_patterns = 0
        self.groups_swept = 0

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(partitions_built={self.partitions_built}, "
            f"constant_lookups={self.constant_lookups}, "
            f"swept_patterns={self.swept_patterns}, "
            f"groups_swept={self.groups_swept})"
        )


def execute_plan(
    db: DatabaseInstance,
    plan: DetectionPlan,
    stats: ExecutionStats | None = None,
):
    """Run the plan on ``db`` and aggregate a DetectionReport."""
    from repro.cfd.detect import DetectionReport
    from repro.cind.model import CIND

    stats = stats if stats is not None else ExecutionStats()
    results: List[List[Violation]] = [[] for _ in plan.dependencies]

    for scan in plan.scan_groups:
        relation = db.relation(scan.relation_name)
        # Compile every member's pattern rows once against the relation
        # schema; fully-constant rows resolve by one key lookup, the rest
        # join the shared sweep.
        lookups: List[tuple] = []
        sweep: List[tuple] = []
        for position, dep in scan.members:
            for task in dep.scan_tasks(relation.schema):
                if task.lookup_key is not None:
                    lookups.append((position, task))
                else:
                    sweep.append((position, task))
        stats.partitions_built += 1
        stats.constant_lookups += len(lookups)
        stats.swept_patterns += len(sweep)
        # The vectorized layout partitions the relation, and the kernels
        # flag exactly the violating rows (code comparisons are congruent
        # with the value comparisons the closures make), so only flagged
        # rows — plus each flagged group's first tuple — are materialized
        # and routed through the tasks' ``single``/``pair`` closures:
        # groups in first-seen key order, tasks in member order, and
        # within a group ``single`` on its flagged members, then ``pair``
        # of its first tuple against the flagged others.
        layout = relation.indexes.group_layout(scan.signature)
        indexes = relation.indexes
        tuple_at = layout.store.tuple_at

        def emit(task, flags, rank: int, out: List[Violation], first=None):
            singles, pairs = flagged_rows(layout, flags, rank)
            for row in singles:
                task.single(tuple_at(row), out)
            if pairs:
                if first is None:
                    first = tuple_at(int(layout.rows_sorted[layout.starts[rank]]))
                for row in pairs:
                    task.pair(first, tuple_at(row), out)
            return first

        for position, task in lookups:
            rank = layout.rank_of_key(task.lookup_key)
            if rank is not None:
                emit(task, indexes.task_flags(scan.signature, task.columnar),
                     rank, results[position])
        if not sweep:
            continue
        flagged: List[tuple] = []
        union: set = set()
        for position, task in sweep:
            flags = indexes.task_flags(scan.signature, task.columnar)
            flagged.append((position, task, flags))
            union |= flags.candidate_set
        for rank in sorted(union):
            stats.groups_swept += 1
            singleton = int(layout.sizes[rank]) < 2
            key = layout.decoded_key(rank)
            first = None
            for position, task, flags in flagged:
                if rank not in flags.candidate_set:
                    continue
                if singleton and task.skip_singletons:
                    continue
                if task.matches(key):
                    first = emit(task, flags, rank, results[position], first)

    for inclusion in plan.inclusion_groups:
        # Warm the shared target index once; members hit the cache.
        target_indexes = db.relation(inclusion.relation_name).indexes
        if any(isinstance(dep, CIND) for _, dep in inclusion.members):
            target_indexes.grouped_key_sets(
                inclusion.group_attrs, inclusion.key_attrs
            )
        if any(not isinstance(dep, CIND) for _, dep in inclusion.members):
            target_indexes.key_set(inclusion.key_attrs)
        stats.partitions_built += 1
        for position, dep in inclusion.members:
            results[position].extend(dep.violations(db))

    for position, dep in plan.fallback:
        results[position].extend(dep.violations(db))

    return DetectionReport([v for sub in results for v in sub])


def detect_violations_indexed(
    db: DatabaseInstance, dependencies: Iterable[Dependency]
):
    """Plan + execute: batch violation detection over shared indexes."""
    return execute_plan(db, plan_detection(dependencies))
