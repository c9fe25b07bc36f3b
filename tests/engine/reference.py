"""The per-tuple sweep: batch detection without the vectorized kernels.

The differential reference for :func:`repro.engine.executor.execute_plan`
and for the delta engine's flag-seeded build.  Scan groups partition the
relation with ``RelationIndexes.group_index`` (a dict of ``Tuple`` lists,
first-seen key order) and run every task over whole partitions in the
order the executor emits: lookup tasks first, then each partition in key
order with its tasks in member order, ``single`` on every member, then
``pair`` of the first member against every other one.  No code column,
layout or flag is read, so a kernel that flags a wrong row or skips a
group shows up as a different list.  Inclusion and fallback members run
through their own ``violations``, as in the executor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.deps.base import Dependency, Violation
from repro.engine.planner import plan_detection
from repro.relational.instance import DatabaseInstance


def _evaluate(task, group: Sequence, out: List[Violation]) -> None:
    """One partition's violations of one task, appended to ``out``."""
    if not task.skip_singletons:
        for t in group:
            task.single(t, out)
    first = group[0]
    for other in group[1:]:
        task.pair(first, other, out)


def swept_violations(
    db: DatabaseInstance, dependencies: Iterable[Dependency]
) -> List[Violation]:
    """What ``detect_violations_indexed(db, dependencies).violations`` is,
    computed tuple by tuple over hash partitions."""
    plan = plan_detection(dependencies)
    results: List[List[Violation]] = [[] for _ in plan.dependencies]
    for scan in plan.scan_groups:
        relation = db.relation(scan.relation_name)
        groups = relation.indexes.group_index(scan.signature)
        tasks = [
            (position, task)
            for position, dep in scan.members
            for task in dep.scan_tasks(relation.schema)
        ]
        for position, task in tasks:
            if task.lookup_key is not None and task.lookup_key in groups:
                _evaluate(task, groups[task.lookup_key], results[position])
        for key, group in groups.items():
            for position, task in tasks:
                if task.lookup_key is None and task.matches(key):
                    _evaluate(task, group, results[position])
    for inclusion in plan.inclusion_groups:
        for position, dep in inclusion.members:
            results[position].extend(dep.violations(db))
    for position, dep in plan.fallback:
        results[position].extend(dep.violations(db))
    return [v for found in results for v in found]


def swept_scan_state(db: DatabaseInstance, state) -> Dict[tuple, Dict]:
    """A delta-engine scan state's ``violations`` map as a sweep of every
    fresh ``group_index`` partition through ``_ScanState._evaluate`` —
    key order and filing included — instead of off the kernel flags."""
    relation = db.relation(state.relation_name)
    swept: Dict[tuple, Dict] = {}
    for key, group in relation.indexes.group_index(state.signature).items():
        found = state._evaluate(key, group)
        if found:
            swept[key] = found
    return swept
