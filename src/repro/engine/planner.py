"""Batch detection planning: group dependencies by shared scan signatures.

Given an arbitrary mix of dependencies, the planner decides which index
each one needs and groups them so every index is built exactly once:

* FDs, CFDs and eCFDs over the same relation with the same canonical LHS
  signature form one :class:`ScanGroup` — the relation is partitioned once
  on that signature and every pattern tuple of every member is evaluated
  against the shared partitions (the in-memory analogue of the paper's
  merged detection queries);
* INDs and CINDs with the same target (relation, Yp, Y) signature form one
  :class:`InclusionGroup` — the target key index is built once and reused
  across every tableau row of every member;
* anything else (denial constraints, MDs, …) goes to the fallback list and
  runs through its own ``violations`` method.

The plan records each dependency's position in the input so the executor
can emit violations grouped per dependency in input order, exactly like the
naive per-dependency loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple as PyTuple

from repro.deps.base import Dependency, ScanDependency
from repro.engine.indexes import canonical_signature

__all__ = ["ScanGroup", "InclusionGroup", "DetectionPlan", "plan_detection"]


class ScanGroup:
    """Dependencies sharing one (relation, canonical-LHS) partition."""

    __slots__ = ("relation_name", "signature", "members")

    def __init__(self, relation_name: str, signature: PyTuple[str, ...]):
        self.relation_name = relation_name
        self.signature = signature
        self.members: List[PyTuple[int, Dependency]] = []

    def __repr__(self) -> str:
        return (
            f"ScanGroup({self.relation_name} on {list(self.signature)}, "
            f"{len(self.members)} deps)"
        )


class InclusionGroup:
    """Inclusion dependencies sharing one target key index.

    ``group_attrs`` is the Yp pattern signature (empty for plain INDs) and
    ``key_attrs`` the Y attribute list, in declared order — inclusion keys
    are positional (X↔Y correspondence), so order is part of the signature.
    """

    __slots__ = ("relation_name", "group_attrs", "key_attrs", "members")

    def __init__(
        self,
        relation_name: str,
        group_attrs: PyTuple[str, ...],
        key_attrs: PyTuple[str, ...],
    ):
        self.relation_name = relation_name
        self.group_attrs = group_attrs
        self.key_attrs = key_attrs
        self.members: List[PyTuple[int, Dependency]] = []

    def __repr__(self) -> str:
        return (
            f"InclusionGroup({self.relation_name}[{list(self.key_attrs)}] "
            f"grouped by {list(self.group_attrs)}, {len(self.members)} deps)"
        )


class DetectionPlan:
    """The grouped execution plan for one batch of dependencies."""

    def __init__(self, dependencies: Sequence[Dependency]):
        self.dependencies: List[Dependency] = list(dependencies)
        self.scan_groups: List[ScanGroup] = []
        self.inclusion_groups: List[InclusionGroup] = []
        self.fallback: List[PyTuple[int, Dependency]] = []

    @property
    def shared_scans(self) -> int:
        """How many per-dependency scans the plan merges away."""
        return sum(len(g.members) - 1 for g in self.scan_groups) + sum(
            len(g.members) - 1 for g in self.inclusion_groups
        )

    def describe(self) -> str:
        lines = [
            f"DetectionPlan: {len(self.dependencies)} dependencies, "
            f"{len(self.scan_groups)} scan groups, "
            f"{len(self.inclusion_groups)} inclusion groups, "
            f"{len(self.fallback)} fallback"
        ]
        for g in self.scan_groups:
            names = [getattr(d, "name", repr(d)) for _, d in g.members]
            lines.append(
                f"  scan {g.relation_name} ⊣ {list(g.signature)}: {names}"
            )
        for g in self.inclusion_groups:
            names = [getattr(d, "name", repr(d)) for _, d in g.members]
            lines.append(
                f"  inclusion into {g.relation_name}[{list(g.key_attrs)}; "
                f"{list(g.group_attrs)}]: {names}"
            )
        for _, d in self.fallback:
            lines.append(f"  fallback: {getattr(d, 'name', repr(d))}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DetectionPlan({len(self.dependencies)} deps → "
            f"{len(self.scan_groups)} scans + {len(self.inclusion_groups)} "
            f"inclusions + {len(self.fallback)} fallback)"
        )


def plan_detection(dependencies: Iterable[Dependency]) -> DetectionPlan:
    """Group the dependency set by the indexes each member needs."""
    from repro.cind.model import CIND
    from repro.deps.ind import IND

    plan = DetectionPlan(list(dependencies))
    scans: Dict[PyTuple[str, PyTuple[str, ...]], ScanGroup] = {}
    inclusions: Dict[
        PyTuple[str, PyTuple[str, ...], PyTuple[str, ...]], InclusionGroup
    ] = {}

    def scan_group(relation: str, signature: PyTuple[str, ...]) -> ScanGroup:
        key = (relation, signature)
        group = scans.get(key)
        if group is None:
            group = scans[key] = ScanGroup(relation, signature)
            plan.scan_groups.append(group)
        return group

    def inclusion_group(
        relation: str,
        group_attrs: PyTuple[str, ...],
        key_attrs: PyTuple[str, ...],
    ) -> InclusionGroup:
        key = (relation, group_attrs, key_attrs)
        group = inclusions.get(key)
        if group is None:
            group = inclusions[key] = InclusionGroup(
                relation, group_attrs, key_attrs
            )
            plan.inclusion_groups.append(group)
        return group

    for position, dep in enumerate(plan.dependencies):
        if isinstance(dep, ScanDependency):
            signature = canonical_signature(dep.lhs)
            scan_group(dep.relation_name, signature).members.append(
                (position, dep)
            )
        elif isinstance(dep, CIND):
            inclusion_group(
                dep.rhs_relation, dep.rhs_pattern_attrs, dep.rhs_attrs
            ).members.append((position, dep))
        elif isinstance(dep, IND):
            inclusion_group(dep.rhs_relation, (), dep.rhs_attrs).members.append(
                (position, dep)
            )
        else:
            plan.fallback.append((position, dep))
    return plan
