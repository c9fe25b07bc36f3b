"""Repair checking (paper §5.1, Theorem 5.1).

Given Σ, D and a candidate D′, is D′ a repair of D?  The answer depends on
the repair model:

* X-repair: D′ ⊆ D, D′ ⊨ Σ, and no deleted tuple can be added back;
* S-repair: D′ ⊨ Σ and no consistent D″ has a strictly smaller symmetric
  difference — checked exactly by testing every proper subset of the
  difference (exponential in |Δ|, as the coNP-hardness of Theorem 5.1
  demands; |Δ| is small in practice);
* U-repair: D′ is a value modification of D, D′ ⊨ Σ; *global* cost
  minimality is NP-hard to verify, so we check the standard local notion:
  no single cell can be reverted to its original value while keeping Σ
  satisfied (and report the cost).

Every probe ("does Σ still hold after this edit?") runs on the delta
engine: the check builds one :class:`~repro.engine.delta.DeltaEngine` over
a working copy and answers each hypothetical through
:meth:`~repro.engine.delta.DeltaEngine.probe`, which applies the edit,
reads off the violation delta, and reverts — no full re-detection and no
per-probe database copy.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple as PyTuple

from repro.deps.base import Dependency, holds
from repro.engine.delta import Changeset, DeltaEngine
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple
from repro.repair.models import CostModel
from repro.repair.srepair import symmetric_difference

__all__ = ["is_x_repair", "is_s_repair", "check_u_repair", "URepairCheck"]

Cell = PyTuple[str, Tuple]


def is_x_repair(
    original: DatabaseInstance,
    candidate: DatabaseInstance,
    dependencies: Sequence[Dependency],
) -> bool:
    """Is ``candidate`` a maximal consistent subset of ``original``?"""
    deleted: List[Cell] = []
    for rel in original.schema.relation_names:
        old = set(original.relation(rel))
        new = set(candidate.relation(rel))
        if not new <= old:
            return False  # not a subset
        deleted.extend((rel, t) for t in old - new)
    if not holds(candidate, dependencies):
        return False  # stops at the first violated dependency, no copy
    engine = DeltaEngine(candidate.copy(), dependencies)
    # Candidate is consistent, so each add-back probe is one violation
    # delta over the partitions the restored tuple lands in.
    for rel, t in deleted:
        if engine.probe(Changeset().insert(rel, t)).clean_after:
            return False  # not maximal
    return True


def is_s_repair(
    original: DatabaseInstance,
    candidate: DatabaseInstance,
    dependencies: Sequence[Dependency],
) -> bool:
    """Is ``candidate`` consistent with ⊆-minimal symmetric difference?

    Exact: every proper subset of the difference is re-applied and tested
    (2^|Δ| probes against one delta-maintained working instance; the
    problem is coNP-hard in general, Theorem 5.1).
    """
    import itertools

    if not holds(candidate, dependencies):
        return False
    delta = sorted(
        symmetric_difference(original, candidate), key=lambda c: (c[0], repr(c[1]))
    )
    engine = DeltaEngine(original.copy(), dependencies)
    for size in range(len(delta)):
        for subset in itertools.combinations(delta, size):
            trial = Changeset()
            for rel, t in subset:
                if t in original.relation(rel):
                    trial.delete(rel, t)
                else:
                    trial.insert(rel, t)
            if engine.probe(trial).clean_after:
                return False  # smaller difference suffices
    return True


class URepairCheck:
    """Outcome of a U-repair check: validity, local minimality, cost."""

    def __init__(self, consistent: bool, locally_minimal: bool, cost: float):
        self.consistent = consistent
        self.locally_minimal = locally_minimal
        self.cost = cost

    @property
    def acceptable(self) -> bool:
        return self.consistent and self.locally_minimal

    def __repr__(self) -> str:
        return (
            f"URepairCheck(consistent={self.consistent}, "
            f"locally_minimal={self.locally_minimal}, cost={self.cost:.3f})"
        )


def check_u_repair(
    original: DatabaseInstance,
    candidate: DatabaseInstance,
    dependencies: Sequence[Dependency],
    cost_model: CostModel | None = None,
) -> URepairCheck:
    """Check a value-modification repair (tuple counts must be preserved).

    Pairs tuples positionally (insertion order) — callers repairing via
    :mod:`repro.repair.urepair` preserve order — and verifies consistency,
    computes the aggregate cost, and tests local minimality (reverting any
    single changed cell breaks consistency).
    """
    cost_model = cost_model or CostModel()
    cost = 0.0
    reversions: List[PyTuple[str, Tuple, str, object]] = []
    for rel in original.schema.relation_names:
        old = original.relation(rel).tuples()
        new = candidate.relation(rel).tuples()
        if len(old) != len(new):
            return URepairCheck(False, False, float("inf"))
        for o, n in zip(old, new):
            for attr in o.schema.attribute_names:
                if o[attr] != n[attr]:
                    cost += cost_model.weight(o, attr) * cost_model.distance(
                        o[attr], n[attr]
                    )
                    reversions.append((rel, n, attr, o[attr]))
    consistent = holds(candidate, dependencies)
    locally_minimal = True
    if consistent:
        # Each reversion probe is a single-cell update against the
        # consistent candidate: one violation delta over the partitions
        # the reverted tuple moves between.
        engine = DeltaEngine(candidate.copy(), dependencies)
        for rel, changed_tuple, attr, old_value in reversions:
            probe = Changeset().update(rel, changed_tuple, **{attr: old_value})
            if engine.probe(probe).clean_after:
                locally_minimal = False
                break
    return URepairCheck(consistent, locally_minimal, cost)
