"""U-repair: heuristic value-modification repair for FDs and CFDs.

"U-repair is often used in practice" (§5.1): instead of dropping whole
tuples, fix the fields that are wrong.  This implements the
equivalence-class strategy of the cost-based algorithms the paper cites —
[16] (FDs/INDs) and [28] (CFDs) — adapted to our in-memory instances:

1. **Constant phase** — every single-tuple CFD violation (the tuple matches
   tp[X] but clashes with an RHS pattern constant) is resolved by writing
   the constant, since the pattern's RHS value is the only consistent
   choice for that cell;
2. **Variable phase** — pair violations are resolved per LHS-group by
   merging the group's RHS cells into one equivalence class and assigning
   the class the value of minimal aggregate cost (weighted plurality);
3. repeat (changes can re-trigger other rules) up to ``max_passes``.

The loop runs on the delta engine: a
:class:`~repro.engine.delta.DeltaEngine` maintains the violation set while
cells are rewritten, so each pass works straight off the *current*
violations — which tuples clash with which constants, which LHS-groups
still disagree — instead of re-scanning the relation per pattern row, and
the post-repair consistency verdict is read off the maintained set.

The result records every cell edit with its cost w(t,A)·dis(v,v′).  Like
the algorithms it reproduces, this is a heuristic: finding a minimum-cost
repair is NP-complete already for a fixed set of FDs (Theorem 5.1), and on
adversarial inputs the pass cap may be reached (``resolved=False``).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Sequence, Tuple as PyTuple

from repro.cfd.model import CFD, fd_as_cfd
from repro.deps.fd import FD
from repro.engine.delta import Changeset, DeltaEngine
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple
from repro.repair.models import CellChange, CostModel, ValueRepair

__all__ = ["repair_cfds", "repair_fds"]


def _best_class_value(
    members: List[PyTuple[Tuple, Tuple]],
    attribute: str,
    cost_model: CostModel,
) -> Any:
    """Value minimizing the total cost of aligning every member's cell.

    ``members`` pairs (original_tuple, current_tuple); candidates are the
    current values of the class.
    """
    candidates = {current[attribute] for _, current in members}
    best_value = None
    best_cost = float("inf")
    for candidate in sorted(candidates, key=repr):
        cost = sum(
            cost_model.weight(original, attribute)
            * cost_model.distance(current[attribute], candidate)
            for original, current in members
        )
        if cost < best_cost:
            best_cost = cost
            best_value = candidate
    return best_value


def repair_cfds(
    db: DatabaseInstance,
    cfds: Sequence[CFD],
    cost_model: CostModel | None = None,
    max_passes: int = 25,
) -> ValueRepair:
    """Heuristic U-repair of a database against a set of CFDs."""
    cost_model = cost_model or CostModel()
    cfds = list(cfds)
    repaired = db.copy()
    engine = DeltaEngine(repaired, cfds)
    changes: List[CellChange] = []
    # map current tuple -> its original (for weights / cost accounting)
    origin: Dict[PyTuple[str, Tuple], Tuple] = {}
    for relation in repaired.schema.relation_names:
        for t in repaired.relation(relation):
            origin[(relation, t)] = t

    def apply_change(relation: str, current: Tuple, attribute: str, value: Any) -> Tuple:
        original = origin.pop((relation, current))
        engine.apply(Changeset().update(relation, current, **{attribute: value}))
        updated = current.replace(**{attribute: value})
        origin[(relation, updated)] = original
        changes.append(
            CellChange(
                relation,
                original,
                attribute,
                current[attribute],
                value,
                cost_model.weight(original, attribute)
                * cost_model.distance(current[attribute], value),
            )
        )
        return updated

    passes = 0
    for _ in range(max_passes):
        passes += 1
        progress = False
        # Phase 1: constant violations — read the current single-tuple
        # violations off the engine; each one names exactly the tuples that
        # clash with an RHS constant.  A witness updated earlier in the
        # pass is skipped (its new violations, if any, surface next pass).
        by_dep = engine.report().by_dependency()
        for cfd in cfds:
            for violation in by_dep.get(cfd, ()):
                if len(violation.tuples) != 1:
                    continue
                _, t = violation.tuples[0]
                if t not in repaired.relation(cfd.relation_name):
                    continue  # stale witness: already rewritten this pass
                for tp in cfd.tableau:
                    rhs_constants = tp.constants_on(cfd.rhs)
                    if not rhs_constants:
                        continue
                    if not tp.matches_tuple(t, list(cfd.lhs)):
                        continue
                    for attribute, constant in rhs_constants.items():
                        if t[attribute] != constant:
                            t = apply_change(
                                cfd.relation_name, t, attribute, constant
                            )
                            progress = True
        # Phase 2: pair violations, per LHS equivalence class.  The
        # engine's maintained partitions give each violating class in full
        # (witnesses alone would miss members that agree with the
        # plurality).
        by_dep = engine.report().by_dependency()
        for cfd in cfds:
            signature = list(cfd.scan_signature)
            # key → the class's live members now: re-read after each merge
            members_of = partial(
                engine.partition, cfd.relation_name, cfd.scan_signature
            )
            class_keys: List[tuple] = []
            seen = set()
            for violation in by_dep.get(cfd, ()):
                if len(violation.tuples) < 2:
                    continue
                _, witness = violation.tuples[0]
                if witness not in repaired.relation(cfd.relation_name):
                    continue
                key = witness[signature]
                if key not in seen:
                    seen.add(key)
                    class_keys.append(key)
            for key in class_keys:
                if len(members_of(key)) < 2:
                    continue
                for tp in cfd.tableau:
                    if not tp.matches_tuple(members_of(key)[0], list(cfd.lhs)):
                        continue
                    for attribute in cfd.rhs:
                        members_now = members_of(key)
                        values = {t[attribute] for t in members_now}
                        if len(values) <= 1:
                            continue
                        members = [
                            (origin[(cfd.relation_name, t)], t)
                            for t in members_now
                        ]
                        target = _best_class_value(members, attribute, cost_model)
                        for t in members_now:
                            if t[attribute] != target:
                                apply_change(
                                    cfd.relation_name, t, attribute, target
                                )
                                progress = True
        if not progress:
            break
    return ValueRepair(repaired, changes, resolved=engine.is_clean(), passes=passes)


def repair_fds(
    db: DatabaseInstance,
    fds: Sequence[FD],
    cost_model: CostModel | None = None,
    max_passes: int = 25,
) -> ValueRepair:
    """U-repair against plain FDs ([16]-style) via the CFD embedding."""
    return repair_cfds(db, [fd_as_cfd(fd) for fd in fds], cost_model, max_passes)
