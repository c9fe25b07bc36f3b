"""The delta engine: incremental violation maintenance under batched edits.

The repair loop of §5 is detect → edit → re-detect, and PR 1's engine only
re-checks *single-tuple* repair probes incrementally.  This module closes
the gap for arbitrary batched edits: a :class:`Changeset` (inserts, deletes
and cell updates) is applied to the versioned relation instances, and the
:class:`DeltaEngine` answers with a :class:`ViolationDelta` — exactly which
violations the batch created and which it resolved — while keeping the full
current violation set available at all times.

The maintenance strategy follows the same signature-sharing idea as the
batch executor, localized to what the delta touches:

* **FD/CFD/eCFD** — every violation (single-tuple or pair) lives entirely
  inside one LHS-signature partition.  A partition is the relation's
  cached vectorized layout segment for its key (row ids, never copied)
  plus the edits since: only a partition a batch has touched gets a
  record of its own, so the build materialises the violating rows and
  nothing else, and a batch re-evaluates the compiled scan tasks only on
  the partition keys it touched;
* **IND/CIND** — per (target relation, Yp, Y) signature the engine keeps
  the target's cached counted key index as a base plus the counts batches
  moved, and per source layout on Xp + X the same base-plus-touched-keys
  partitions as a scan group, with violations held per partition key:
  the build reads the violating partitions off the layout, as the
  executor does, and materialises only their rows.  A batch then
  resolves to the source keys it touched and the target keys whose being
  provided it flipped (a gain clears its partition's violations, a loss
  makes every live member one) — all hash lookups;
* **anything else** (denial constraints, MDs, …) falls back to a targeted
  re-scan, and only when the batch touches one of the dependency's
  relations.

Every ``apply`` also hands back the ``undo`` changeset that reverts the
batch, which is what lets repair search trees (:mod:`repro.repair.xrepair`,
:mod:`repro.repair.srepair`) explore edits without copying the database.

The maintained set can be read two ways: :meth:`DeltaEngine.violations`
in maintenance order (what the repair loops consume), and
:meth:`DeltaEngine.ordered_violations` sorted into exactly the list a
fresh batch detection returns — every tuple is numbered by arrival, so
the read is one sort of the violations and never touches the relation.
That is what lets :meth:`repro.session.Session.detect` answer a read
after a write from here instead of re-detecting.  Most edits to mostly
clean data change no violation, so the engine also says *whether* that
list moved: :attr:`DeltaEngine.report_epoch` is replaced by exactly the
``apply`` calls that change what ``ordered_violations()`` returns, and
the sorted list is kept until it does.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import count
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple as PyTuple

from repro.deps.base import Dependency, InclusionDependency, Violation
from repro.engine.indexes import key_getter
from repro.engine.kernels import GroupLayout, flagged_rows, inclusion_ranks
from repro.engine.planner import (
    InclusionGroup,
    ScanGroup,
    inclusion_signature,
    plan_detection,
)
from repro.errors import DependencyError, ReproError
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.tuples import Tuple

if TYPE_CHECKING:
    from repro.cfd.detect import DetectionReport

__all__ = [
    "Changeset",
    "DeltaEngine",
    "DeltaStats",
    "StaleEngineError",
    "ViolationDelta",
    "violation_multiset",
    "violation_sequence",
]


def violation_multiset(violations: Iterable[Violation]) -> Counter:
    """The canonical identity multiset for comparing violation reports.

    One definition shared by every divergence check — the differential
    test harness, ``Session.stream(verify=True)``, and the incremental
    benchmark — so they all enforce the same invariant: the dependency
    *object* (``id``), plus the ordered witness tuples (so even
    pair-violation orientation must agree).
    """
    return Counter((id(v.dependency), v.tuples) for v in violations)


def violation_sequence(violations: Iterable[Violation]) -> List[tuple]:
    """The ordered identity of a report, for comparing two reports as lists.

    Stricter than :func:`violation_multiset`: order counts, and so does
    everything a served violation renders from — the dependency *object*,
    the reason, and the witness ``Tuple`` *objects* in their orientation
    (a relation hands out one ``Tuple`` per live row; the server's
    ``ReportFragments`` keys its encoded bytes on the same three).  This
    is the contract :meth:`DeltaEngine.ordered_violations` keeps with a
    fresh :func:`~repro.engine.executor.detect_violations_indexed` run.
    """
    return [
        (
            id(v.dependency),
            v.reason,
            tuple([(relation, id(t)) for relation, t in v.tuples]),
        )
        for v in violations
    ]


class StaleEngineError(ReproError):
    """The underlying database was mutated behind the engine's back.

    The delta engine maintains derived state (partitions, key counts,
    violation sets) that is only valid for the relation versions it last
    saw.  Route every mutation through :meth:`DeltaEngine.apply`, or call
    :meth:`DeltaEngine.refresh` after mutating the instances directly.
    """


class Changeset:
    """An ordered batch of edits against a database instance.

    Three operations, chainable::

        Changeset().insert("R", {"A": 1}).delete("R", t).update("R", t, B=2)

    An update is a *cell edit*: the target tuple is replaced by
    ``t.replace(**cells)``.  Application is sequential and follows set
    semantics — inserting a present tuple or deleting an absent one is a
    recorded no-op, so a changeset can be replayed safely.
    """

    __slots__ = ("_ops",)

    _INSERT, _DELETE, _UPDATE = "insert", "delete", "update"

    #: the keys of an op document, per kind: every one is required
    _KEYS = {
        _INSERT: ("op", "relation", "row"),
        _DELETE: ("op", "relation", "row"),
        _UPDATE: ("op", "relation", "row", "cells"),
    }

    def __init__(self) -> None:
        self._ops: List[PyTuple[str, str, Any]] = []

    def insert(self, relation: str, row: Tuple | Mapping | Sequence) -> "Changeset":
        self._ops.append((self._INSERT, relation, row))
        return self

    def delete(self, relation: str, t: Tuple | Mapping | Sequence) -> "Changeset":
        self._ops.append((self._DELETE, relation, t))
        return self

    def update(
        self, relation: str, t: Tuple | Mapping | Sequence, **cells: Any
    ) -> "Changeset":
        if not cells:
            raise ValueError("update requires at least one cell assignment")
        self._ops.append((self._UPDATE, relation, (t, cells)))
        return self

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    @staticmethod
    def _coerce(relation: RelationInstance, t: Tuple | Mapping | Sequence) -> Tuple:
        if isinstance(t, Tuple):
            return t
        return Tuple(relation.schema, t)

    def apply_to(
        self, db: DatabaseInstance
    ) -> Dict[str, List[PyTuple[str, Tuple]]]:
        """Mutate ``db`` and return the *effective* primitive ops per relation.

        Effective ops are ``("add", t)`` / ``("remove", t)`` pairs in
        application order, with set-semantics no-ops dropped: inserting a
        present tuple or deleting an absent one records nothing, and an
        update whose replacement collides with an existing tuple records
        only the removal.  Updating an *absent* tuple raises ``KeyError``
        (unlike a delete, an update has no sensible no-op reading — the
        caller's view of the cell is stale).  Application is atomic: if any
        op fails, the already-applied prefix is rolled back before the
        error propagates (:meth:`DatabaseInstance.savepoint`: every row
        back where it was), so the database is never left half-edited.

        The edit itself decides membership: ``RelationInstance.version``
        moves on exactly the effective ``add`` / ``discard`` calls, so an
        insert or delete is one call — one row lookup — and is recorded
        iff the version moved; nothing asks ``t in relation`` first.  An
        update keeps its order of checks — absent target (``KeyError``)
        before ``replace`` can reject a cell, ``new == old`` before any
        edit (removing and re-adding would move the row to the end) — so
        it locates the target, kills the row it found and adds the
        replacement: two lookups at most.
        """
        effective: Dict[str, List[PyTuple[str, Tuple]]] = {}
        with db.savepoint() as savepoint:
            try:
                for kind, rel_name, payload in self._ops:
                    relation = db.relation(rel_name)
                    ops = effective.setdefault(rel_name, [])
                    if kind == self._INSERT:
                        t = self._coerce(relation, payload)
                        version = relation.version
                        relation.add(t)
                        if relation.version != version:
                            ops.append(("add", t))
                    elif kind == self._DELETE:
                        t = self._coerce(relation, payload)
                        version = relation.version
                        relation.discard(t)
                        if relation.version != version:
                            ops.append(("remove", t))
                    else:  # update
                        old, cells = payload
                        old = self._coerce(relation, old)
                        located = relation.locate(old)
                        if located is None:
                            raise KeyError(
                                f"update target {old!r} not in {rel_name}"
                            )
                        new = old.replace(**cells)
                        if new == old:
                            continue
                        relation.kill(located)
                        ops.append(("remove", old))
                        version = relation.version
                        relation.add(new)
                        if relation.version != version:
                            ops.append(("add", new))
            except Exception:
                savepoint.rollback()
                raise
        return {rel: ops for rel, ops in effective.items() if ops}

    @staticmethod
    def inverse_of(effective: Mapping[str, List[PyTuple[str, Tuple]]]) -> "Changeset":
        """The changeset undoing ``effective`` ops (reversed, add↔remove)."""
        undo = Changeset()
        flat = [
            (rel, kind, t)
            for rel, ops in effective.items()
            for kind, t in ops
        ]
        for rel, kind, t in reversed(flat):
            if kind == "add":
                undo.delete(rel, t)
            else:
                undo.insert(rel, t)
        return undo

    # -- wire format ------------------------------------------------------

    @staticmethod
    def _row_to_dict(row: Tuple | Mapping | Sequence) -> Any:
        if isinstance(row, Tuple):
            return row.as_dict()
        if isinstance(row, Mapping):
            return dict(row)
        return list(row)

    def to_dict(self) -> Dict[str, Any]:
        """The batch as a JSON-ready document: ``{"ops": [...]}``.

        Each op is ``{"op": "insert"|"delete"|"update", "relation": name,
        "row": {attr: value}}``, updates carrying an extra ``"cells"``
        mapping of the edited attributes.  Tuple payloads render through
        ``Tuple.as_dict``, so a changeset built from live tuples (e.g. an
        undo changeset) serializes the same way as one built from mappings.
        """
        ops: List[Dict[str, Any]] = []
        for kind, rel_name, payload in self._ops:
            if kind == self._UPDATE:
                row, cells = payload
                ops.append(
                    {
                        "op": kind,
                        "relation": rel_name,
                        "row": self._row_to_dict(row),
                        "cells": dict(cells),
                    }
                )
            else:
                ops.append(
                    {
                        "op": kind,
                        "relation": rel_name,
                        "row": self._row_to_dict(payload),
                    }
                )
        return {"ops": ops}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Changeset":
        """Parse a :meth:`to_dict` document back into a changeset.

        Rows stay plain mappings/sequences; they are coerced to typed
        tuples against the live schema at apply time, so a document can be
        parsed without a database at hand.  Raises
        :class:`~repro.errors.DependencyError` on a malformed document,
        naming the offending op index — an op carrying a key its kind does
        not read (``cells`` on an insert) included.
        """
        ops = document.get("ops")
        if not isinstance(ops, Sequence) or isinstance(ops, (str, bytes)):
            raise DependencyError(
                "changeset document needs an 'ops' list, got "
                f"{type(ops).__name__}"
            )
        changeset = cls()
        for i, op in enumerate(ops):
            if not isinstance(op, Mapping):
                raise DependencyError(f"changeset op #{i} is not a mapping")
            kind = op.get("op")
            rel_name = op.get("relation")
            row = op.get("row")
            if not isinstance(rel_name, str):
                raise DependencyError(
                    f"changeset op #{i} needs a 'relation' name"
                )
            if not isinstance(row, (Mapping, Sequence)) or isinstance(
                row, (str, bytes)
            ):
                raise DependencyError(
                    f"changeset op #{i} needs a 'row' mapping or list"
                )
            keys = cls._KEYS.get(kind) if isinstance(kind, str) else None
            if keys is None:
                raise DependencyError(
                    f"changeset op #{i} has unknown op {kind!r}; expected "
                    "'insert', 'delete' or 'update'"
                )
            if kind == cls._UPDATE:
                cells = op.get("cells")
                if not isinstance(cells, Mapping) or not cells:
                    raise DependencyError(
                        f"changeset op #{i} (update) needs a non-empty "
                        "'cells' mapping"
                    )
            if len(op) != len(keys):  # every key of ``keys`` is present
                unknown = [key for key in op if key not in keys]
                raise DependencyError(
                    f"changeset op #{i} ({kind}) has unknown key(s) {unknown}; "
                    f"expected {list(keys)}"
                )
            # append directly rather than via update(**cells): an
            # attribute literally named "relation" or "t" would collide
            # with the method's positional parameters
            payload = (row, dict(cells)) if kind == cls._UPDATE else row
            changeset._ops.append((kind, rel_name, payload))
        return changeset

    def __repr__(self) -> str:
        kinds = Counter(kind for kind, _, _ in self._ops)
        inner = ", ".join(f"{k}×{n}" for k, n in sorted(kinds.items()))
        return f"Changeset({len(self._ops)} ops: {inner or 'empty'})"


class ViolationDelta:
    """What one applied changeset did to the violation set."""

    __slots__ = ("added", "removed", "undo", "remaining")

    def __init__(
        self,
        added: List[Violation],
        removed: List[Violation],
        undo: Changeset,
        remaining: int,
    ) -> None:
        self.added = added
        self.removed = removed
        self.undo = undo
        #: total violations in the maintained set *after* the batch
        self.remaining = remaining

    @property
    def clean_after(self) -> bool:
        """True iff the database satisfies Σ after the batch."""
        return self.remaining == 0

    def __repr__(self) -> str:
        return (
            f"ViolationDelta(+{len(self.added)} −{len(self.removed)}, "
            f"{self.remaining} remaining)"
        )


class DeltaStats:
    """What incremental maintenance actually did, for tests and tuning."""

    __slots__ = (
        "batches",
        "ops_applied",
        "keys_patched",
        "keys_reevaluated",
        "inclusion_keys_touched",
        "fallback_rescans",
        "reports_served",
        "rebuilds",
    )

    def __init__(self) -> None:
        self.batches = 0
        self.ops_applied = 0
        #: partition keys updated in O(1) per op (pair pivot survived)
        self.keys_patched = 0
        #: partition keys that needed a full re-sweep (pivot removed / new)
        self.keys_reevaluated = 0
        self.inclusion_keys_touched = 0
        self.fallback_rescans = 0
        #: detects answered from the maintained set (no executor run)
        self.reports_served = 0
        #: whole-state rebuilds: ``settle`` after a rollback that moved
        #: rows (a failed apply) or a compaction, an explicit ``refresh()``
        self.rebuilds = 0

    def __repr__(self) -> str:
        return (
            f"DeltaStats(batches={self.batches}, ops={self.ops_applied}, "
            f"keys_patched={self.keys_patched}, "
            f"keys_reevaluated={self.keys_reevaluated}, "
            f"inclusion_keys_touched={self.inclusion_keys_touched}, "
            f"fallback_rescans={self.fallback_rescans}, "
            f"reports_served={self.reports_served}, "
            f"rebuilds={self.rebuilds})"
        )


#: sort key of an ``ordered_entries`` row: everything but the violation
_REPORT_ORDER = itemgetter(0, 1, 2, 3)

#: what a maintained state's ``apply`` returns: the (position, violation)
#: entries that entered and left its store — before any netting — and
#: whether anything its ``ordered_entries`` yields changed, *by identity*:
#: an entry came or went, or a held partition got a new pivot
_StateDelta = PyTuple[
    List[PyTuple[int, Violation]], List[PyTuple[int, Violation]], bool
]

#: where every ``DeltaEngine.report_epoch`` comes from: one counter for the
#: process, so no two engines — or an engine and its own rebuild — share one
_REPORT_EPOCHS = count(1)


class _Partition:
    """One touched partition: what is left of its base segment, and the
    tuples added since the base was laid out (insertion-ordered)."""

    __slots__ = ("cursor", "end", "tail")

    def __init__(self, cursor: int, end: int) -> None:
        #: ``base.rows_sorted[cursor:end]`` is the segment; between batches
        #: ``cursor`` rests on a live row (or on ``end``)
        self.cursor = cursor
        self.end = end
        self.tail: Dict[Tuple, None] = {}


class _LayoutState:
    """One relation's rows partitioned on one signature, never copied.

    A partition reads as ``RelationIndexes.group_index`` would build it from
    scratch — tuples in relation insertion order — but is never copied out
    of the relation: the state keeps the
    :class:`~repro.engine.kernels.GroupLayout` the batch executor caches
    (``group_layout``) as its immutable ``base``:
    row ids are append-only and a deleted row keeps its column values until
    the store compacts (the engine rebuilds then), so a key's partition is
    the live rows of its base segment followed by the tuples added since.
    Only a key some batch has touched owns a record (``touched``): a cursor
    into its segment, stepped past the rows a batch kills from the front so
    that between batches it rests on the partition's first live row, and the
    ``tail`` of tuples added since.  An untouched key has no record — its
    partition is its whole segment — and a base row's removal needs no
    bookkeeping at all: the store already marked it dead, and no dead row
    is ever materialised.  A base row is materialised only when a state
    reports or reads it, and is numbered then by its row id.
    """

    __slots__ = (
        "relation_name",
        "signature",
        "key_of",
        "base",
        "touched",
        "_store",
        "_arrival",
    )

    def __init__(
        self,
        relation: RelationInstance,
        signature: PyTuple[str, ...],
        arrival: Dict[Tuple, int],
    ) -> None:
        self.relation_name = relation.schema.name
        self.signature = signature
        self.key_of = key_getter(relation.schema, signature)
        self._store: Any = relation.column_store
        #: the engine's arrival numbers for this relation (shared): a base
        #: row's is its row id, recorded whenever the row is materialised
        self._arrival = arrival
        self.base: GroupLayout = relation.indexes.group_layout(signature)
        self.touched: Dict[tuple, _Partition] = {}

    def _tuple(self, row: int) -> Tuple:
        """A live base row as the store's one ``Tuple`` for it, numbered
        by its row id (monotone in arrival, below every later add)."""
        t = self._store.tuple_at(row)
        self._arrival[t] = row
        return t

    def _segment(self, key: tuple) -> _Partition:
        """A fresh record for an untouched key: its whole base segment."""
        start = size = 0
        rank = self.base.rank_of_key(key)
        if rank is not None:
            start = int(self.base.starts[rank])
            size = int(self.base.sizes[rank])
        return _Partition(start, start + size)

    def _partition(self, key: tuple) -> _Partition:
        """The key's record; an untouched key's is made on the spot and
        not remembered (only ``apply`` touches a key)."""
        return self.touched.get(key) or self._segment(key)

    def first(self, part: _Partition) -> Optional[Tuple]:
        """The partition's pivot as of the last batch — ``None`` if it was
        a base row the store has killed since, or the partition is empty."""
        if part.cursor < part.end:
            row = int(self.base.rows_sorted[part.cursor])
            return self._tuple(row) if self._store.alive[row] else None
        return next(iter(part.tail), None)

    def members(self, part: _Partition) -> List[Tuple]:
        """The partition's live tuples, in relation insertion order; the
        cursor steps past the dead rows this skips at the front."""
        if part.cursor == part.end:
            return list(part.tail)
        alive = self._store.alive
        rows = self.base.rows_sorted[part.cursor : part.end].tolist()
        live = [row for row in rows if alive[row]]
        part.cursor = part.cursor + rows.index(live[0]) if live else part.end
        found = [self._tuple(row) for row in live]
        found.extend(part.tail)
        return found

    def partition(self, key: tuple) -> List[Tuple]:
        """The live tuples under ``key`` now (a fresh list)."""
        return self.members(self._partition(key))


class _ScanState(_LayoutState):
    """Maintained partitions + violations for one (relation, signature)
    scan group, on the shared :class:`_LayoutState` base.

    Violations are updated per touched partition key on one of two paths:

    * **incremental** — every scan-task violation is either a
      single-tuple check or a first-vs-other pair check
      (``ScanTask.single`` / ``.pair``).  As long as the partition's
      *first* tuple survives the batch, each added tuple contributes
      exactly ``single(t) + pair(first, t)`` and each removed tuple
      retracts exactly the same — O(1) per op, no re-sweep;
    * **re-evaluate** — if the batch removes the partition's first tuple
      (the pair pivot changes) or the partition is new, the partition is
      re-swept and the violation multisets diffed.

    ``violations`` keeps, under each violating partition key, every
    member's *contribution* under that member: the ``(slot, violation)``
    entries it witnesses as the non-pivot tuple, where ``slot`` is twice
    the producing task's index in ``tasks`` for a single and one more for
    a pair.  A retraction is therefore one ``pop`` of the removed tuple,
    whatever else the partition holds, and :meth:`ordered_entries` can
    rank every entry by task, kind and witness.
    """

    __slots__ = (
        "tasks",
        "violations",
        "_universal",
        "_conditional",
        "_positions",
        "_lookup_slots",
        "_table",
    )

    def __init__(
        self,
        relation: RelationInstance,
        scan_group: ScanGroup,
        arrival: Dict[Tuple, int],
    ) -> None:
        super().__init__(relation, scan_group.signature, arrival)
        #: (single slot, task) in the executor's (member, tableau row) order
        self.tasks: List[PyTuple[int, Any]] = []
        #: slot → the producing dependency's position in the input
        self._positions: List[int] = []
        #: slot → produced by a lookup task (reported before every sweep)
        self._lookup_slots: List[bool] = []
        for position, dep in scan_group.members:
            for task in dep.scan_tasks(relation.schema):
                self.tasks.append((len(self._positions), task))
                self._positions += (position, position)
                self._lookup_slots += (task.lookup_key is not None,) * 2
        # Tasks that match every partition key (all-wildcard patterns) are
        # split out once; only the rest pay a per-key pattern check.
        self._universal: List[PyTuple[int, Any]] = [
            (slot, task)
            for slot, task in self.tasks
            if task.lookup_key is None
            and not task.key_constants
            and task.match_fn is None
        ]
        self._conditional: List[PyTuple[int, Any]] = [
            entry for entry in self.tasks if entry not in self._universal
        ]
        self._table = self._constant_table()
        self.violations: Dict[tuple, Dict[Tuple, List[PyTuple[int, Violation]]]] = {}
        self._seed(relation.indexes)

    def _seed(self, indexes: Any) -> None:
        """The initial violations, read off the kernel flags.

        The flags are exact and name the violating rows (after a detect
        both layout and flags are cache hits), so only those rows — and
        each flagged partition's pivot — are materialised and filed
        (:meth:`_file`) exactly as :meth:`_evaluate` files a
        whole-partition sweep: partitions by layout rank (first-seen key
        order), tasks in order, singles before pairs, rows in relation
        order.  No partition is built.
        """
        layout = self.base
        flags = {
            slot: indexes.task_flags(self.signature, task.columnar)
            for slot, task in self.tasks
        }
        ranks: set = set()
        for task_flags in flags.values():
            ranks |= task_flags.candidate_set
        for rank in sorted(ranks):
            key = layout.decoded_key(rank)
            singleton = int(layout.sizes[rank]) < 2
            first = None
            stored: Dict[Tuple, List[PyTuple[int, Violation]]] = {}
            for slot, task in self._applicable(key):
                if rank not in flags[slot].candidate_set or (
                    singleton and task.skip_singletons
                ):
                    continue
                singles, pairs = (
                    [self._tuple(row) for row in rows]
                    for rows in flagged_rows(layout, flags[slot], rank)
                )
                if pairs and first is None:
                    first = self._tuple(int(layout.rows_sorted[layout.starts[rank]]))
                self._file(stored, slot, task, first, singles, pairs)
            if stored:
                self.violations[key] = stored

    def iter_found(self) -> Iterator[PyTuple[int, Violation]]:
        """All stored (position, violation) entries, per-partition order."""
        positions = self._positions
        for stored in self.violations.values():
            for contribution in stored.values():
                for slot, violation in contribution:
                    yield positions[slot], violation

    def ordered_entries(self, out: List[tuple]) -> None:
        """Append ``(position, partition rank, slot, witness arrival,
        violation)`` per stored entry.

        Sorted on the first four, a dependency's entries read as the batch
        executor emits them: lookup tasks first (rank −1) in task order,
        then the swept partitions by the arrival of their first live tuple
        — the layout's first-seen rank — each with its tasks in order,
        singles before pairs, witnesses in relation order.
        """
        arrival = self._arrival
        positions = self._positions
        lookup = self._lookup_slots
        for key, stored in self.violations.items():
            rank = arrival[self.first(self._partition(key))]
            for t, contribution in stored.items():
                arrived = arrival[t]
                for slot, violation in contribution:
                    out.append(
                        (
                            positions[slot],
                            -1 if lookup[slot] else rank,
                            slot,
                            arrived,
                            violation,
                        )
                    )

    def _constant_table(self) -> Optional[PyTuple[Any, Dict[Any, List[Any]]]]:
        """``(getter, table)`` when every conditional task is a constant
        pattern on the same key positions: ``table.get(getter(key))`` is
        what :meth:`_applicable` answers (absent: the universal tasks).
        ``None`` for any other shape, or for a constant a dict key cannot
        stand in for (unhashable, or unequal to itself)."""
        tasks = [task for _, task in self._conditional]
        shapes = {tuple(p for p, _ in task.key_constants) for task in tasks}
        if len(shapes) != 1 or any(
            task.lookup_key is not None or task.match_fn is not None
            for task in tasks
        ):
            return None
        getter = itemgetter(*shapes.pop())
        table: Dict[Any, List[PyTuple[int, Any]]] = {}
        for entry in self._conditional:
            constants = dict(entry[1].key_constants)
            if any(value != value for value in constants.values()):
                return None
            try:
                chosen = table.setdefault(getter(constants), list(self._universal))
            except TypeError:  # an unhashable constant
                return None
            chosen.append(entry)
        return getter, table

    def _applicable(self, key: tuple) -> List[PyTuple[int, Any]]:
        """The member tasks whose pattern admits this partition key."""
        if not self._conditional:
            return self._universal
        if self._table is not None:
            getter, table = self._table
            return table.get(getter(key), self._universal)
        chosen = list(self._universal)
        for slot, task in self._conditional:
            if task.lookup_key is not None:
                if task.lookup_key != key:
                    continue
            elif not task.matches(key):
                continue
            chosen.append((slot, task))
        return chosen

    def _evaluate(
        self, key: tuple, group: Sequence[Tuple]
    ) -> Dict[Tuple, List[PyTuple[int, Violation]]]:
        """Sweep one partition — ``single`` on every member, then ``pair``
        of the first against every other — and file every violation under
        the member that contributes it."""
        first, others = group[0], group[1:]
        stored: Dict[Tuple, List[PyTuple[int, Violation]]] = {}
        for slot, task in self._applicable(key):
            singles = () if task.skip_singletons else group
            self._file(stored, slot, task, first, singles, others)
        return stored

    @staticmethod
    def _file(
        stored: Dict[Tuple, List[PyTuple[int, Violation]]],
        slot: int,
        task: Any,
        first: Optional[Tuple],
        singles: Sequence[Tuple],
        pairs: Sequence[Tuple],
    ) -> None:
        """Run ``task.single(t)`` for each of ``singles``, then
        ``task.pair(first, t)`` for each of ``pairs``, filing what each
        call finds under ``t``: a single at ``slot``, a pair at ``slot + 1``
        (the witness shapes of ``ScanTask.single`` / ``.pair``)."""
        out: List[Violation] = []
        for t in singles:
            task.single(t, out)
            if out:
                stored.setdefault(t, []).extend([(slot, v) for v in out])
                out.clear()
        for t in pairs:
            task.pair(first, t, out)
            if out:
                stored.setdefault(t, []).extend([(slot + 1, v) for v in out])
                out.clear()

    @staticmethod
    def _contribution(
        tasks: Sequence[PyTuple[int, Any]], first: Tuple, t: Tuple
    ) -> List[PyTuple[int, Violation]]:
        """The entries tuple ``t`` contributes to its partition, given
        the partition's (surviving, distinct) first tuple — what
        :meth:`_file` files under ``t``, in one loop: this runs per edit."""
        found: List[PyTuple[int, Violation]] = []
        out: List[Violation] = []
        for slot, task in tasks:
            task.single(t, out)
            singles = len(out)
            task.pair(first, t, out)
            if out:
                for index, v in enumerate(out):
                    found.append((slot if index < singles else slot + 1, v))
                out.clear()
        return found

    @staticmethod
    def _flatten(
        stored: Mapping[Tuple, List[PyTuple[int, Violation]]],
    ) -> List[PyTuple[int, Violation]]:
        """One partition's stored entries as one list."""
        return [entry for contribution in stored.values() for entry in contribution]

    def apply(
        self, ops: Sequence[PyTuple[str, Tuple]], stats: DeltaStats
    ) -> _StateDelta:
        """Patch partitions with the batch and update touched keys."""
        repivoted = False
        by_key: Dict[tuple, List[PyTuple[str, Tuple]]] = {}
        for kind, t in ops:
            by_key.setdefault(self.key_of(t.values()), []).append((kind, t))
        added: List[PyTuple[int, Violation]] = []
        removed: List[PyTuple[int, Violation]] = []
        touched = self.touched
        for key, key_ops in by_key.items():
            part = touched.get(key)
            if part is None:
                part = touched[key] = self._segment(key)
            tail = part.tail
            first = self.first(part)
            pivot_safe = first is not None and ("remove", first) not in key_ops
            if pivot_safe:
                stats.keys_patched += 1
                tasks = self._applicable(key)
                stored = self.violations.get(key)
                for kind, t in key_ops:
                    if kind == "add":
                        tail[t] = None
                        contribution = self._contribution(tasks, first, t)
                        if contribution:
                            if stored is None:
                                stored = self.violations[key] = {}
                            stored[t] = contribution
                            added.extend(contribution)
                    else:
                        tail.pop(t, None)  # a base row: the store killed it
                        if stored:
                            contribution = stored.pop(t, None)
                            if contribution:
                                removed.extend(contribution)
                if stored is not None and not stored:
                    del self.violations[key]
            else:
                # The pair pivot changes (or the partition is new): replay
                # the ops structurally and re-sweep the partition.
                stats.keys_reevaluated += 1
                for kind, t in key_ops:
                    if kind == "add":
                        tail[t] = None
                    else:
                        tail.pop(t, None)
                group = self.members(part)
                if not group and not part.end:
                    del self.touched[key]  # no base segment to shadow
                held = self.violations.pop(key, None)
                swept = self._evaluate(key, group) if group else {}
                if swept:
                    self.violations[key] = swept
                elif held is None:
                    continue  # clean before and after: nearly every key
                # equal entries or not, they now pair against (and rank
                # by) another pivot, and a re-added witness is a new object
                repivoted = True
                # A partition files each (slot, member) entry once, so
                # with one side empty the other side is the diff, in order.
                new = self._flatten(swept)
                if not held:
                    added.extend(new)
                    continue
                old = self._flatten(held)
                if not new:
                    removed.extend(old)
                    continue
                if old == new:
                    continue
                gained = Counter(new) - Counter(old)
                lost = Counter(old) - Counter(new)
                added.extend(gained.elements())
                removed.extend(lost.elements())
        positions = self._positions
        return (
            [(positions[slot], v) for slot, v in added],
            [(positions[slot], v) for slot, v in removed],
            repivoted or bool(added or removed),
        )


class _InclusionRow:
    """One tableau row of one IND / CIND member, and the violations it
    holds per source partition key (its Xp constants, then X)."""

    __slots__ = (
        "position",
        "dep",
        "ordinal",
        "constants",
        "width",
        "yp_key",
        "reason",
        "violations",
    )

    def __init__(
        self,
        position: int,
        dep: InclusionDependency,
        ordinal: int,
        spec: PyTuple[tuple, tuple, str],
    ) -> None:
        self.constants, self.yp_key, self.reason = spec
        #: where X starts in a partition key
        self.width = len(self.constants)
        self.position = position
        self.dep = dep
        #: the row's place in its state: tableau order within a member
        self.ordinal = ordinal
        #: partition key → its violating source tuples
        self.violations: Dict[tuple, Dict[Tuple, Violation]] = {}

    def violation(self, t: Tuple) -> Violation:
        return Violation(self.dep, [(self.dep.lhs_relation, t)], self.reason)


class _InclusionState(_LayoutState):
    """The tableau rows of one inclusion group's members that read one
    source relation on one signature, Xp + X, on the :class:`_LayoutState`
    base.

    The target side is the group's cached counted index
    (``grouped_key_counts``) as an immutable base plus the counts batches
    have moved since.  A source partition's X projection is provided or
    not for all its members at once, so the build reads the violating
    partitions off the layout (:func:`~repro.engine.kernels.inclusion_ranks`,
    as the executor does) and materialises their rows only.  A batch
    counts its target ops in first, then patches the source keys it
    touched — an added tuple is violating iff its key is not provided
    after the batch, a removed one takes its violation with it — and the
    partitions demanding a target key whose being provided it flipped: a
    gain clears their violations, a loss makes every live member one.
    """

    __slots__ = ("target_name", "yp_of", "y_of", "counts", "moved", "rows")

    def __init__(
        self,
        relation: RelationInstance,
        signature: PyTuple[str, ...],
        arrival: Dict[Tuple, int],
        target: RelationInstance,
        group: InclusionGroup,
    ) -> None:
        super().__init__(relation, signature, arrival)
        self.target_name = group.relation_name
        self.yp_of = key_getter(target.schema, group.group_attrs)
        self.y_of = key_getter(target.schema, group.key_attrs)
        self.counts = target.indexes.grouped_key_counts(
            group.group_attrs, group.key_attrs
        )
        #: (Yp key, Y key) → its count now, once a batch has moved it
        self.moved: Dict[PyTuple[tuple, tuple], int] = {}
        self.rows: List[_InclusionRow] = []

    def add(self, position: int, dep: InclusionDependency) -> None:
        """Take one member's tableau rows, seeded with their violations."""
        layout = self.base
        for spec in dep.inclusion_rows():
            row = _InclusionRow(position, dep, len(self.rows), spec)
            self.rows.append(row)
            provided = self.counts.get(row.yp_key, {})
            for rank in inclusion_ranks(layout, row.constants, provided):
                row.violations[layout.decoded_key(rank)] = {
                    t: row.violation(t)
                    for t in map(self._tuple, layout.group_rows(rank))
                }

    def count(self, yp: tuple, y: tuple) -> int:
        """How many live target rows provide ``y`` under ``yp``."""
        n = self.moved.get((yp, y))
        if n is None:
            return self.counts.get(yp, {}).get(y, 0)
        return n

    def iter_found(self) -> Iterator[PyTuple[int, Violation]]:
        for row in self.rows:
            for held in row.violations.values():
                for violation in held.values():
                    yield row.position, violation

    def ordered_entries(self, out: List[tuple]) -> None:
        """Append ``(position, tableau row, 0, source arrival, violation)``
        per violating source tuple — sorted, the order the executor emits
        in: row by row, sources in relation order."""
        arrival = self._arrival
        for row in self.rows:
            for held in row.violations.values():
                for t, violation in held.items():
                    out.append((row.position, row.ordinal, 0, arrival[t], violation))

    def apply(
        self,
        effective: Mapping[str, Sequence[PyTuple[str, Tuple]]],
        stats: DeltaStats,
    ) -> _StateDelta:
        added: List[PyTuple[int, Violation]] = []
        removed: List[PyTuple[int, Violation]] = []
        before: Dict[PyTuple[tuple, tuple], int] = {}
        for kind, t in effective.get(self.target_name, ()):
            values = t.values()
            target_key = (self.yp_of(values), self.y_of(values))
            n = self.count(*target_key)
            before.setdefault(target_key, n)
            self.moved[target_key] = n + 1 if kind == "add" else n - 1
        by_key: Dict[tuple, List[PyTuple[str, Tuple]]] = {}
        for kind, t in effective.get(self.relation_name, ()):
            by_key.setdefault(self.key_of(t.values()), []).append((kind, t))
        for key, key_ops in by_key.items():
            rows = [row for row in self.rows if row.constants == key[: row.width]]
            if not rows:
                continue  # no row reads this partition
            part = self.touched.get(key)
            if part is None:
                part = self.touched[key] = self._segment(key)
            for kind, t in key_ops:
                if kind == "add":
                    part.tail[t] = None
                else:
                    part.tail.pop(t, None)  # a base row: the store killed it
            if not part.tail and not part.end:
                del self.touched[key]  # no base segment to shadow
            for row in rows:
                bad = not self.count(row.yp_key, key[row.width :])
                held = row.violations.setdefault(key, {})
                for kind, t in key_ops:
                    if kind == "remove":
                        if held.get(t) is not None:
                            removed.append((row.position, held.pop(t)))
                    elif bad:
                        held[t] = row.violation(t)
                        added.append((row.position, held[t]))
                if not held:
                    del row.violations[key]
        for (yp, y), n in before.items():
            provided = self.moved[(yp, y)] > 0
            if provided == (n > 0):
                continue
            stats.inclusion_keys_touched += 1
            for row in self.rows:
                if row.yp_key != yp:
                    continue
                key = row.constants + y
                held = row.violations.pop(key, {})
                if provided:
                    removed.extend((row.position, v) for v in held.values())
                    continue
                for t in self.partition(key):
                    if t not in held:
                        held[t] = row.violation(t)
                        added.append((row.position, held[t]))
                if held:
                    row.violations[key] = held
        # every change to a row's ``violations`` is in one of the two lists
        return added, removed, bool(added or removed)


class DeltaEngine:
    """Maintain the violation set of Σ over a database under batched edits.

    Construction runs one full (indexed-equivalent) detection pass and
    stores it in per-signature form; every :meth:`apply` then updates the
    set in time proportional to the data the batch touches.  The maintained
    multiset of violations is equal to what a fresh
    :func:`~repro.engine.executor.detect_violations_indexed` run would
    report on the current instance (the differential test harness pins this
    against the naive oracle as well).
    """

    def __init__(
        self,
        db: DatabaseInstance,
        dependencies: Sequence[Dependency],
    ) -> None:
        self._db = db
        self._plan = plan_detection(dependencies)
        self.dependencies: List[Dependency] = self._plan.dependencies
        #: cumulative over the engine's life: a rebuild keeps it
        self.stats = DeltaStats()
        self._build()

    def _build(self) -> None:
        """(Re)derive all maintained state from the current instance."""
        db, plan = self._db, self._plan
        # no relation is current until the build completes
        self._versions: Dict[str, int] = {}
        # Arrival numbers: one map per relation whose tuples witness a
        # maintained violation (scan relations, inclusion sources), shared
        # by every state.  Relation order is insertion order with a
        # re-added tuple at the end, so a number that grows with arrival
        # keeps "sorted by arrival" equal to "in relation order" without
        # ever scanning the relation.  The map is sparse: a tuple is
        # numbered when it enters maintained state — a base row by its row
        # id when a state materialises it, every effective add (see
        # ``apply``) by the next number after them.
        sources = {
            dep.lhs_relation
            for group in plan.inclusion_groups
            for _, dep in group.members
        }
        self._arrivals: Dict[str, Dict[Tuple, int]] = {
            name: {}
            for name in sources.union(g.relation_name for g in plan.scan_groups)
        }
        self._scan_states = [
            _ScanState(
                db.relation(group.relation_name),
                group,
                self._arrivals[group.relation_name],
            )
            for group in plan.scan_groups
        ]
        #: per inclusion group, one state per (source, signature) it reads
        states: Dict[tuple, _InclusionState] = {}
        for group in plan.inclusion_groups:
            target = db.relation(group.relation_name)
            for position, dep in group.members:
                source, signature = dep.lhs_relation, inclusion_signature(dep)
                key = (group, source, signature)
                if key not in states:
                    states[key] = _InclusionState(
                        db.relation(source),
                        signature,
                        self._arrivals[source],
                        target,
                        group,
                    )
                states[key].add(position, dep)
        self._inclusion_states = list(states.values())
        self._fallback: List[PyTuple[int, Dependency, List[Violation]]] = [
            (position, dep, list(dep.violations(db))) for position, dep in plan.fallback
        ]
        self._total = sum(1 for _ in self._found())
        self._next_arrival = max((rel.column_store.n_rows for rel in db), default=0)
        #: the column stores under the engine; row ids under the bases are
        #: good while their compaction count stands (``apply``)
        self._stores = [rel.column_store for rel in db]
        self._compactions = self._compaction_count()
        #: names what :meth:`ordered_violations` returns: while it holds,
        #: that list is the same list, object for object.  ``apply``
        #: replaces it iff the batch changed the list; a build — so a
        #: ``refresh()`` too — starts a new one.  Set before ``_versions``
        #: catches up, so whoever sees the engine current sees this epoch.
        self.report_epoch = next(_REPORT_EPOCHS)
        #: (epoch, the sorted list) of the last ``ordered_violations()``
        self._ordered: Optional[PyTuple[int, List[Violation]]] = None
        self._versions = {rel.schema.name: rel.version for rel in db}

    def _states(self) -> List[_ScanState | _InclusionState]:
        """Every scan and inclusion state, in plan order."""
        return [*self._scan_states, *self._inclusion_states]

    def _compaction_count(self) -> int:
        """Total ``ColumnStore.compactions`` over the database."""
        return sum(store.compactions for store in self._stores)

    def _found(self) -> Iterator[PyTuple[int, Violation]]:
        """Every maintained ``(position, violation)``, maintenance order."""
        for state in self._states():
            yield from state.iter_found()
        for position, _, found in self._fallback:
            for violation in found:
                yield position, violation

    # -- introspection ---------------------------------------------------

    @property
    def database(self) -> DatabaseInstance:
        return self._db

    def total_violations(self) -> int:
        return self._total

    def is_clean(self) -> bool:
        return self._total == 0

    def violations(self) -> List[Violation]:
        """The full current violation multiset, grouped per dependency in
        input order.  Order within a dependency is *maintenance* order —
        what the repair loops consume, and the cheapest read; the multiset
        equals a fresh detection's.  :meth:`ordered_violations` is the
        same set in a fresh detection's order."""
        results: List[List[Violation]] = [[] for _ in self.dependencies]
        for position, violation in self._found():
            results[position].append(violation)
        return [v for sub in results for v in sub]

    def ordered_violations(self) -> List[Violation]:
        """The maintained violations, as the list a fresh
        :func:`~repro.engine.executor.detect_violations_indexed` returns.

        The *stored* ``Violation`` objects — same dependency objects, same
        reasons, same witness ``Tuple`` objects in the same orientation —
        sorted into the batch executor's emission order: per dependency
        position; a scan-group member's lookup tasks first, then its sweep
        tasks key-major (partitions by the arrival of their first live
        tuple, then tasks in ``scan_tasks`` order, singles before pairs,
        each by the arrival of its non-pivot witness); an inclusion member
        per tableau row, sources in arrival order; a fallback dependency
        as stored (it is recomputed whole whenever touched).  One sort of
        the violations — O(V log V), never O(rows) —
        and only when :attr:`report_epoch` moved since the last call: the
        sorted list is kept, and every caller gets a copy of its own.
        """
        memo = self._ordered
        if memo is not None and memo[0] == self.report_epoch:
            return list(memo[1])
        entries: List[tuple] = []
        for state in self._states():
            state.ordered_entries(entries)
        entries.sort(key=_REPORT_ORDER)
        results: List[List[Violation]] = [[] for _ in self.dependencies]
        for entry in entries:
            results[entry[0]].append(entry[-1])
        for position, _, found in self._fallback:
            results[position].extend(found)
        ordered = [v for sub in results for v in sub]
        self._ordered = (self.report_epoch, ordered)
        return list(ordered)

    def report(self) -> "DetectionReport":
        """Current violations as a :class:`~repro.cfd.detect.DetectionReport`."""
        from repro.cfd.detect import DetectionReport

        return DetectionReport(self.violations())

    def partition(
        self, relation_name: str, signature: PyTuple[str, ...], key: tuple
    ) -> List[Tuple]:
        """The live tuples of one maintained partition — those whose
        projection on the tracked scan ``signature`` is ``key`` — in
        relation insertion order, as a fresh list: re-read after an
        ``apply``.  Empty when the key has no live tuple or no scan group
        tracks the signature."""
        for state in self._scan_states:
            if state.relation_name == relation_name and state.signature == signature:
                return state.partition(key)
        return []

    # -- maintenance -----------------------------------------------------

    def _stale_relations(self) -> Iterator[RelationInstance]:
        """Relations mutated since the engine last saw them."""
        versions = self._versions
        return (
            relation
            for relation in self._db
            if versions.get(relation.schema.name) != relation.version
        )

    def is_current(self) -> bool:
        """True iff every relation is at the version the engine last saw —
        the maintained state describes the instance as it is now."""
        return next(self._stale_relations(), None) is None

    def _check_versions(self) -> None:
        relation = next(self._stale_relations(), None)
        if relation is not None:
            name = relation.schema.name
            raise StaleEngineError(
                f"relation {name!r} is at version {relation.version}, "
                f"engine expected {self._versions.get(name)}; apply edits "
                "through DeltaEngine.apply or call refresh()"
            )

    def refresh(self) -> None:
        """Rebuild all maintained state from the current instance
        (``stats`` carries on: its counters only ever grow)."""
        self.stats.rebuilds += 1
        self._build()

    def settle(self) -> None:
        """Rebuild iff rows moved under the engine: a relation version it
        did not apply itself (a rollback), or a compaction (renumbered
        rows).  A rebuild that raises leaves the engine stale for good
        (``_build``), for its owner to drop."""
        if not self.is_current() or self._compaction_count() != self._compactions:
            self.refresh()

    def apply(self, changeset: Changeset) -> ViolationDelta:
        """Apply the batch to the database and return the violation delta.

        One transaction: the edit and its maintenance run under one
        :meth:`DatabaseInstance.savepoint`.  If either raises (an update
        targeting an absent tuple, a dependency's check), every row goes
        back where it was before the error propagates, and :meth:`settle`
        rebuilds iff one had moved.  The scan states address base rows by
        id, and a batch is patched after it is applied, so the savepoint
        also holds compaction until the patch is done (the delta is the
        one an engine whose store was nowhere near compacting reports,
        list for list); if a store then compacts, :meth:`settle` rebuilds.
        """
        self._check_versions()
        try:
            with self._db.savepoint() as savepoint:
                try:
                    return self._maintain(changeset.apply_to(self._db))
                except BaseException:
                    savepoint.rollback()
                    raise
        finally:
            self.settle()

    def _maintain(
        self, effective: Dict[str, List[PyTuple[str, Tuple]]]
    ) -> ViolationDelta:
        """Bring the maintained state up to the applied ``effective`` ops."""
        undo = Changeset.inverse_of(effective)
        self.stats.batches += 1
        self.stats.ops_applied += sum(len(ops) for ops in effective.values())

        # Arrival numbers follow the effective ops in *application* order —
        # not the per-key order the scan states patch in: two partitions
        # created by interleaved adds must rank by their first tuples.
        for name, ops in effective.items():
            arrival = self._arrivals.get(name)
            if arrival is not None:
                number = self._next_arrival
                for kind, t in ops:
                    if kind == "add":
                        arrival[t] = number
                        number += 1
                    else:
                        arrival.pop(t, None)
                self._next_arrival = number

        added: List[PyTuple[int, Violation]] = []
        removed: List[PyTuple[int, Violation]] = []
        report_moved = False
        if effective:
            touched = set(effective)
            for state in self._scan_states:
                ops = effective.get(state.relation_name)
                if ops:
                    gained, lost, moved = state.apply(ops, self.stats)
                    added.extend(gained)
                    removed.extend(lost)
                    report_moved |= moved
            for inclusion in self._inclusion_states:
                relations = (inclusion.relation_name, inclusion.target_name)
                if touched.intersection(relations):
                    gained, lost, moved = inclusion.apply(effective, self.stats)
                    added.extend(gained)
                    removed.extend(lost)
                    report_moved |= moved
            for index, (position, dep, old) in enumerate(self._fallback):
                if touched.intersection(dep.relations()):
                    self.stats.fallback_rescans += 1
                    report_moved = True  # a new list of new objects
                    new = list(dep.violations(self._db))
                    self._fallback[index] = (position, dep, new)
                    gained = Counter(new) - Counter(old)
                    lost = Counter(old) - Counter(new)
                    added.extend((position, v) for v in gained.elements())
                    removed.extend((position, v) for v in lost.elements())

        self._total += len(added) - len(removed)
        # judged before the netting below: a delete + insert of an equal
        # witness row nets out of the delta, yet the report now holds the
        # new ``Tuple`` object (and renders it: ``3`` / ``3.0``)
        if report_moved:
            self.report_epoch = next(_REPORT_EPOCHS)
        for rel in self._db:
            self._versions[rel.schema.name] = rel.version
        if added and removed:
            # Net out violations that only existed transiently inside the
            # batch (e.g. insert-then-delete), so the reported delta
            # describes what the batch did to the violation set, not which
            # internal maintenance path happened to run.
            gained = Counter(added)
            lost = Counter(removed)
            added = list((gained - lost).elements())
            removed = list((lost - gained).elements())
        added.sort(key=lambda pv: pv[0])
        removed.sort(key=lambda pv: pv[0])
        return ViolationDelta(
            [v for _, v in added], [v for _, v in removed], undo, self._total
        )

    def probe(self, changeset: Changeset) -> ViolationDelta:
        """Apply, record the delta, and apply its undo — a what-if without
        a copy, but not a clean one: the undo re-adds a deleted row at the
        end of its relation, so the violation *set* comes back while the
        ordered report (and row order) can differ afterwards."""
        delta = self.apply(changeset)
        self.apply(delta.undo)
        return delta

    def __repr__(self) -> str:
        return (
            f"DeltaEngine({len(self.dependencies)} deps, "
            f"{len(self._scan_states)} scan groups, "
            f"{len(self._inclusion_states)} inclusion states, "
            f"{self._total} current violations, {self.stats!r})"
        )
