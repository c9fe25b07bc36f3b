"""Changeset application and DeltaEngine violation maintenance."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from repro.cfd.model import CFD, UNNAMED
from repro.cind.model import CIND
from repro.deps.base import Dependency
from repro.deps.denial import fd_as_denial
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.delta import (
    Changeset,
    DeltaEngine,
    StaleEngineError,
    violation_sequence,
)
from repro.engine.executor import detect_violations_indexed
from repro.errors import DependencyError, DomainError
from repro.relational.columnar import ColumnStore
from repro.relational.domains import INT, STRING
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.tuples import Tuple


def _schemas():
    r = RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])
    s = RelationSchema("S", [("X", STRING), ("Y", STRING)])
    return DatabaseSchema([r, s])


def _db(r_rows=(), s_rows=()):
    return DatabaseInstance(_schemas(), {"R": r_rows, "S": s_rows})


def _counts(violations):
    from collections import Counter

    return Counter((id(v.dependency), v.tuples) for v in violations)


def _assert_in_sync(engine, db, deps):
    assert _counts(engine.violations()) == _counts(
        detect_violations_indexed(db, deps).violations
    )


class RaisingCheck(Dependency):
    """A test-only dependency with no scan tasks — the delta engine re-runs
    its ``violations()`` whenever a batch touches its relation, and so
    does every build — that finds nothing, and raises on each of the
    next ``failures`` calls."""

    def __init__(self, relation: str) -> None:
        self.relation = relation
        self.failures = 0

    def relations(self):
        return (self.relation,)

    def violations(self, db):
        if self.failures:
            self.failures -= 1
            raise RuntimeError("injected: a dependency check failed")
        return iter(())


class TestChangeset:
    def test_effective_ops_follow_set_semantics(self):
        db = _db([("a", "x", "1")])
        existing = db.relation("R").tuples()[0]
        cs = (
            Changeset()
            .insert("R", existing)  # already present: no-op
            .insert("R", ("b", "y", "2"))
            .delete("R", ("z", "z", "9"))  # absent: no-op
        )
        effective = cs.apply_to(db)
        assert [kind for kind, _ in effective["R"]] == ["add"]
        assert len(db.relation("R")) == 2

    def test_update_is_remove_plus_add(self):
        db = _db([("a", "x", "1")])
        t = db.relation("R").tuples()[0]
        effective = Changeset().update("R", t, B="y").apply_to(db)
        assert [kind for kind, _ in effective["R"]] == ["remove", "add"]
        assert db.relation("R").tuples()[0]["B"] == "y"

    def test_update_collapsing_into_existing_records_only_removal(self):
        db = _db([("a", "x", "1"), ("a", "y", "1")])
        t = db.relation("R").tuples()[0]
        effective = Changeset().update("R", t, B="y").apply_to(db)
        assert [kind for kind, _ in effective["R"]] == ["remove"]
        assert len(db.relation("R")) == 1

    def test_update_of_absent_tuple_raises(self):
        db = _db([("a", "x", "1")])
        ghost = Tuple(db.relation("R").schema, ("q", "q", "q"))
        with pytest.raises(KeyError):
            Changeset().update("R", ghost, B="y").apply_to(db)

    def test_noop_update_records_nothing(self):
        db = _db([("a", "x", "1")])
        t = db.relation("R").tuples()[0]
        assert Changeset().update("R", t, B="x").apply_to(db) == {}

    def test_inverse_restores_instance(self):
        db = _db([("a", "x", "1"), ("b", "y", "2")])
        before = {t.values() for t in db.relation("R")}
        t = db.relation("R").tuples()[0]
        cs = Changeset().delete("R", t).insert("R", ("c", "z", "3"))
        effective = cs.apply_to(db)
        Changeset.inverse_of(effective).apply_to(db)
        assert {t.values() for t in db.relation("R")} == before


class TestScanMaintenance:
    def _deps(self):
        return [
            FD("R", ["A"], ["B"]),
            CFD("R", ["A"], ["C"], [{"A": "k", "C": "ok"}]),
        ]

    def test_insert_creates_pair_violation(self):
        deps = self._deps()
        db = _db([("a", "x", "1")])
        engine = DeltaEngine(db, deps)
        assert engine.is_clean()
        delta = engine.apply(Changeset().insert("R", ("a", "y", "2")))
        assert len(delta.added) == 1 and not delta.removed
        assert not delta.clean_after
        _assert_in_sync(engine, db, deps)

    def test_delete_resolves_violation(self):
        deps = self._deps()
        db = _db([("a", "x", "1"), ("a", "y", "2")])
        engine = DeltaEngine(db, deps)
        assert engine.total_violations() == 1
        victim = db.relation("R").tuples()[1]
        delta = engine.apply(Changeset().delete("R", victim))
        assert len(delta.removed) == 1 and not delta.added
        assert delta.clean_after
        _assert_in_sync(engine, db, deps)

    def test_cell_update_moves_tuple_between_partitions(self):
        deps = self._deps()
        db = _db([("a", "x", "1"), ("b", "x", "2")])
        engine = DeltaEngine(db, deps)
        t = db.relation("R").tuples()[1]
        delta = engine.apply(Changeset().update("R", t, A="a", B="y"))
        assert len(delta.added) == 1
        _assert_in_sync(engine, db, deps)

    def test_constant_cfd_single_tuple_violation(self):
        deps = self._deps()
        db = _db()
        engine = DeltaEngine(db, deps)
        delta = engine.apply(Changeset().insert("R", ("k", "b", "bad")))
        assert len(delta.added) == 1
        fixed = engine.apply(
            Changeset().update("R", db.relation("R").tuples()[0], C="ok")
        )
        assert len(fixed.removed) == 1 and fixed.clean_after
        _assert_in_sync(engine, db, deps)

    def test_only_touched_keys_maintained(self):
        deps = [FD("R", ["A"], ["B"])]
        db = _db([(f"k{i}", "x", str(i)) for i in range(50)])
        engine = DeltaEngine(db, deps)
        # Insert into a live group whose first tuple survives: O(1) patch.
        engine.apply(Changeset().insert("R", ("k0", "y", "new")))
        assert engine.stats.keys_patched == 1
        assert engine.stats.keys_reevaluated == 0
        # Deleting a group's first tuple moves the pair pivot: full re-sweep
        # of that one partition.
        engine.apply(Changeset().delete("R", db.relation("R").tuples()[1]))
        assert engine.stats.keys_reevaluated == 1


class TestInclusionMaintenance:
    def _deps(self):
        return [
            IND("R", ["A"], "S", ["X"]),
            CIND(
                "R",
                ["C"],
                "S",
                ["X"],
                lhs_pattern_attrs=["B"],
                rhs_pattern_attrs=["Y"],
                tableau=[{"B": "go", "Y": "p"}],
            ),
        ]

    def test_source_insert_demands_missing_key(self):
        deps = self._deps()
        db = _db([], [("a", "p")])
        engine = DeltaEngine(db, deps)
        delta = engine.apply(Changeset().insert("R", ("z", "stop", "1")))
        assert len(delta.added) == 1  # IND violated, CIND not (pattern off)
        _assert_in_sync(engine, db, deps)

    def test_target_insert_resolves_violations(self):
        deps = self._deps()
        db = _db([("z", "go", "q")], [("z", "p")])
        engine = DeltaEngine(db, deps)
        assert engine.total_violations() == 1  # CIND: key ("q",) not provided
        delta = engine.apply(Changeset().insert("S", ("q", "p")))
        assert len(delta.removed) == 1 and delta.clean_after
        _assert_in_sync(engine, db, deps)

    def test_target_delete_strands_demanders(self):
        deps = self._deps()
        db = _db([("a", "go", "a")], [("a", "p")])
        engine = DeltaEngine(db, deps)
        assert engine.is_clean()
        provider = db.relation("S").tuples()[0]
        delta = engine.apply(Changeset().delete("S", provider))
        assert len(delta.added) == 2  # IND and CIND both strand ("a", go, a)
        _assert_in_sync(engine, db, deps)

    def test_second_provider_keeps_key_alive(self):
        deps = [IND("R", ["A"], "S", ["X"])]
        db = _db([("a", "x", "1")], [("a", "p"), ("a", "q")])
        engine = DeltaEngine(db, deps)
        delta = engine.apply(Changeset().delete("S", db.relation("S").tuples()[0]))
        assert not delta.added and delta.clean_after
        _assert_in_sync(engine, db, deps)

    def test_insert_then_delete_in_one_batch_is_net_noop(self):
        deps = self._deps()
        db = _db([], [("a", "p")])
        engine = DeltaEngine(db, deps)
        cs = Changeset().insert("R", ("z", "stop", "1")).delete("R", ("z", "stop", "1"))
        delta = engine.apply(cs)
        assert not delta.added and not delta.removed and delta.clean_after
        _assert_in_sync(engine, db, deps)


class TestFallbackAndGuards:
    def test_fallback_dependency_rescanned_only_when_touched(self):
        fd = FD("R", ["A"], ["B"])
        deps = [fd_as_denial(fd)]
        db = _db([("a", "x", "1")], [("s", "t")])
        engine = DeltaEngine(db, deps)
        engine.apply(Changeset().insert("S", ("u", "v")))
        assert engine.stats.fallback_rescans == 0
        delta = engine.apply(Changeset().insert("R", ("a", "y", "2")))
        assert engine.stats.fallback_rescans == 1
        assert delta.added and len(delta.added) == delta.remaining

    def test_failed_batch_rolls_back_and_engine_stays_consistent(self):
        deps = [FD("R", ["A"], ["B"])]
        db = _db([("a", "x", "1")])
        engine = DeltaEngine(db, deps)
        ghost = Tuple(db.relation("R").schema, ("q", "q", "q"))
        bad = Changeset().insert("R", ("b", "y", "2")).update("R", ghost, B="z")
        with pytest.raises(KeyError):
            engine.apply(bad)
        # The applied prefix (the insert) was rolled back...
        assert {t.values() for t in db.relation("R")} == {("a", "x", "1")}
        # ...and the engine still answers correctly afterwards.
        delta = engine.apply(Changeset().insert("R", ("a", "y", "2")))
        assert len(delta.added) == 1
        _assert_in_sync(engine, db, deps)

    @pytest.mark.parametrize(
        "failure, rebuilds",
        [("first-op", 0), ("maintenance", 1)],
    )
    def test_a_failed_apply_rebuilds_iff_rows_moved(self, failure, rebuilds):
        """A failed batch — its edit or its maintenance — is one
        transaction: every row goes back in place, the report comes back
        list for list, and the engine rebuilds once iff a row had moved
        under it: a batch whose first op fails moved none (one failing
        later is ``test_partition_overlay``'s counters test)."""
        check = RaisingCheck("R")
        deps = [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"]), check]
        db = _db([("a", "x", "1"), ("a", "y", "2"), ("b", "x", "3")], [("a", "p")])
        engine = DeltaEngine(db, deps)
        engine.apply(Changeset().insert("R", ("c", "z", "4")))
        relation = db.relation("R")
        rows = relation.tuples()
        report = violation_sequence(engine.ordered_violations())
        assert len(report) == 3
        ghost = Tuple(relation.schema, ("q", "q", "q"))
        if failure == "maintenance":
            bad = Changeset().delete("R", rows[0]).insert("R", ("b", "w", "5"))
            check.failures, error = 1, RuntimeError
        else:
            bad = Changeset().update("R", ghost, B="z").insert("R", ("b", "w", "5"))
            error = KeyError
        with pytest.raises(error):
            engine.apply(bad)
        assert engine.stats.rebuilds == rebuilds and engine.is_current()
        assert all(a is b for a, b in zip(relation.tuples(), rows, strict=True))
        assert violation_sequence(engine.ordered_violations()) == report
        engine.apply(Changeset().delete("R", rows[1]))
        assert violation_sequence(engine.ordered_violations()) == violation_sequence(
            detect_violations_indexed(db, deps).violations
        )

    def test_external_mutation_detected(self):
        db = _db([("a", "x", "1")])
        engine = DeltaEngine(db, [FD("R", ["A"], ["B"])])
        db.relation("R").add(("b", "y", "2"))
        with pytest.raises(StaleEngineError):
            engine.apply(Changeset().insert("R", ("c", "z", "3")))
        engine.refresh()
        assert engine.apply(Changeset().insert("R", ("c", "z", "3"))).clean_after

    def test_probe_leaves_state_unchanged(self):
        deps = [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"])]
        db = _db([("a", "x", "1")], [("a", "p")])
        engine = DeltaEngine(db, deps)
        before = {t.values() for t in db.relation("R")}
        delta = engine.probe(Changeset().insert("R", ("z", "y", "2")))
        assert len(delta.added) == 1  # IND orphan; FD untouched
        assert {t.values() for t in db.relation("R")} == before
        assert engine.is_clean()
        _assert_in_sync(engine, db, deps)

    def test_undo_of_delta_restores_violation_set(self):
        deps = [FD("R", ["A"], ["B"])]
        db = _db([("a", "x", "1"), ("a", "y", "2")])
        engine = DeltaEngine(db, deps)
        delta = engine.apply(Changeset().delete("R", db.relation("R").tuples()[0]))
        assert delta.clean_after
        back = engine.apply(delta.undo)
        assert back.remaining == 1
        _assert_in_sync(engine, db, deps)

    def test_report_matches_detect(self):
        deps = [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"])]
        db = _db([("a", "x", "1"), ("a", "y", "2")], [])
        engine = DeltaEngine(db, deps)
        report = engine.report()
        assert report.total == engine.total_violations() == 3


# --------------------------------------------------------------------------
# apply_to against its reference
# --------------------------------------------------------------------------


def reference_apply_to(changeset, db):
    """``Changeset.apply_to`` in its ask-then-edit form — ``t in relation``
    before every ``add`` / ``remove`` — kept as the oracle the one-lookup
    form must match: same effective ops, same row order, same rollback.
    A failure rebuilds every relation the prefix touched from the rows it
    held before, in their order."""
    before = {relation.schema.name: relation.tuples() for relation in db}
    effective = {}
    try:
        for kind, rel_name, payload in changeset._ops:
            relation = db.relation(rel_name)
            ops = effective.setdefault(rel_name, [])
            if kind == "insert":
                t = Changeset._coerce(relation, payload)
                if t not in relation:
                    relation.add(t)
                    ops.append(("add", t))
            elif kind == "delete":
                t = Changeset._coerce(relation, payload)
                if t in relation:
                    relation.remove(t)
                    ops.append(("remove", t))
            else:
                old, cells = payload
                old = Changeset._coerce(relation, old)
                if old not in relation:
                    raise KeyError(f"update target {old!r} not in {rel_name}")
                new = old.replace(**cells)
                if new == old:
                    continue
                relation.remove(old)
                ops.append(("remove", old))
                if new not in relation:
                    relation.add(new)
                    ops.append(("add", new))
    except Exception:
        for rel_name in effective:
            relation = db.relation(rel_name)
            for t in relation.tuples():
                relation.remove(t)
            for t in before[rel_name]:
                relation.add(t)
        raise
    return {rel: ops for rel, ops in effective.items() if ops}


EDIT_SCHEMA = RelationSchema("E", [("K", STRING), ("V", STRING), ("N", INT)])
_KEYS, _VALS, _NUMS = ("a", "b", "c", "d"), ("x", "y"), (0, 1)


def edit_db(rows):
    """A one-relation database over ``EDIT_SCHEMA`` holding ``rows``."""
    db = DatabaseInstance(DatabaseSchema([EDIT_SCHEMA]))
    db.adopt("E", RelationInstance(EDIT_SCHEMA, rows))
    return db


def random_edit_case(rng):
    """Seeded ``(rows, changeset, carried)`` over a 16-row universe, so
    every set-semantics corner comes up: duplicate inserts, absent deletes,
    no-op and colliding updates, updates of an absent row and bad-typed
    cells.  Payloads are ``Tuple``s, value tuples or mappings; ``carried``
    holds the ``id`` of every ``Tuple`` the changeset itself carries."""
    def row():
        return (rng.choice(_KEYS), rng.choice(_VALS), rng.choice(_NUMS))

    def payload():
        values = row()
        shape = rng.randrange(3)
        if shape == 0:
            return Tuple(EDIT_SCHEMA, values)
        if shape == 1:
            return values
        return dict(zip(EDIT_SCHEMA.attribute_names, values))

    rows = list(dict.fromkeys(row() for _ in range(rng.randrange(0, 12))))
    changeset = Changeset()
    carried = set()
    for _ in range(rng.randrange(1, 12)):
        target = payload()
        if isinstance(target, Tuple):
            carried.add(id(target))
        kind = rng.randrange(4)
        if kind == 0:
            changeset.insert("E", target)
        elif kind == 1:
            changeset.delete("E", target)
        else:
            cells = {"V": rng.choice(_VALS)}
            if rng.randrange(3) == 0:
                cells["N"] = rng.choice(_NUMS)
            if rng.randrange(12) == 0:
                cells["N"] = "not-an-int"  # DomainError, if the row is there
            changeset.update("E", target, **cells)
    return rows, changeset, carried


def assert_apply_to_matches_reference(rows, changeset, carried):
    """Run both forms on twin databases and compare everything a caller
    can observe: the outcome (ops or error), row order, ``version``."""
    def identity(effective):
        return {
            rel: [
                (kind, t.values(), id(t) if id(t) in carried else None)
                for kind, t in ops
            ]
            for rel, ops in effective.items()
        }

    outcomes = []
    for apply in (reference_apply_to, Changeset.apply_to):
        db = edit_db(rows)
        relation = db.relation("E")
        version = relation.version
        try:
            effective = apply(changeset, db)
        except (KeyError, DomainError) as exc:
            # the prefix was rolled back: the same rows, in their order
            assert relation.to_rows() == rows
            outcomes.append((type(exc), relation.to_rows()))
        else:
            n_ops = sum(map(len, effective.values()))
            assert relation.version == version + n_ops
            outcomes.append((identity(effective), relation.to_rows()))
    assert outcomes[0] == outcomes[1]
    return outcomes[1][0]


class TestApplyToAgainstReference:
    def test_random_changesets(self):
        rng = random.Random(20)
        seen = Counter()
        for _ in range(400):
            rows, changeset, carried = random_edit_case(rng)
            outcome = assert_apply_to_matches_reference(rows, changeset, carried)
            seen[outcome if isinstance(outcome, type) else "ok"] += 1
        # the corpus reaches every way an application can end
        assert seen["ok"] > 50 and seen[KeyError] > 50 and seen[DomainError] > 0

    def test_a_carried_tuple_is_the_one_recorded(self):
        t = Tuple(EDIT_SCHEMA, ("a", "x", 0))
        db = edit_db([])
        added = Changeset().insert("E", t).apply_to(db)
        assert added["E"][0][1] is t and db.relation("E").tuples()[0] is t
        removed = Changeset().delete("E", t).apply_to(db)
        assert removed["E"][0][1] is t

    def test_absent_target_is_a_key_error_before_the_cell_is_checked(self):
        db = edit_db([("a", "x", 0), ("b", "y", 1)])
        relation = db.relation("E")
        changeset = (
            Changeset()
            .delete("E", ("a", "x", 0))
            .update("E", ("c", "x", 0), N="not-an-int")
        )
        with pytest.raises(KeyError):
            changeset.apply_to(db)
        assert relation.to_rows() == [("a", "x", 0), ("b", "y", 1)]
        with pytest.raises(DomainError):
            Changeset().update("E", ("b", "y", 1), N="not-an-int").apply_to(db)
        assert relation.to_rows() == [("a", "x", 0), ("b", "y", 1)]


class TestStrictOpKeys:
    """``Changeset.from_dict`` reads each op's keys strictly: what
    ``to_dict`` writes (so every WAL record) parses back, and a key the
    op's kind does not read is an error naming the op and the key."""

    def test_to_dict_parses_back(self):
        changeset = (
            Changeset()
            .insert("E", {"K": "a", "V": "x", "N": 0})
            .delete("E", ("b", "y", 1))
            .update("E", {"K": "a", "V": "x", "N": 0}, V="y")
        )
        document = changeset.to_dict()
        assert Changeset.from_dict(document).to_dict() == document

    @pytest.mark.parametrize(
        "op, unknown",
        [
            ({"op": "insert", "cells": {"V": "y"}}, "(insert) has unknown key(s) ['cells']"),
            ({"op": "delete", "cells": {"V": "y"}}, "(delete) has unknown key(s) ['cells']"),
            ({"op": "update", "cells": {"V": "y"}, "to": 1}, "(update) has unknown key(s) ['to']"),
        ],
    )
    def test_unknown_key_is_named(self, op, unknown):
        row = {"K": "a", "V": "x", "N": 0}
        ops = [{"op": "delete", "relation": "E", "row": row}]
        ops.append({"relation": "E", "row": row, **op})
        with pytest.raises(DependencyError, match=re.escape(f"op #1 {unknown}")):
            Changeset.from_dict({"ops": ops})


class TestApplicableTable:
    """A scan state whose conditional rows are all constants on the same
    key positions answers ``_applicable`` from one table lookup — the
    tasks the per-row check chooses, in its order; any other shape keeps
    the per-row check."""

    KEYS = [(k, v, n) for k in _KEYS + ("z",) for v in _VALS for n in _NUMS]

    @staticmethod
    def _state(tableau):
        rule = CFD("E", ["K", "N"], ["V"], tableau, name="t")
        engine = DeltaEngine(edit_db([("a", "x", 0), ("b", "y", 1)]), [rule])
        (state,) = engine._scan_states
        return state

    @staticmethod
    def _checked(state, key):
        table, state._table = state._table, None
        try:
            return state._applicable(key)
        finally:
            state._table = table

    def test_table_answers_what_the_check_does(self):
        wild = {"K": UNNAMED, "N": UNNAMED, "V": UNNAMED}
        state = self._state(
            [
                dict(wild, K="a", V="x"),
                wild,
                dict(wild, K="b"),
                dict(wild, K="a"),  # a second row on "a": both tasks
                dict(wild, K="c", V="y"),
            ]
        )
        assert state._table is not None
        key_of = state.key_of
        for key in map(key_of, self.KEYS):
            assert state._applicable(key) == self._checked(state, key), key
        chosen = state._applicable(key_of(("a", "x", 1)))
        assert [slot for slot, _ in chosen] == [2, 0, 6]
        assert state._applicable(key_of(("z", "x", 1))) == state._universal

    @pytest.mark.parametrize(
        "rows",
        [
            [{"K": "a", "N": UNNAMED}, {"K": UNNAMED, "N": 0}],  # two shapes
            [{"K": "a", "N": 0}, {"K": "b", "N": UNNAMED}],  # a lookup row
        ],
    )
    def test_other_shapes_keep_the_check(self, rows):
        state = self._state([{"V": UNNAMED, **row} for row in rows])
        assert state._table is None
        for key in map(state.key_of, self.KEYS):
            assert state._applicable(key) == self._checked(state, key)


class TestOneLookupPerEdit:
    """The edit decides membership, so the column store is asked where a
    row is once per insert / delete and at most twice per update: the
    target is located once and that row is killed, then the replacement
    is added."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        real = ColumnStore.probe

        def counting(store, values):
            calls.append(values)
            return real(store, values)

        monkeypatch.setattr(ColumnStore, "probe", counting)
        return calls

    EDITS = {
        "insert-new": (lambda: Changeset().insert("E", ("n", "x", 0)), 1),
        "insert-duplicate": (lambda: Changeset().insert("E", ("a", "x", 0)), 1),
        "delete-present": (lambda: Changeset().delete("E", ("a", "x", 0)), 1),
        "delete-absent": (lambda: Changeset().delete("E", ("n", "x", 0)), 1),
        "update": (lambda: Changeset().update("E", ("a", "x", 0), V="z"), 2),
        "update-colliding": (
            lambda: Changeset().update("E", ("a", "x", 0), V="y"), 2,
        ),
        "update-noop": (lambda: Changeset().update("E", ("a", "x", 0), V="x"), 1),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_probes_per_op(self, edit, probes):
        build, expected = self.EDITS[edit]
        db = edit_db([("a", "x", 0), ("a", "y", 0)])
        del probes[:]
        build().apply_to(db)
        assert len(probes) == expected

    def test_relation_edits_probe_once(self, probes):
        relation = edit_db([("a", "x", 0), ("b", "y", 1)]).relation("E")
        first, second = relation.tuples()
        for edit in (
            lambda: relation.remove(first),
            lambda: relation.discard(second),
            lambda: relation.discard(first),  # already gone
            lambda: first in relation,
        ):
            del probes[:]
            edit()
            assert len(probes) == 1
        with pytest.raises(KeyError):
            relation.remove(first)

    def test_stream_shaped_changeset(self, probes):
        """25 inserts / 25 deletes / 50 updates, the ``durable_stream``
        changeset of ``benchmarks/e2e``: 25 + 25 + 2 * 50 lookups, and
        one per op for the undo (375 and 375 when every step asked first,
        200 and 150 while an update looked its target up twice)."""
        names = EDIT_SCHEMA.attribute_names
        rows = [(f"k{i}", "x", i) for i in range(200)]
        db = edit_db(rows)
        changeset = Changeset()
        for i in range(25):
            changeset.insert("E", dict(zip(names, (f"new{i}", "x", i))))
        for row in rows[:25]:
            changeset.delete("E", dict(zip(names, row)))
        for row in rows[25:75]:
            changeset.update("E", dict(zip(names, row)), V="y")
        del probes[:]
        effective = changeset.apply_to(db)
        assert len(probes) == 150
        undo = Changeset.inverse_of(effective)
        assert len(undo) == 150
        del probes[:]
        undo.apply_to(db)
        assert len(probes) == 150
        assert sorted(db.relation("E").to_rows()) == sorted(rows)


class _VersionLog(dict):
    """A ``DeltaEngine._versions`` that notes the engine's epoch at every
    write after which the engine is current."""

    def __init__(self, engine, items) -> None:
        super().__init__(items)
        self.engine = engine

    def __setitem__(self, name, version) -> None:
        super().__setitem__(name, version)
        self.note()

    def note(self) -> None:
        if self.engine.is_current():
            self.engine.seen.append(getattr(self.engine, "report_epoch", None))


class _WatchedEngine(DeltaEngine):
    """A delta engine whose every ``_versions`` — the dict a build assigns
    and each entry ``apply`` writes — is a :class:`_VersionLog`."""

    def __init__(self, db, deps) -> None:
        self.seen = []
        super().__init__(db, deps)

    def __setattr__(self, name, value) -> None:
        if name == "_versions":
            value = _VersionLog(self, value)
        super().__setattr__(name, value)
        if name == "_versions":
            value.note()


class TestEpochMovesBeforeVersions:
    """The served read cache keys on ``report_epoch`` and checks it
    without a lock, while a write runs: so the moment the engine turns
    current after a report-changing ``apply`` or a rebuild, the epoch
    must already be the new one (``repro.server.aio``'s argument)."""

    def _engine(self):
        deps = [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"])]
        db = _db([("a", "x", "1"), ("b", "x", "2")], [("a", "-"), ("b", "-")])
        return db, _WatchedEngine(db, deps)

    def _turned_current_at(self, engine, step) -> int:
        old, engine.seen = engine.report_epoch, []
        step()
        assert engine.seen, "the engine never turned current"
        assert set(engine.seen) == {engine.report_epoch}
        return old

    def test_a_build_sets_the_epoch_first(self):
        _, engine = self._engine()
        assert engine.seen == [engine.report_epoch]

    def test_a_report_changing_apply_moves_it_first(self):
        db, engine = self._engine()
        # both relations move: an FD pair and an IND source appear
        old = self._turned_current_at(
            engine,
            lambda: engine.apply(
                Changeset().insert("R", ("a", "y", "3")).delete("S", ("b", "-"))
            ),
        )
        assert engine.report_epoch != old

    def test_a_neutral_apply_keeps_it(self):
        _, engine = self._engine()
        old = self._turned_current_at(
            engine, lambda: engine.apply(Changeset().insert("S", ("c", "-")))
        )
        assert engine.report_epoch == old

    def test_a_rebuild_moves_it_first(self):
        db, engine = self._engine()
        old = self._turned_current_at(engine, engine.refresh)
        assert engine.report_epoch != old
        # a failed apply that moved a row rolls back and rebuilds
        failing = Changeset().insert("R", ("c", "z", "4"))
        failing.update("R", ("q", "q", "q"), B="w")  # no such row
        old = engine.report_epoch
        engine.seen = []
        with pytest.raises(KeyError):
            engine.apply(failing)
        assert engine.stats.rebuilds == 2
        assert engine.seen and set(engine.seen) == {engine.report_epoch} != {old}
