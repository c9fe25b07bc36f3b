"""Columnar storage edge cases: the encoded store under stress.

Covers the corners the differential corpus cannot reach by construction:
empty relations, fully-deleted bitmaps followed by re-insertion,
dictionary growth past 2**16 distinct values, cross-type equality
congruence (interning is dict-key equality), and
``Tuple`` materialization round-trip identity.
"""

import pytest

from repro.errors import DomainError
from repro.relational.columnar import COMPACT_MIN_DEAD, ColumnStore
from repro.relational.domains import FLOAT, INT, STRING
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.tuples import Tuple
from tests.relational.reference import ReferenceRelation


@pytest.fixture
def schema():
    return RelationSchema("R", [("a", INT), ("b", STRING)])


@pytest.fixture
def columnar(schema):
    return RelationInstance(schema)


class TestEmptyRelation:
    def test_empty_basics(self, columnar):
        assert len(columnar) == 0
        assert list(columnar) == []
        assert columnar.tuples() == []
        assert columnar.to_rows() == []
        assert (1, "x") not in [t.values() for t in columnar]

    def test_empty_projection_and_domain(self, columnar):
        assert columnar.project_values(["a"]) == []
        assert columnar.active_domain("b") == []

    def test_empty_copy_independent(self, columnar):
        clone = columnar.copy()
        clone.add((1, "x"))
        assert len(clone) == 1
        assert len(columnar) == 0

    def test_empty_group_layout(self, columnar):
        layout = columnar.indexes.group_layout(("a",))
        assert layout.n_groups == 0
        assert layout.rank_of_key((1,)) is None


class TestAllDeletedThenReinsert:
    def test_delete_everything_then_reinsert(self, columnar):
        rows = [(i, f"s{i % 7}") for i in range(300)]
        columnar.extend_rows(rows)
        for t in columnar.tuples():
            columnar.remove(t)
        assert len(columnar) == 0
        assert list(columnar) == []
        # Deleting everything crosses the compaction threshold repeatedly:
        # at most the compaction floor of dead rows may linger physically,
        # and membership must stay consistent.
        store = columnar.column_store
        assert store.dead <= 64
        assert store.n_rows == store.dead
        columnar.extend_rows(rows)
        assert len(columnar) == 300
        assert columnar.to_rows() == rows

    def test_interleaved_delete_reinsert_membership(self, columnar):
        for i in range(200):
            columnar.add((i, "x"))
        victims = [t for t in columnar.tuples() if t["a"] % 2 == 0]
        for t in victims:
            columnar.remove(t)
        assert len(columnar) == 100
        # Re-inserting a deleted row must succeed (it is genuinely absent),
        # and duplicate-inserting a surviving row must stay a no-op.
        columnar.add((0, "x"))
        columnar.add((1, "x"))
        assert len(columnar) == 101
        values = {t.values() for t in columnar}
        assert (0, "x") in values and (1, "x") in values

    def test_remove_absent_raises(self, columnar):
        columnar.add((1, "x"))
        with pytest.raises(KeyError):
            columnar.remove(Tuple(columnar.schema, (2, "y")))
        columnar.discard(Tuple(columnar.schema, (2, "y")))  # no-op
        assert len(columnar) == 1


class TestSavepoint:
    """``DatabaseInstance.savepoint``: a rollback puts every row back where
    it was — a deleted one in its old place with the ``Tuple`` it cached,
    an added one cut off the end — and compaction waits for the outermost
    savepoint to close."""

    @staticmethod
    def _db(schema, n_rows):
        db = DatabaseInstance(DatabaseSchema([schema]))
        relation = db.relation(schema.name)
        for i in range(n_rows):
            relation.add((i, f"v{i}"))
        return db, relation

    def test_a_rollback_puts_every_row_back_in_place(self, schema):
        db, relation = self._db(schema, 4)
        kept = relation.tuples()
        version = relation.version
        with db.savepoint() as savepoint:
            relation.remove(kept[0])
            relation.add((9, "z"))
            relation.remove(kept[2])
            relation.add(kept[0].values())  # a re-add goes to the end
            savepoint.rollback()
        assert all(a is b for a, b in zip(relation.tuples(), kept, strict=True))
        assert relation.version > version
        store = relation.column_store
        assert (len(store.alive), store.dead, store.edits) == (4, 0, None)
        relation.add((9, "z"))
        assert relation.to_rows()[-1] == (9, "z")

    def test_savepoints_nest(self, schema):
        db, relation = self._db(schema, 3)
        kept = relation.tuples()
        with db.savepoint() as outer:
            relation.remove(kept[1])
            with db.savepoint() as inner:
                relation.remove(kept[0])
                relation.add((7, "x"))
                inner.rollback()
            assert relation.to_rows() == [(0, "v0"), (2, "v2")]
            outer.rollback()
        assert relation.tuples() == kept

    def test_compaction_waits_for_the_outermost_savepoint(self, schema):
        db, relation = self._db(schema, 3 * COMPACT_MIN_DEAD)
        store = relation.column_store
        doomed = relation.tuples()[: 2 * COMPACT_MIN_DEAD]
        with db.savepoint():
            with db.savepoint():
                for t in doomed:
                    relation.remove(t)
            assert (store.compactions, store.dead) == (0, 2 * COMPACT_MIN_DEAD)
        assert (store.compactions, store.dead) == (1, 0)


class TestDictionaryGrowth:
    def test_past_two_to_sixteen_distinct_values(self):
        schema = RelationSchema("wide", [("k", INT), ("tag", STRING)])
        instance = RelationInstance(schema)
        n = (1 << 16) + 500
        instance.extend_rows((i, f"t{i % 3}") for i in range(n))
        assert len(instance) == n
        store = instance.column_store
        assert len(store.decode[0]) == n  # one code per distinct key
        assert len(store.decode[1]) == 3
        # Codes past 2**16 still round-trip and stay probeable.
        assert store.probe((n - 1, f"t{(n - 1) % 3}")) is not None
        past = (1 << 16) + 64  # a key whose code is beyond 2**16
        assert store.find_row(store.probe((past, f"t{past % 3}"))) is not None
        assert instance.add((past, f"t{past % 3}"))  # duplicate: no growth
        assert len(instance) == n

    def test_group_layout_survives_wide_dictionaries(self):
        schema = RelationSchema("wide", [("k", INT), ("tag", STRING)])
        instance = RelationInstance(schema)
        n = (1 << 16) + 10
        instance.extend_rows((i, f"t{i % 5}") for i in range(n))
        layout = instance.indexes.group_layout(("tag",))
        assert layout.n_groups == 5
        total = sum(int(layout.sizes[rank]) for rank in range(5))
        assert total == n


class TestEqualityCongruence:
    def test_one_code_for_cross_type_equal_values(self):
        schema = RelationSchema("S", [("v", FLOAT)])
        store = ColumnStore(schema)
        codes_int = store.intern_row((1,))
        assert store.probe((1.0,)) == codes_int
        assert store.probe((True,)) == codes_int
        assert store.probe((0.0,)) is None
        codes_zero = store.intern_row((0.0,))
        assert store.probe((-0.0,)) == codes_zero
        assert store.probe((False,)) == codes_zero

    def test_congruence_matches_dict_key_equality(self):
        # The interning dictionaries and the hash partitions (dicts keyed on
        # value tuples) must agree on which values are "the same", or the
        # columnar kernels would split a partition the hash index keeps whole.
        schema = RelationSchema("S", [("v", FLOAT)])
        store = ColumnStore(schema)
        for group in ((1, 1.0, True), (0.0, -0.0)):
            assert len({(value,): None for value in group}) == 1
            codes = {tuple(store.intern_row((value,))) for value in group}
            assert len(codes) == 1, group

    def test_mixed_numeric_keys_detect_equally(self):
        # Rows carrying int 1 and float 1.0 share the logical partition
        # {A: 1}: splitting it hides the FD pair violation and fabricates
        # an IND violation.  Kernels, hash partitions and the maintained
        # state must all keep it whole.
        from repro.deps.fd import FD
        from repro.deps.ind import IND
        from repro.engine.delta import DeltaEngine, violation_multiset
        from repro.engine.executor import detect_violations_indexed
        from repro.engine.naive import detect_violations_naive
        from repro.relational.instance import DatabaseInstance
        from repro.relational.schema import DatabaseSchema

        schema = DatabaseSchema(
            [
                RelationSchema("R", [("A", FLOAT), ("B", STRING)]),
                RelationSchema("S", [("X", FLOAT)]),
            ]
        )
        db = DatabaseInstance(schema)
        db.relation("R").add((1, "x"))
        db.relation("R").add((1.0, "y"))  # same A-partition as int 1
        db.relation("R").add((2.5, "z"))
        db.relation("S").add((1.0,))  # provides the key for int 1 demands
        deps = [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"])]
        naive = violation_multiset(detect_violations_naive(db, deps).violations)
        assert sum(naive.values()) == 2  # the FD pair, and 2.5 unprovided
        indexed = detect_violations_indexed(db, deps).violations
        assert violation_multiset(indexed) == naive
        assert violation_multiset(DeltaEngine(db, deps).violations()) == naive

    def test_first_seen_representative_wins(self):
        schema = RelationSchema("S", [("v", FLOAT)])
        instance = RelationInstance(schema)
        instance.add((1,))
        instance.add((1.0,))  # duplicate under ==; first-seen int survives
        assert len(instance) == 1
        (value,) = instance.to_rows()[0]
        assert value == 1 and isinstance(value, int)


class TestTupleRoundTrip:
    def test_materialization_identity(self, columnar):
        added = columnar.add((1, "x"))
        assert columnar.tuples()[0] is added
        assert columnar.tuples()[0] is columnar.tuples()[0]

    def test_added_tuple_object_is_preserved(self, columnar, schema):
        original = Tuple(schema, (7, "q"))
        returned = columnar.add(original)
        assert returned is original
        assert list(columnar)[0] is original

    def test_lazy_materialization_round_trips_values(self, columnar):
        rows = [(i, f"s{i}") for i in range(50)]
        columnar.extend_rows(rows)  # no Tuples built yet
        materialized = [t.values() for t in columnar]
        assert materialized == rows
        # A second pass hands back the identical cached objects.
        first_pass = columnar.tuples()
        second_pass = columnar.tuples()
        assert all(a is b for a, b in zip(first_pass, second_pass))

    def test_to_rows_renders_what_was_inserted(self):
        # 3.0 and -0.0 share the codes of 3 and 0.0; to_rows must print
        # each row the way iteration does, not the code's representative
        instance = RelationInstance(RelationSchema("S", [("k", INT), ("v", FLOAT)]))
        instance.add((1, 3))
        instance.add((2, 3.0))
        instance.add((3, 0.0))
        instance.extend_rows([(4, -0.0), (5, 3.0)])
        assert [repr(row) for row in instance.to_rows()] == [
            repr(t.values()) for t in instance
        ]
        assert repr(instance.to_rows()) == (
            "[(1, 3), (2, 3.0), (3, 0.0), (4, -0.0), (5, 3.0)]"
        )

    def test_duplicate_insert_rejects_bad_domain_value(self, columnar):
        columnar.add((1, "x"))
        with pytest.raises(DomainError):
            columnar.add((True, "x"))  # equal under ==, but not in INT


class TestObjectParity:
    """The column store and a dict of ``Tuple`` objects must agree on
    every public observation (the property in ``test_reference_relation``
    drives random op sequences through both)."""

    def test_equality_across_backends(self, schema):
        rows = [(i % 13, f"s{i % 7}") for i in range(120)]
        col = RelationInstance(schema)
        col.extend_rows(rows)
        obj = ReferenceRelation(schema)
        obj.extend_rows(rows)
        assert [repr(t) for t in col] == [repr(t) for t in obj]
        assert len(col) == len(obj) and col.version == obj.version
        assert col.to_rows() == obj.to_rows()
        assert col.project_values(["b"]) == obj.project_values(["b"])
        assert col.active_domain("a") == obj.active_domain("a")
