"""Relation and database instances: set semantics, grouping, copying."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import SchemaError
from repro.relational.domains import INT, STRING
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.tuples import Tuple

#: the directory ``repro`` was imported from, for child interpreters
SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def schema():
    return RelationSchema("R", [("a", INT), ("b", STRING)])


@pytest.fixture
def instance(schema):
    return RelationInstance(schema, [(1, "x"), (2, "y"), (1, "z")])


class TestRelationInstance:
    def test_set_semantics(self, schema):
        rel = RelationInstance(schema, [(1, "x"), (1, "x")])
        assert len(rel) == 1

    def test_insertion_order_preserved(self, instance):
        assert [t.values() for t in instance] == [(1, "x"), (2, "y"), (1, "z")]

    def test_add_coerces_dicts(self, schema):
        rel = RelationInstance(schema)
        t = rel.add({"a": 1, "b": "x"})
        assert t in rel

    def test_wrong_schema_tuple_rejected(self, schema):
        other = RelationSchema("S", [("c", INT)])
        rel = RelationInstance(schema)
        with pytest.raises(SchemaError):
            rel.add(Tuple(other, (1,)))

    def test_tuple_over_a_same_shaped_schema_rejected(self, schema):
        # same attribute names, another relation: stored, such a tuple
        # could be neither found (``in``) nor removed by the object added
        twin = RelationSchema("S", [("a", INT), ("b", STRING)])
        rel = RelationInstance(schema, [(1, "x")])
        version = rel.version
        with pytest.raises(SchemaError, match="tuple over S cannot enter instance of R"):
            rel.add(Tuple(twin, (2, "y")))
        assert len(rel) == 1 and rel.version == version
        assert rel.to_rows() == [(1, "x")]

    def test_storage_argument_is_gone(self, schema):
        with pytest.raises(TypeError, match="storage"):
            RelationInstance(schema, storage="object")

    def test_repro_storage_other_than_columnar_refuses_to_import(self):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        for value, refused in (("object", True), ("bogus", True), ("columnar", False)):
            done = subprocess.run(
                [sys.executable, "-c", "import repro.relational.instance"],
                env={**os.environ, "PYTHONPATH": path, "REPRO_STORAGE": value},
                capture_output=True,
                text=True,
            )
            assert (done.returncode != 0) == refused, (value, done.stderr)
            named = "RuntimeError: REPRO_STORAGE: the object storage backend was removed"
            assert (named in done.stderr) == refused

    def test_remove_and_discard(self, schema, instance):
        t = instance.tuples()[0]
        instance.remove(t)
        assert t not in instance
        instance.discard(t)  # no error on absent
        with pytest.raises(KeyError):
            instance.remove(t)

    def test_filter(self, instance):
        filtered = instance.filter(lambda t: t["a"] == 1)
        assert len(filtered) == 2

    def test_group_by(self, instance):
        groups = instance.group_by(["a"])
        assert len(groups[(1,)]) == 2
        assert len(groups[(2,)]) == 1

    def test_group_by_empty_key_single_group(self, instance):
        groups = instance.group_by([])
        assert len(groups) == 1
        assert len(groups[()]) == 3

    def test_active_domain(self, instance):
        assert instance.active_domain("a") == [1, 2]

    def test_copy_is_independent(self, instance):
        clone = instance.copy()
        clone.remove(clone.tuples()[0])
        assert len(instance) == 3
        assert len(clone) == 2

    def test_equality_ignores_order(self, schema):
        r1 = RelationInstance(schema, [(1, "x"), (2, "y")])
        r2 = RelationInstance(schema, [(2, "y"), (1, "x")])
        assert r1 == r2

    def test_pretty_contains_data(self, instance):
        rendered = instance.pretty()
        assert "a" in rendered and "'x'" in rendered


class TestDatabaseInstance:
    def test_construction_with_rows(self, schema):
        db_schema = DatabaseSchema([schema])
        db = DatabaseInstance(db_schema, {"R": [(1, "x")]})
        assert len(db.relation("R")) == 1

    def test_unknown_relation(self, schema):
        db = DatabaseInstance(DatabaseSchema([schema]))
        with pytest.raises(SchemaError):
            db.relation("S")

    def test_getitem(self, schema):
        db = DatabaseInstance(DatabaseSchema([schema]), {"R": [(1, "x")]})
        assert len(db["R"]) == 1

    def test_total_and_empty(self, schema):
        db = DatabaseInstance(DatabaseSchema([schema]))
        assert db.is_empty()
        db.relation("R").add((1, "x"))
        assert db.total_tuples() == 1
        assert not db.is_empty()

    def test_copy_independence(self, schema):
        db = DatabaseInstance(DatabaseSchema([schema]), {"R": [(1, "x")]})
        clone = db.copy()
        clone.relation("R").add((2, "y"))
        assert len(db.relation("R")) == 1

    def test_equality(self, schema):
        db_schema = DatabaseSchema([schema])
        db1 = DatabaseInstance(db_schema, {"R": [(1, "x")]})
        db2 = DatabaseInstance(db_schema, {"R": [(1, "x")]})
        assert db1 == db2
        db2.relation("R").add((2, "y"))
        assert db1 != db2
