"""Tuples: construction, validation, projection, replace."""

import enum
import re
from collections import Counter, OrderedDict, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DomainError, SchemaError
from repro.relational.domains import FLOAT, INT, STRING, EnumDomain
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple


@pytest.fixture
def schema():
    return RelationSchema("R", [("a", INT), ("b", STRING)])


class TestConstruction:
    def test_from_mapping(self, schema):
        t = Tuple(schema, {"a": 1, "b": "x"})
        assert t["a"] == 1
        assert t["b"] == "x"

    def test_from_sequence(self, schema):
        t = Tuple(schema, (1, "x"))
        assert t.values() == (1, "x")

    def test_missing_attribute(self, schema):
        with pytest.raises(SchemaError):
            Tuple(schema, {"a": 1})

    def test_extra_attribute(self, schema):
        with pytest.raises(SchemaError):
            Tuple(schema, {"a": 1, "b": "x", "c": 2})

    def test_wrong_arity(self, schema):
        with pytest.raises(SchemaError):
            Tuple(schema, (1,))

    def test_domain_validation(self, schema):
        with pytest.raises(DomainError):
            Tuple(schema, {"a": "not an int", "b": "x"})

    def test_validation_can_be_skipped(self, schema):
        t = Tuple(schema, ("anything", object()), validate=False)
        assert len(t) == 2


class TestFromMapping:
    """The mapping contract: a plain ``dict`` is read in one pass, every
    other mapping asks for each name — the outcomes and error texts are
    the same either way."""

    @pytest.fixture
    def ints(self):
        return RelationSchema("N", [("a", INT), ("b", INT)])

    def _raises(self, error, text, schema, row):
        with pytest.raises(error, match=re.escape(text)):
            Tuple(schema, row)

    @pytest.mark.parametrize("kind", [dict, OrderedDict])
    def test_missing_attributes(self, schema, kind):
        self._raises(
            SchemaError, "tuple for R missing attributes ['b']",
            schema, kind(a=1),
        )

    @pytest.mark.parametrize("kind", [dict, OrderedDict])
    def test_unknown_attributes(self, schema, kind):
        self._raises(
            SchemaError, "tuple for R has unknown attributes ['c', 'd']",
            schema, kind(a=1, b="x", c=2, d=3),
        )

    @pytest.mark.parametrize("kind", [dict, OrderedDict])
    def test_missing_is_reported_before_unknown(self, schema, kind):
        # as wide as the schema, so the one-pass read is tried and fails
        self._raises(
            SchemaError, "tuple for R missing attributes ['b']",
            schema, kind(a=1, c="x"),
        )
        self._raises(
            SchemaError, "tuple for R missing attributes ['a', 'b']",
            schema, kind(c=1, d="x", e=2),
        )

    def test_counter_makes_up_no_cell(self, ints):
        row = Counter(a=1)
        self._raises(SchemaError, "tuple for N missing attributes ['b']", ints, row)
        self._raises(
            SchemaError, "tuple for N missing attributes ['b']",
            ints, Counter(a=1, c=2),
        )
        assert Tuple(ints, Counter(a=1, b=2)).values() == (1, 2)

    def test_defaultdict_makes_up_no_cell(self, ints):
        row = defaultdict(int, a=1, c=5)
        self._raises(SchemaError, "tuple for N missing attributes ['b']", ints, row)
        assert "b" not in row  # nothing was asked for by indexing
        assert Tuple(ints, defaultdict(int, a=1, b=2)).values() == (1, 2)

    def test_true_in_an_int_column(self, ints):
        self._raises(
            DomainError, "value True for N.a not in domain int",
            ints, {"a": True, "b": 2},
        )

    def test_float_column_keeps_what_it_was_given(self):
        floats = RelationSchema("F", [("x", FLOAT), ("y", FLOAT)])
        t = Tuple(floats, {"x": 3.0, "y": 3})
        assert [type(v) for v in t.values()] == [float, int]
        assert repr(t) == "F(x=3.0, y=3)"
        self._raises(
            DomainError, "value '3' for F.x not in domain float",
            floats, {"x": "3", "y": 3},
        )

    def test_intenum_member_in_enum_and_int_domains(self):
        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 2

        levels = RelationSchema(
            "L", [("e", EnumDomain([1, 2], name="level")), ("n", INT)]
        )
        t = Tuple(levels, {"e": Level.HIGH, "n": Level.LOW})
        assert t.values() == (2, 1)
        assert [type(v) for v in t.values()] == [Level, Level]
        self._raises(
            DomainError, "value 3 for L.e not in domain level",
            levels, {"e": 3, "n": 1},
        )


class TestProjection:
    def test_single_attribute(self, schema):
        t = Tuple(schema, (1, "x"))
        assert t["b"] == "x"

    def test_attribute_list(self, schema):
        t = Tuple(schema, (1, "x"))
        assert t[["b", "a"]] == ("x", 1)

    def test_empty_projection(self, schema):
        t = Tuple(schema, (1, "x"))
        assert t[[]] == ()

    def test_agrees_with(self, schema):
        t1 = Tuple(schema, (1, "x"))
        t2 = Tuple(schema, (1, "y"))
        assert t1.agrees_with(t2, ["a"])
        assert not t1.agrees_with(t2, ["b"])


class TestValueSemantics:
    def test_equality(self, schema):
        assert Tuple(schema, (1, "x")) == Tuple(schema, {"a": 1, "b": "x"})

    def test_hash_consistency(self, schema):
        assert len({Tuple(schema, (1, "x")), Tuple(schema, (1, "x"))}) == 1

    def test_replace_returns_new(self, schema):
        t = Tuple(schema, (1, "x"))
        t2 = t.replace(b="y")
        assert t["b"] == "x"
        assert t2["b"] == "y"
        assert t2["a"] == 1

    def test_replace_unknown_attribute(self, schema):
        with pytest.raises(SchemaError):
            Tuple(schema, (1, "x")).replace(nope=1)

    def test_as_dict_is_fresh(self, schema):
        t = Tuple(schema, (1, "x"))
        d = t.as_dict()
        d["a"] = 99
        assert t["a"] == 1

    @given(st.integers(), st.text(max_size=10))
    def test_roundtrip(self, a, b):
        schema = RelationSchema("R", [("a", INT), ("b", STRING)])
        t = Tuple(schema, {"a": a, "b": b})
        assert Tuple(schema, t.as_dict()) == t
        assert tuple(t) == (a, b)
