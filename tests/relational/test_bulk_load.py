"""``extend_rows`` is ``add`` in a loop, a column at a time.

The bulk loader behind session creation must check everything the
single-row path checks and leave the same rows, order and *rendering*
behind — equal values share a dictionary code (``1 == 1.0 == True``,
``3 == 3.0``, ``0.0 == -0.0``), so a row whose cell prints differently
from its code's representative has to keep its own ``Tuple``.  The
property drives random schemas and batches through both paths; the plain
tests are the two reproductions that motivated the rewrite.
"""

from __future__ import annotations

import json
import weakref
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfd.model import CFD, UNNAMED
from repro.errors import DomainError, SchemaError
from repro.relational.domains import BOOL, FLOAT, INT, STRING, EnumDomain
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.tuples import Tuple
from repro.session import Session

#: per column kind: (domain, values inside it, values outside it) — small
#: pools, so batches collide within themselves and with the store
KINDS = {
    "int": (INT, [0, 1, 2, 3], [True, 1.0, "1", None]),
    "float": (FLOAT, [0, 0.0, -0.0, 1, 1.0, 3, 3.0, 2.5], [True, "3", None]),
    "string": (STRING, ["a", "b", ""], [1, None, ["a"]]),
    "enum": (EnumDomain([1, 3, "x"]), [1, 1.0, True, 3, 3.0, "x"], [2, "y", None]),
    "bool": (BOOL, [True, False], [1, 0, "true"]),
}


def _observe(relation: RelationInstance):
    """What a reader of the relation can see — as text, so that value
    types and the sign of a float zero count."""
    return (
        [repr(t.values()) for t in relation],
        [repr(row) for row in relation.to_rows()],
        len(relation),
    )


def _detect_bytes(relation: RelationInstance, rules) -> str:
    schema = DatabaseSchema([relation.schema])
    db = DatabaseInstance(schema, {relation.schema.name: relation})
    report = Session.from_instance(db, rules).detect()
    return json.dumps(report.to_dict(), sort_keys=True)


def _outcome(call):
    try:
        return None, call()
    except Exception as exc:  # the property compares class and message
        return (type(exc), str(exc)), None


@st.composite
def _cases(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    schema = RelationSchema("r", [(n, KINDS[k][0]) for n, k in zip(names, kinds)])
    good_row = st.tuples(*(st.sampled_from(KINDS[k][1]) for k in kinds))

    # the store the batch lands on: empty, populated, or with dead rows
    initial = draw(st.lists(good_row, max_size=6))
    dead = draw(st.lists(st.integers(0, 5), max_size=3))

    values = draw(st.lists(good_row, max_size=8))
    shape = draw(st.sampled_from(["mappings", "sequences", "mixed"]))
    rows = []
    for row in values:
        as_mapping = shape == "mappings" or (shape == "mixed" and draw(st.booleans()))
        if as_mapping:
            rows.append(dict(zip(names, row)))
        else:
            rows.append(draw(st.sampled_from([tuple, list]))(row))
    fault = draw(
        st.sampled_from([None, None, None, "domain", "missing", "extra", "short"])
    )
    if fault is not None and rows:
        at = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(kinds) - 1))
        row = rows[at]
        if fault == "domain":
            bad = draw(st.sampled_from(KINDS[kinds[column]][2]))
            if isinstance(row, dict):
                row[names[column]] = bad
            else:
                rows[at] = type(row)(
                    bad if i == column else v for i, v in enumerate(row)
                )
        elif isinstance(row, dict):
            if fault != "extra":
                del row[names[column]]
            if fault != "short":
                row["zz"] = 1  # "missing": right width, wrong key
        elif fault == "extra":
            rows[at] = type(row)([*row, 1])
        else:
            rows[at] = type(row)(row[:-1])

    rules = []
    if len(names) > 1:
        for _ in range(draw(st.integers(0, 2))):
            lhs, rhs = draw(st.permutations(names))[:2]
            pattern = {
                a: draw(
                    st.sampled_from(
                        [UNNAMED] + KINDS[kinds[names.index(a)]][1]
                    )
                )
                for a in (lhs, rhs)
            }
            rules.append(CFD("r", [lhs], [rhs], [pattern]))
    return schema, initial, dead, rows, rules


def _prepared(schema, initial, dead) -> RelationInstance:
    relation = RelationInstance(schema)
    for row in initial:
        relation.add(row)
    present = relation.tuples()
    for index in dead:
        if index < len(present):
            relation.discard(present[index])
    return relation


def _loads_like_add(schema, initial, dead, rows, rules=()):
    """Load ``rows`` in bulk and with ``add`` one at a time onto the same
    prepared store; a reader must not tell the two apart."""
    reference = _prepared(schema, initial, dead)
    bulk = _prepared(schema, initial, dead)
    before = _observe(bulk)

    def add_each():
        for row in rows:
            reference.add(row)

    expected_error, _ = _outcome(add_each)
    error, added = _outcome(lambda: bulk.extend_rows([*rows]))
    assert error == expected_error
    if error is not None:
        # all-or-nothing: a raised batch leaves the row set alone
        assert _observe(bulk) == before
        return expected_error
    assert _observe(bulk) == _observe(reference)
    assert bulk.version == reference.version
    assert added == len(bulk) - before[2]
    for row in rows:
        assert Tuple(schema, row) in bulk
    assert _detect_bytes(bulk, list(rules)) == _detect_bytes(reference, list(rules))
    return None


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_extend_rows_is_add_in_a_loop(case):
    _loads_like_add(*case)


@pytest.fixture
def kw() -> RelationSchema:
    return RelationSchema("r", [("k", INT), ("w", FLOAT)])


def test_bulk_load_validates_a_cell_that_hits_the_dictionary(kw):
    """``True == 1`` finds the interned ``1``; it is still not an int."""
    single = RelationInstance(kw)
    single.add({"k": 1, "w": 3})
    with pytest.raises(DomainError) as by_add:
        single.add({"k": True, "w": 4.0})
    for rows in (
        [(1, 3), (True, 4.0)],
        [{"k": 1, "w": 3}, {"k": True, "w": 4.0}],
    ):
        bulk = RelationInstance(kw)
        with pytest.raises(DomainError) as by_bulk:
            bulk.extend_rows(rows)
        assert str(by_bulk.value) == str(by_add.value)
        assert len(bulk) == 0
    # against the store as well as within the batch, and on a duplicate
    bulk = RelationInstance(kw)
    bulk.extend_rows([(1, 3)])
    for row in ((True, 4.0), (True, 3)):
        with pytest.raises(DomainError):
            bulk.extend_rows([row])
    assert bulk.to_rows() == [(1, 3)]


def test_bulk_load_renders_what_was_inserted(kw):
    """``3`` then ``3.0`` share a code but not a rendering."""
    single = RelationInstance(kw)
    single.add((1, 3))
    single.add((2, 3.0))
    single.add((3, -0.0))
    single.add((4, 0.0))
    bulk = RelationInstance(kw)
    assert bulk.extend_rows([(1, 3), (2, 3.0), (3, -0.0), (4, 0.0)]) == 4
    assert [repr(t) for t in bulk] == [repr(t) for t in single]
    assert [repr(t) for t in bulk] == [
        "r(k=1, w=3)", "r(k=2, w=3.0)", "r(k=3, w=-0.0)", "r(k=4, w=0.0)",
    ]
    # validate=False skips the domain check, not the representation rule
    unchecked = RelationInstance(kw)
    unchecked.extend_rows([(1, 3), (2, 3.0)], validate=False)
    assert [repr(t) for t in unchecked] == ["r(k=1, w=3)", "r(k=2, w=3.0)"]


def test_bulk_load_accepts_mappings_and_reports_shape_errors_like_add(kw):
    relation = RelationInstance(kw)
    assert relation.extend_rows([{"w": 1.5, "k": 1}, {"k": 2, "w": 2.5}]) == 2
    assert relation.to_rows() == [(1, 1.5), (2, 2.5)]
    for bad in ({"k": 3}, {"k": 3, "w": 1.0, "x": 0}, {"k": 3, "x": 0}, (3,)):
        with pytest.raises(SchemaError) as by_add:
            RelationInstance(kw).add(bad)
        with pytest.raises(SchemaError) as by_bulk:
            relation.extend_rows([{"k": 9, "w": 9.5}, bad])
        assert str(by_bulk.value) == str(by_add.value)
    assert relation.to_rows() == [(1, 1.5), (2, 2.5)]


# -- a key column: no repeated row is possible, so none is looked for ------


def test_key_batch_repeats_a_live_row_and_a_dead_one(kw):
    """On a populated store with a dead, uncompacted row, a key batch
    drops the live repeat and brings the dead row back, as ``add`` does."""
    initial = [(1, 1.5), (2, 2.5), (3, 3.5)]
    # (2, 2.5) is killed; (1, 1.5) stays live
    batch = [(4, 4.5), (1, 1.5), (2, 2.5), (5, 5.5)]
    assert _loads_like_add(kw, initial, [1], batch) is None
    bulk = _prepared(kw, initial, [1])
    assert bulk.column_store.dead == 1
    assert bulk.extend_rows(batch) == 3
    assert bulk.to_rows() == [(1, 1.5), (3, 3.5), (4, 4.5), (2, 2.5), (5, 5.5)]
    # as mappings, and with the repeats first
    mappings = [dict(zip(("k", "w"), row)) for row in reversed(batch)]
    assert _loads_like_add(kw, initial, [1], mappings) is None


def test_key_column_of_equal_but_unlike_floats():
    """``3`` / ``3.0`` / ``-0.0`` are distinct keys only up to their code:
    a cell that hits a representative printed otherwise keeps its row's
    ``Tuple``, and a repeat of a stored row under another spelling is
    still a repeat."""
    schema = RelationSchema("r", [("key", FLOAT), ("s", STRING)])
    initial = [(3.0, "a"), (0.0, "b")]
    for batch in (
        [(3, "c"), (3.5, "d"), (-0.0, "e"), (7, "f")],
        [(3, "a"), (-0.0, "b"), (1.0, "g")],
        [(-0.0, "x"), (3, "y"), (2.0, "z")],
    ):
        assert _loads_like_add(schema, initial, [], batch) is None
        assert _loads_like_add(schema, [], [], batch) is None


def test_int_column_refuses_true_and_one_point_zero(kw):
    """A bool or a float cell takes the column off the by-type check."""
    for bad in (True, 1.0):
        for initial in ([], [(1, 1.5)]):
            batch = [(7, 0.5), (bad, 2.5), (9, 3.5)]
            error = _loads_like_add(kw, initial, [], batch)
            assert error is not None and error[0] is DomainError
            assert repr(bad) in error[1]


def test_int_enum_member_is_asked_cell_by_cell(kw):
    """An ``IntEnum`` member is an int, but not of type ``int``: the domain
    is asked, admits it, and the row prints the member."""

    class Level(IntEnum):
        LOW = 1
        HIGH = 2

    for initial in ([], [(1, 0.5)]):
        batch = [(Level.HIGH, 1.5), (Level.LOW, 2.5), (3, 3.5)]
        assert _loads_like_add(kw, initial, [], batch) is None
    bulk = RelationInstance(kw)
    bulk.extend_rows([(Level.HIGH, 1.5)])
    assert repr(next(iter(bulk))) == "r(k=<Level.HIGH: 2>, w=1.5)"


def test_enum_column_admits_no_type_whole():
    schema = RelationSchema("r", [("e", EnumDomain([1, 2])), ("n", INT)])
    for batch in ([(3, 0)], [(1, 0), (2, 1), (3, 2)], [{"e": 3, "n": 0}]):
        error = _loads_like_add(schema, [], [], batch)
        assert error == (DomainError, "value 3 for r.e not in domain enum{1,2}")
    assert _loads_like_add(schema, [(1, 5)], [], [(2, 0), (1, 1)]) is None


def test_domains_declare_only_types_they_admit_whole():
    """``exact_types`` is a promise: every value of a listed type passes
    ``contains``."""
    samples = {
        int: [0, -7, 2**70],
        float: [0.0, -0.0, 1.5, float("inf")],
        str: ["", "x"],
        bool: [True, False],
    }
    for domain in (INT, FLOAT, STRING, BOOL, EnumDomain([1, "a"])):
        for kind in domain.exact_types:
            assert all(map(domain.contains, samples[kind])), (domain, kind)
    assert EnumDomain([1, 2]).exact_types == frozenset()


def test_replay_keeps_the_rows_shape(kw):
    """A failed check replays from the columns as the rows came: a mapping
    with an unhashable cell fails ``add``'s domain check first."""
    rows = [{"k": 1, "w": 1.5}, {"k": [2], "w": 2.5}]
    error = _loads_like_add(kw, [], [], rows)
    assert error == (DomainError, "value [2] for r.k not in domain int")


def test_rows_go_before_the_columns_are_encoded():
    """Once transposed, the batch is not referenced by the loader: a row
    list passed by its only owner is freed before a domain sees a cell."""

    class Rows(list):
        pass

    class Watched(EnumDomain):
        def contains(self, value):
            alive.append(refs[0]() is not None)
            return super().contains(value)

    def only_reference():
        rows = Rows([{"e": "a"}, {"e": "b"}])
        refs.append(weakref.ref(rows))
        return rows

    alive: list = []
    refs: list = []
    relation = RelationInstance(RelationSchema("r", [("e", Watched(["a", "b"]))]))
    # not inside an ``assert``: pytest would keep the argument for its report
    added = relation.extend_rows(only_reference())
    assert added == 2
    assert alive == [False, False]
