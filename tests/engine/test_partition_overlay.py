"""A maintained partition is its layout segment plus the edits since.

The delta engine copies no partition out of the relation: a scan state keeps the cached ``GroupLayout`` as its
base and a record only for the keys a batch has touched.  The invariant,
checked after every step of every sequence here on an engine built after
one detect:

* for every key of a fresh ``group_index`` of the signature,
  ``DeltaEngine.partition`` is that group — the same ``Tuple`` objects in
  the same order — and a key absent there is empty;
* ``ordered_violations()`` is the list a fresh
  ``detect_violations_indexed`` returns.

The named cases are the edits whose bookkeeping differs between a base
row and an added one; the last test counts what a first write
materialises.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd.model import CFD, UNNAMED
from repro.deps.fd import FD
from repro.engine.delta import (
    Changeset,
    DeltaEngine,
    violation_multiset,
    violation_sequence,
)
from repro.engine.executor import detect_violations_indexed
from repro.relational.columnar import COMPACT_MIN_DEAD
from repro.relational.domains import FLOAT, STRING
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.session import Session
from tests.engine.test_differential import _ordered_case
from tests.engine.test_report_epoch import BATCHES, R_ROWS, S_ROWS

A_VALUES = ["k1", "k2", "k3", "k5", "k6", "k7"]
SCHEMA = DatabaseSchema(
    [RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])]
)
#: two signatures, a lookup row, singles and pairs — and no inclusion
#: dependency, so R's arrival numbers stay sparse
SCAN_DEPS = [
    FD("R", ["A"], ["B"]),
    CFD(
        "R", ["A"], ["B"],
        [{"A": UNNAMED, "B": UNNAMED}, {"A": "k2", "B": "b9"}],
        name="wild-then-constant",
    ),
    FD("R", ["A", "C"], ["B"]),
]
K1_PIVOT, K1_WITNESS, K1_CLEAN = ("k1", "b0", "c0"), ("k1", "b1", "c0"), ("k1", "b0", "c1")
K5_PIVOT, K5_MEMBER = ("k5", "b0", "c0"), ("k5", "b0", "c1")
R_DATA = [
    K1_PIVOT,
    K1_WITNESS,  # pairs with the pivot under both FDs
    K1_CLEAN,
    ("k2", "b0", "c0"),  # the CFD's constant row: a single
    K5_PIVOT,  # a clean two-row partition
    K5_MEMBER,
    ("k6", "b0", "c9"),
]


def _warm_engine(db, deps) -> DeltaEngine:
    """An engine built after one detect: every scan state keeps
    the layout the detect cached as its base."""
    detect_violations_indexed(db, deps)
    engine = DeltaEngine(db, deps)
    assert all(not state.touched for state in engine._scan_states)
    return engine


def _check(db, deps, engine, context, universe=()):
    for state in engine._scan_states:
        relation = db.relation(state.relation_name)
        fresh = relation.indexes.group_index(state.signature)
        for key, group in fresh.items():
            members = engine.partition(state.relation_name, state.signature, key)
            assert list(map(id, members)) == list(map(id, group)), (context, key)
        for key in universe:
            if len(key) == len(state.signature) and key not in fresh:
                assert (
                    engine.partition(state.relation_name, state.signature, key) == []
                ), (context, key)
    fresh_report = detect_violations_indexed(db, deps).violations
    assert violation_sequence(engine.ordered_violations()) == violation_sequence(
        fresh_report
    ), context
    assert engine.total_violations() == len(fresh_report), context


def _changeset(*ops, relation="R") -> Changeset:
    changeset = Changeset()
    for op, row, *cells in ops:
        if op == "update":
            changeset.update(relation, list(row), **cells[0])
        else:
            getattr(changeset, op)(relation, list(row))
    return changeset


def _touched(engine, signature=("A",)):
    (state,) = [s for s in engine._scan_states if s.signature == signature]
    return set(state.touched)


# -- hypothesis: apply / undo / redo ----------------------------------------

UNIVERSE = [(a,) for a in A_VALUES] + list(
    product(["k1", "k2", "k3"], ["c0", "c1", "c2"])
)


@given(
    rows=st.lists(R_ROWS, max_size=10, unique=True),
    s_rows=st.lists(S_ROWS, max_size=4, unique=True),
    batches=st.lists(BATCHES, min_size=1, max_size=4),
    scan_only=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_partition_invariant_under_apply_undo_redo(rows, s_rows, batches, scan_only):
    """Small universe: duplicate inserts, absent deletes, delete + re-add
    of an equal row, colliding updates and failed applies all come up —
    with R's arrival numbers sparse (scan rules only) and complete (R is
    also an inclusion source)."""
    schema, deps = _ordered_case()
    if scan_only:
        deps = SCAN_DEPS
    db = DatabaseInstance(schema, {"R": rows, "S": s_rows})
    engine = _warm_engine(db, deps)
    _check(db, deps, engine, "build", UNIVERSE)
    for index, batch in enumerate(batches):
        changeset = Changeset()
        for op, relation, row, *cells in batch:
            if op == "update":
                changeset.update(relation, list(row), **cells[0])
            else:
                getattr(changeset, op)(relation, list(row))
        try:
            delta = engine.apply(changeset)
        except KeyError:
            _check(db, deps, engine, f"batch {index} failed: {batch}", UNIVERSE)
            continue
        _check(db, deps, engine, f"batch {index} applied: {batch}", UNIVERSE)
        redo = engine.apply(delta.undo).undo
        _check(db, deps, engine, f"batch {index} undone: {batch}", UNIVERSE)
        engine.apply(redo)
        _check(db, deps, engine, f"batch {index} redone: {batch}", UNIVERSE)


# -- named cases --------------------------------------------------------------


def _named():
    db = DatabaseInstance(SCHEMA, {"R": R_DATA})
    return db, _warm_engine(db, SCAN_DEPS)


@pytest.mark.parametrize(
    "pivot, key", [(K1_PIVOT, "k1"), (K5_PIVOT, "k5")], ids=["violating", "clean"]
)
def test_pivot_delete_in_a_never_touched_partition(pivot, key):
    db, engine = _named()
    engine.apply(_changeset(("delete", pivot)))
    assert engine.stats.keys_reevaluated == 2 and engine.stats.keys_patched == 0
    assert _touched(engine) == {(key,)}  # nobody else got a record
    _check(db, SCAN_DEPS, engine, "pivot deleted", UNIVERSE)
    engine.apply(_changeset(("insert", pivot)))  # re-enters at the end
    _check(db, SCAN_DEPS, engine, "pivot back", UNIVERSE)


@pytest.mark.parametrize("row", [K5_MEMBER, K5_PIVOT, K1_WITNESS], ids=str)
def test_delete_and_reinsert_of_one_row_in_one_batch(row):
    db, engine = _named()
    engine.apply(_changeset(("delete", row), ("insert", row)))
    assert _touched(engine) == {(row[0],)}
    assert engine.partition("R", ("A",), (row[0],))[-1].values() == row
    _check(db, SCAN_DEPS, engine, "re-added in one batch", UNIVERSE)


def test_an_update_moves_a_row_between_two_untouched_partitions():
    db, engine = _named()
    delta = engine.apply(_changeset(("update", K5_MEMBER, {"A": "k1", "C": "c7"})))
    assert _touched(engine) == {("k5",), ("k1",)}
    # both pivots on A survive; on (A, C) the row was, and becomes, a pivot
    assert engine.stats.keys_patched == 2 and engine.stats.keys_reevaluated == 2
    _check(db, SCAN_DEPS, engine, "moved", UNIVERSE)
    engine.apply(delta.undo)
    _check(db, SCAN_DEPS, engine, "moved back", UNIVERSE)


def test_insert_into_a_key_whose_base_segment_is_all_dead():
    db, engine = _named()
    engine.apply(_changeset(("delete", K5_PIVOT), ("delete", K5_MEMBER)))
    assert engine.partition("R", ("A",), ("k5",)) == []
    _check(db, SCAN_DEPS, engine, "segment emptied", UNIVERSE)
    engine.apply(_changeset(("insert", ("k5", "b3", "c3"))))
    delta = engine.apply(_changeset(("insert", ("k5", "b4", "c3"))))
    assert len(delta.added) == 3  # both FDs and the wildcard CFD row
    _check(db, SCAN_DEPS, engine, "refilled from the tail", UNIVERSE)


@pytest.mark.parametrize("one_batch", [True, False])
def test_a_base_witness_removed_then_an_equal_row_that_renders_differently(
    one_batch,
):
    """``3 == 3.0``: the dead base row must never be materialised again —
    the report shows what was inserted."""
    schema = DatabaseSchema([RelationSchema("R", [("A", STRING), ("W", FLOAT)])])
    deps = [FD("R", ["A"], ["W"])]
    db = DatabaseInstance(schema, {"R": [("k", 1.5), ("k", 3), ("j", 2.5)]})
    engine = _warm_engine(db, deps)
    out, back = {"A": "k", "W": 3}, {"A": "k", "W": 3.0}
    if one_batch:
        engine.apply(Changeset().delete("R", out).insert("R", back))
    else:
        engine.apply(Changeset().delete("R", out))
        _check(db, deps, engine, "witness gone")
        engine.apply(Changeset().insert("R", back))
    (violation,) = engine.ordered_violations()
    assert repr(violation.tuples[-1][1]["W"]) == "3.0"
    _check(db, deps, engine, "3.0 for 3", [("k",), ("j",), ("x",)])


def test_a_batch_that_compacts_the_store_rebuilds_the_engine():
    """More than half the rows go in one batch: the store compacts as
    soon as the batch is patched, renumbering the rows under every base."""
    rows = [(f"k{i % 40}", f"b{i % 3}", f"c{i}") for i in range(4 * COMPACT_MIN_DEAD)]
    db = DatabaseInstance(SCHEMA, {"R": rows})
    store = db.relation("R").column_store
    engine = _warm_engine(db, SCAN_DEPS)
    engine.apply(_changeset(("insert", ("k1", "b7", "c-first"))))
    before = violation_multiset(detect_violations_indexed(db, SCAN_DEPS).violations)
    stats = engine.stats
    batches, patched = stats.batches, stats.keys_patched
    assert (stats.rebuilds, store.compactions) == (0, 0)

    doomed = rows[: 2 * COMPACT_MIN_DEAD + 10]
    delta = engine.apply(_changeset(*[("delete", row) for row in doomed]))

    assert store.compactions == 1 and store.dead < COMPACT_MIN_DEAD
    after = violation_multiset(detect_violations_indexed(db, SCAN_DEPS).violations)
    assert violation_multiset(delta.added) == after - before
    assert violation_multiset(delta.removed) == before - after
    assert delta.remaining == sum(after.values())
    # rebuilt once, and the counters carried on
    assert stats is engine.stats and stats.rebuilds == 1
    assert (stats.batches, stats.keys_patched) == (batches + 1, patched)
    _check(db, SCAN_DEPS, engine, "compacted")
    # … and the undo, and the batch after it, patch as ever
    engine.apply(delta.undo)
    engine.apply(_changeset(("insert", ("k1", "b8", "c-next"))))
    assert stats.rebuilds == 1 and stats.keys_patched > patched
    _check(db, SCAN_DEPS, engine, "after the rebuild")


def test_a_compaction_a_savepoint_held_rebuilds_the_engine_on_close():
    """Under a session savepoint (a served write journals inside one) the
    store compacts when the savepoint closes, not when the batch is
    patched; the engine, which addresses the rows by id, rebuilds then."""
    rows = [(f"k{i % 40}", f"b{i % 3}", f"c{i}") for i in range(4 * COMPACT_MIN_DEAD)]
    db = DatabaseInstance(SCHEMA, {"R": rows})
    store = db.relation("R").column_store
    session = Session.from_instance(db, SCAN_DEPS)
    session.apply(_changeset(("insert", ("k1", "b7", "c-first"))))
    engine = session.warm_engine
    doomed = rows[: 2 * COMPACT_MIN_DEAD + 10]
    with session.savepoint():
        session.apply(_changeset(*[("delete", row) for row in doomed]))
        assert (store.compactions, engine.stats.rebuilds) == (0, 0)
    assert (store.compactions, engine.stats.rebuilds) == (1, 1)
    assert session.warm_engine is engine
    _check(db, SCAN_DEPS, engine, "compacted on close")
    session.apply(_changeset(("insert", ("k1", "b8", "c-next"))))
    _check(db, SCAN_DEPS, engine, "after the rebuild")


def test_a_savepoint_rollback_puts_the_rows_back_and_rebuilds_the_engine():
    rows = [(f"k{i % 4}", f"b{i % 3}", f"c{i}") for i in range(12)]
    db = DatabaseInstance(SCHEMA, {"R": rows})
    session = Session.from_instance(db, SCAN_DEPS)
    report = session.detect().to_dict()
    with session.savepoint() as savepoint:
        session.apply(
            _changeset(("delete", rows[0]), ("insert", ("k0", "b9", "c-new")))
        )
        engine = session.warm_engine
        batches = engine.stats.batches
        savepoint.rollback()
    assert [t.values() for t in db.relation("R")] == rows
    assert session.warm_engine is engine and engine.is_current()
    assert (engine.stats.rebuilds, engine.stats.batches) == (1, batches)
    _check(db, SCAN_DEPS, engine, "rolled back")
    assert session.detect().to_dict() == report
    session.apply(_changeset(("delete", rows[1])))
    _check(db, SCAN_DEPS, engine, "next batch")


def test_a_compacting_batch_reports_the_delta_a_fresh_store_reports():
    """Compaction is held until the batch is patched, so *when* a store
    compacts never shows in a delta: same lists, entry for entry, as an
    engine whose store has no dead row (a served apply is compared with an
    offline replay that way)."""
    rows = [(f"k{i % 40}", f"b{i % 3}", f"c{i}") for i in range(4 * COMPACT_MIN_DEAD)]
    db = DatabaseInstance(SCHEMA, {"R": rows})
    store = db.relation("R").column_store
    engine = _warm_engine(db, SCAN_DEPS)
    churn = rows[:60]
    for _ in range(3):  # 180 dead rows beside the 256 live ones
        engine.apply(_changeset(*[("delete", row) for row in churn]))
        engine.apply(_changeset(*[("insert", row) for row in churn]))
    assert (store.dead, store.compactions) == (180, 0)
    twin_db = DatabaseInstance(SCHEMA, {"R": [t.values() for t in db.relation("R")]})
    twin = _warm_engine(twin_db, SCAN_DEPS)

    def listed(delta):
        return [
            [(SCAN_DEPS.index(v.dependency), v.tuples, v.reason) for v in side]
            for side in (delta.added, delta.removed)
        ]

    # 61 more dead rows: past the live count here, under the floor there
    batch = [("delete", row) for row in rows[-60:]] + [
        ("update", rows[-61], {"B": "b9"})
    ]
    delta, twin_delta = engine.apply(_changeset(*batch)), twin.apply(_changeset(*batch))
    assert (store.compactions, engine.stats.rebuilds) == (1, 1)
    assert twin_db.relation("R").column_store.compactions == 0
    assert delta.removed and listed(delta) == listed(twin_delta)
    _check(db, SCAN_DEPS, engine, "compacted")
    assert listed(engine.apply(delta.undo)) == listed(twin.apply(twin_delta.undo))
    _check(db, SCAN_DEPS, engine, "undone after the rebuild")


def test_an_engine_built_over_dead_rows():
    db = DatabaseInstance(SCHEMA, {"R": R_DATA})
    relation = db.relation("R")
    for row in (K1_PIVOT, K5_MEMBER):
        relation.remove(relation.tuples()[R_DATA.index(row)])
    assert relation.column_store.dead == 2
    engine = _warm_engine(db, SCAN_DEPS)
    _check(db, SCAN_DEPS, engine, "built over dead rows", UNIVERSE)
    delta = engine.apply(
        _changeset(("delete", K1_WITNESS), ("insert", K1_PIVOT), ("insert", K5_MEMBER))
    )
    _check(db, SCAN_DEPS, engine, "edited", UNIVERSE)
    engine.apply(delta.undo)
    _check(db, SCAN_DEPS, engine, "undone", UNIVERSE)


def test_a_failed_apply_rebuilds_and_keeps_the_counters():
    db, engine = _named()
    engine.apply(_changeset(("insert", ("k1", "b2", "c5"))))
    stats = engine.stats
    counted = (stats.batches, stats.ops_applied, stats.keys_patched)
    before = [t.values() for t in db.relation("R").tuples()]
    bad = _changeset(
        ("delete", K1_PIVOT), ("update", ("no", "such", "row"), {"B": "b0"})
    )
    with pytest.raises(KeyError):
        engine.apply(bad)
    assert stats is engine.stats and stats.rebuilds == 1
    assert (stats.batches, stats.ops_applied, stats.keys_patched) == counted
    # the rollback put the pivot back in its place
    assert [t.values() for t in db.relation("R").tuples()] == before
    _check(db, SCAN_DEPS, engine, "rolled back", UNIVERSE)
    engine.apply(_changeset(("delete", K1_WITNESS)))
    _check(db, SCAN_DEPS, engine, "next batch", UNIVERSE)


# -- the count guard ------------------------------------------------------------


def test_a_first_write_materialises_the_violations_not_the_relation():
    """``extend_rows`` → ``detect`` → the first ``apply``: what the tuple
    cache holds afterwards is bounded by the violations and the edit, not
    by the 2 000 rows (a timing would only say so on a quiet machine)."""
    from repro.workloads.customer import CustomerConfig, generate_customers

    generated = generate_customers(
        CustomerConfig(n_tuples=2000, error_rate=0.03, seed=5)
    )
    source = generated.db.relation("customer")
    rows = source.to_rows()
    relation = RelationInstance(source.schema)
    assert relation.extend_rows(rows) == len(rows) == 2000
    db = DatabaseInstance(generated.db.schema)
    db.adopt("customer", relation)
    deps = generated.cfds()
    session = Session.from_instance(db, deps)
    session.detect()

    names = source.schema.attribute_names
    changeset = Changeset()
    for values in rows[100:104]:
        changeset.delete("customer", dict(zip(names, values)))
    for values in rows[200:203]:
        changeset.update("customer", dict(zip(names, values)), street="1 New Street")
    for index, values in enumerate(rows[300:303]):
        changeset.insert("customer", dict(zip(names, values), name=f"New Name {index}"))
    assert len(changeset) == 10
    delta = session.apply(changeset)

    engine = session.warm_engine
    pivots = sum(len(state.violations) for state in engine._scan_states)
    materialised = sum(t is not None for t in relation.column_store.cache)
    assert 0 < materialised < delta.remaining + pivots + 4 * len(changeset)
    assert materialised < len(relation) / 4
    # one record per (scan state, key) the ten ops touched, none for the rest
    assert all(len(state.touched) <= 13 for state in engine._scan_states)
    assert violation_sequence(engine.ordered_violations()) == violation_sequence(
        detect_violations_indexed(db, deps).violations
    )
