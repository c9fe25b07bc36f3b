"""``DeltaEngine.report_epoch``: an ``apply`` that changes no report keeps it.

The epoch names what ``ordered_violations()`` returns — *by identity*:
the dependency objects, the reasons, the witness ``Tuple`` objects and
their order.  Two duties, checked over the differential corpus and a
hypothesis changeset strategy:

* whatever the epoch did, the ordered read is the list a fresh
  ``detect_violations_indexed`` returns (the memo never serves a stale
  list);
* an unchanged epoch means the read equals the previous read, entry for
  entry — the server carries cached response bytes across such a write.

The named cases pin both directions on the edits that matter: the ones
that must *hold* the epoch (what most edits to mostly clean data are)
and the ones that must move it although the reported ``ViolationDelta``
is empty.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd.model import CFD
from repro.deps.denial import DenialConstraint
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.delta import Changeset, DeltaEngine, violation_sequence
from repro.engine.executor import detect_violations_indexed
from repro.relational.domains import FLOAT, STRING
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.predicates import Comparison
from repro.relational.schema import DatabaseSchema, RelationSchema
from tests.engine.test_differential import (
    TOTAL_CASES,
    _cases,
    _ordered_case,
    _random_batch,
    _random_instance,
    _random_schema,
)

class _Reader:
    """One engine, read after every step against both duties."""

    def __init__(self, db, deps):
        self.db, self.deps = db, deps
        self.engine = DeltaEngine(db, deps)
        self._previous = None
        self.read("build")

    def read(self, context) -> bool:
        """Check the ordered read; True iff the epoch held since the last."""
        engine = self.engine
        ordered = engine.ordered_violations()
        sequence = violation_sequence(ordered)
        fresh = detect_violations_indexed(self.db, self.deps).violations
        assert sequence == violation_sequence(fresh), (
            f"ordered read is not the fresh list "
            f"(epoch={engine.report_epoch}): {context}"
        )
        previous = self._previous
        held = previous is not None and previous[0] == engine.report_epoch
        if held:
            assert sequence == previous[1], (
                f"epoch {engine.report_epoch} held but the report moved: "
                f"{context}"
            )
        # ``ordered`` rides along: it keeps every id() in ``sequence`` alive
        self._previous = (engine.report_epoch, sequence, ordered)
        return held


def test_epoch_over_the_differential_corpus():
    """Every corpus case — all six constraint classes — through batch,
    undo and redo: the read stays the fresh list, and every step that
    kept the epoch kept the report."""
    steps = held = 0
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        reader = _Reader(db.copy(), deps)
        for batch_index in range(rng.randrange(1, 4)):
            # generated against ``db``, which then follows the reader's
            # copy; it resolves the batch's target tuples by value
            batch = _random_batch(db, rng)
            batch.apply_to(db)
            undo = reader.engine.apply(batch).undo
            for phase, changeset in (
                ("applied", None),
                ("undone", undo),
                ("redone", batch),
            ):
                if changeset is not None:
                    reader.engine.apply(changeset)
                held += reader.read(f"{case_id} batch={batch_index} {phase}")
                steps += 1
    assert steps >= 3 * TOTAL_CASES
    # both duties were exercised: a fair share of steps kept their epoch
    assert steps / 10 < held < steps


# -- named cases -----------------------------------------------------------

SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)]),
        RelationSchema("S", [("X", STRING)]),
    ]
)
DEPS = [
    IND("R", ["C"], "S", ["X"]),
    FD("R", ["A"], ["B"]),
    CFD("R", ["A"], ["B"], [{"A": "k2", "B": "b9"}], name="k2-is-b9"),
]
K1_PIVOT, K1_WITNESS, K1_CLEAN = ("k1", "b0", "c0"), ("k1", "b1", "c0"), ("k1", "b0", "c1")
K5_PIVOT, K5_MEMBER = ("k5", "b0", "c0"), ("k5", "b0", "c1")
R_DATA = [
    K1_PIVOT,
    K1_WITNESS,  # pairs with the pivot under the FD
    K1_CLEAN,  # a clean member of a violating group
    ("k2", "b0", "c0"),  # the CFD's constant row: a single
    K5_PIVOT,  # a clean two-row group
    K5_MEMBER,
    ("k6", "b0", "c9"),  # no S row provides c9
]
S_DATA = [("c0",), ("c1",)]


def _reader(deps=DEPS):
    """A ``_Reader`` over the named-case data."""
    db = DatabaseInstance(SCHEMA)
    for name, rows in (("R", R_DATA), ("S", S_DATA)):
        db.adopt(name, RelationInstance(SCHEMA.relation(name), rows))
    reader = _Reader(db, deps)
    assert len(reader.engine.ordered_violations()) >= 3
    return reader


def _changeset(*ops) -> Changeset:
    """``(op, relation-less R row[, cells])`` or ``(op, "S", row)``."""
    changeset = Changeset()
    for op, row, *rest in ops:
        if row == "S":
            getattr(changeset, op)("S", list(rest[0]))
        elif op == "update":
            changeset.update("R", list(row), **rest[0])
        else:
            getattr(changeset, op)("R", list(row))
    return changeset


@pytest.mark.parametrize(
    "batches",
    [
        # a clean row that is not its group's pivot leaves, then returns
        ([("delete", K5_MEMBER)], [("insert", K5_MEMBER)]),
        # the same inside a group that holds a violation
        ([("delete", K1_CLEAN)], [("insert", K1_CLEAN)]),
        # delete + insert in one batch: the row moves to the relation's end
        ([("delete", K1_CLEAN), ("insert", K1_CLEAN)],),
        # a clean group's pivot leaves (re-swept, still clean), then returns
        ([("delete", K5_PIVOT)], [("insert", K5_PIVOT)]),
        # a partition nobody has seen arrives clean, then leaves
        ([("insert", ("k7", "b0", "c0"))], [("delete", ("k7", "b0", "c0"))]),
        # a target row whose key nobody demands, and a second provider
        ([("insert", "S", ("c7",))], [("delete", "S", ("c7",))]),
    ],
    ids=[
        "clean-delete-then-undo",
        "clean-member-of-a-violating-group",
        "clean-row-re-added-in-one-batch",
        "clean-pivot-delete",
        "new-partition-insert",
        "undemanded-target-key",
    ],
)
def test_report_neutral_edits_hold_the_epoch(batches):
    reader = _reader()
    epoch = reader.engine.report_epoch
    for batch in batches:
        delta = reader.engine.apply(_changeset(*batch))
        assert delta.added == delta.removed == []
        assert reader.read(batch), "a report-neutral edit moved the epoch"
    assert reader.engine.report_epoch == epoch


def test_a_clean_pivot_delete_is_a_re_sweep_that_holds():
    # the hold above is not the O(1) patch path skipping the partition
    reader = _reader()
    before = reader.engine.stats.keys_reevaluated
    reader.engine.apply(_changeset(("delete", K5_PIVOT)))
    assert reader.engine.stats.keys_reevaluated == before + 1
    assert reader.read("clean pivot delete")


@pytest.mark.parametrize(
    "batch",
    [
        # a cell the report renders, outside every rule's LHS and RHS
        [("update", K1_WITNESS, {"C": "c1"})],
        # the pivot of a violating group: the pair re-pairs
        [("delete", K1_PIVOT)],
        # a source row of the IND gains its provider / a provider leaves
        [("insert", "S", ("c9",))],
        [("delete", "S", ("c1",))],
    ],
    ids=["witness-update", "violating-pivot-delete", "key-gained", "key-lost"],
)
def test_report_changing_edits_move_the_epoch(batch):
    reader = _reader()
    epoch = reader.engine.report_epoch
    reader.engine.apply(_changeset(*batch))
    assert reader.engine.report_epoch > epoch
    assert not reader.read(batch)


def _witness_ids(engine):
    return {id(t) for v in engine.ordered_violations() for _, t in v.tuples}


def test_delete_and_insert_of_an_equal_witness_moves_the_epoch():
    """The reported delta nets out — ``added == removed == []`` — yet the
    report now holds the re-added row's ``Tuple`` object, at the end."""
    reader = _reader()
    engine = reader.engine
    epoch, before = engine.report_epoch, _witness_ids(engine)
    delta = engine.apply(
        _changeset(("delete", K1_WITNESS), ("insert", K1_WITNESS))
    )
    assert delta.added == delta.removed == []
    assert engine.report_epoch > epoch
    assert not reader.read("equal witness re-added")
    assert _witness_ids(engine) - before, "the report holds the deleted object"


def test_a_re_add_that_renders_differently_moves_the_epoch():
    """``3 == 3.0``: equal tuples, different bytes on the wire."""
    schema = DatabaseSchema([RelationSchema("R", [("A", STRING), ("W", FLOAT)])])
    deps = [FD("R", ["A"], ["W"])]
    db = DatabaseInstance(schema)
    db.adopt(
        "R",
        RelationInstance(schema.relation("R"), [("k", 1.5), ("k", 3), ("j", 2.5)]),
    )
    engine = DeltaEngine(db, deps)
    (violation,) = engine.ordered_violations()
    assert repr(violation.tuples[-1][1]["W"]) == "3"
    epoch = engine.report_epoch
    delta = engine.apply(
        Changeset()
        .delete("R", {"A": "k", "W": 3})
        .insert("R", {"A": "k", "W": 3.0})
    )
    assert delta.added == delta.removed == []
    assert engine.report_epoch > epoch
    (violation,) = engine.ordered_violations()
    assert repr(violation.tuples[-1][1]["W"]) == "3.0"
    fresh = detect_violations_indexed(db, deps).violations
    assert violation_sequence([violation]) == violation_sequence(fresh)


def test_a_failed_apply_moves_the_epoch():
    reader = _reader()
    epoch = reader.engine.report_epoch
    bad = _changeset(
        ("delete", K1_PIVOT), ("update", ("no", "such", "row"), {"B": "b0"})
    )
    with pytest.raises(KeyError):
        reader.engine.apply(bad)
    # the rollback re-added the pivot at the relation's end
    assert reader.engine.report_epoch > epoch
    assert not reader.read("after the rollback")


def test_touching_a_denial_constraints_relation_moves_the_epoch():
    """A fallback dependency is re-scanned whole: new ``Violation``s, and
    nothing says their order held."""
    deny = DenialConstraint(("R",), Comparison("@t0.B", "=", "b1"), name="no-b1")
    reader = _reader(DEPS + [deny])
    engine = reader.engine
    epoch, rescans = engine.report_epoch, engine.stats.fallback_rescans
    # the clean delete that holds the epoch without the denial rule
    engine.apply(_changeset(("delete", K5_MEMBER)))
    assert engine.stats.fallback_rescans == rescans + 1
    assert engine.report_epoch > epoch
    reader.read("denial relation touched")
    # S is not one of its relations: an S-only edit still holds
    epoch = engine.report_epoch
    engine.apply(_changeset(("insert", "S", ("c7",))))
    assert engine.report_epoch == epoch
    assert reader.read("denial relation untouched")


def test_no_two_engines_or_rebuilds_share_an_epoch():
    seen = set()

    def note(engine):
        assert engine.report_epoch not in seen
        seen.add(engine.report_epoch)

    for _ in range(2):
        db = DatabaseInstance(SCHEMA, {"R": R_DATA, "S": S_DATA})
        first = DeltaEngine(db, DEPS)
        note(first)
        note(DeltaEngine(db, DEPS))  # a second engine over the same data
        first.refresh()
        note(first)
        first.apply(_changeset(("delete", K1_PIVOT)))
        note(first)


def test_the_memo_hands_every_caller_a_list_of_its_own():
    reader = _reader()
    engine = reader.engine
    mine = engine.ordered_violations()
    expected = list(mine)
    assert engine.ordered_violations() is not mine
    mine.reverse()
    mine.pop()
    assert engine.ordered_violations() == expected
    # … and across a report-neutral edit, which serves the memo
    engine.apply(_changeset(("insert", ("k7", "b0", "c0"))))
    assert engine.ordered_violations() == expected
    reader.read("after mutating a returned list")


# -- hypothesis: arbitrary changesets over a small universe ----------------

R_ROWS = st.tuples(
    st.sampled_from(["k1", "k2", "k3"]),
    st.sampled_from(["b0", "b1", "b2"]),
    st.sampled_from(["c0", "c1", "c2"]),
)
S_ROWS = st.tuples(st.sampled_from(["c0", "c1", "c2"]), st.sampled_from(["y", "n"]))
R_OPS = st.one_of(
    st.tuples(st.just("insert"), st.just("R"), R_ROWS),
    st.tuples(st.just("delete"), st.just("R"), R_ROWS),
    st.tuples(
        st.just("update"),
        st.just("R"),
        R_ROWS,
        st.fixed_dictionaries(
            {},
            optional={
                "B": st.sampled_from(["b0", "b1", "b2"]),
                "C": st.sampled_from(["c0", "c1", "c2"]),
            },
        ).filter(bool),
    ),
)
S_OPS = st.tuples(st.sampled_from(["insert", "delete"]), st.just("S"), S_ROWS)
BATCHES = st.lists(st.one_of(R_OPS, S_OPS), min_size=1, max_size=6)


@given(
    rows=st.lists(R_ROWS, max_size=10, unique=True),
    s_rows=st.lists(S_ROWS, max_size=4, unique=True),
    batches=st.lists(BATCHES, min_size=1, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_epoch_under_arbitrary_changesets(rows, s_rows, batches):
    """Small universe, so deletes of absent rows, duplicate inserts,
    delete + re-insert of an equal row, colliding and absent-target
    updates (a failed apply: rollback + ``refresh()``) all come up."""
    schema, deps = _ordered_case()
    db = DatabaseInstance(schema)
    for row in rows:
        db.relation("R").add(list(row))
    for row in s_rows:
        db.relation("S").add(list(row))
    reader = _Reader(db, deps)
    for index, batch in enumerate(batches):
        changeset = Changeset()
        for op, relation, row, *cells in batch:
            if op == "update":
                changeset.update(relation, list(row), **cells[0])
            else:
                getattr(changeset, op)(relation, list(row))
        try:
            reader.engine.apply(changeset)
        except KeyError:
            pass  # an update of an absent row: rolled back and refreshed
        reader.read(f"batch {index}: {batch}")
