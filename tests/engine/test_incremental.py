"""Single-edit what-ifs (``DeltaEngine.probe``) vs. materialized re-checks.

Ground truth for every case: copy the base database, apply the edit, and
run ``holds``.  The probe — apply the edit, read ``clean_after``, undo —
must agree, and must leave the database's content and the maintained
violation count as they were.  (These are the cases of the retired ``IncrementalChecker``; a base
that satisfies the dependency set was its precondition, and every case
here starts from one.)
"""

from __future__ import annotations

import random

from repro.cfd.model import CFD, UNNAMED
from repro.cind.model import CIND
from repro.deps.base import holds
from repro.deps.denial import fd_as_denial
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.delta import Changeset, DeltaEngine
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.tuples import Tuple


def _schemas():
    r = RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])
    s = RelationSchema("S", [("X", STRING), ("Y", STRING)])
    return DatabaseSchema([r, s])


def _materialized(db, deps, rel, removed=None, added=None):
    trial = db.copy()
    if removed is not None:
        trial.relation(rel).discard(removed)
    if added is not None:
        trial.relation(rel).add(added)
    return holds(trial, deps)


class _Probe:
    """``consistent_after`` on a warm engine: one probe per question."""

    def __init__(self, db, deps):
        self.db = db
        self.engine = DeltaEngine(db, deps)

    def consistent_after(self, rel, removed=None, added=None):
        # (the undo re-appends a removed tuple at its relation's end)
        before = [set(r) for r in self.db], self.engine.total_violations()
        edit = Changeset()
        if removed is not None:
            edit.delete(rel, removed)
        if added is not None:
            edit.insert(rel, added)
        clean = self.engine.probe(edit).clean_after
        after = [set(r) for r in self.db], self.engine.total_violations()
        assert after == before
        return clean


def _assert_matches(db, deps, rel, removed=None, added=None):
    checker = _Probe(db, deps)
    expected = _materialized(db, deps, rel, removed, added)
    assert checker.consistent_after(rel, removed=removed, added=added) == expected


class TestScanDependencies:
    def _db(self, rows):
        return DatabaseInstance(_schemas(), {"R": rows})

    def test_addition_violating_fd(self):
        db = self._db([("a", "x", "1")])
        fd = FD("R", ["A"], ["B"])
        bad = Tuple(db.relation("R").schema, ("a", "y", "2"))
        good = Tuple(db.relation("R").schema, ("b", "y", "2"))
        _assert_matches(db, [fd], "R", added=bad)
        _assert_matches(db, [fd], "R", added=good)
        assert not _Probe(db, [fd]).consistent_after("R", added=bad)

    def test_addition_violating_constant_cfd(self):
        db = self._db([("b", "x", "1")])
        cfd = CFD("R", ["A"], ["B"], [{"A": "a", "B": "x"}])
        bad = Tuple(db.relation("R").schema, ("a", "y", "2"))
        _assert_matches(db, [cfd], "R", added=bad)
        assert not _Probe(db, [cfd]).consistent_after("R", added=bad)

    def test_replacement_within_group(self):
        db = self._db([("a", "x", "1"), ("a", "x", "2")])
        fd = FD("R", ["A"], ["B"])
        old = db.relation("R").tuples()[0]
        replacement = old.replace(B="y")  # still groups with the survivor
        _assert_matches(db, [fd], "R", removed=old, added=replacement)
        assert not _Probe(db, [fd]).consistent_after(
            "R", removed=old, added=replacement
        )

    def test_removal_alone_never_breaks_scans(self):
        db = self._db([("a", "x", "1"), ("b", "y", "2")])
        deps = [FD("R", ["A"], ["B"]), CFD("R", ["A"], ["B"], [{"A": "a", "B": "x"}])]
        for t in db.relation("R").tuples():
            _assert_matches(db, deps, "R", removed=t)
            assert _Probe(db, deps).consistent_after("R", removed=t)


class TestInclusionDependencies:
    def _db(self, r_rows, s_rows):
        return DatabaseInstance(_schemas(), {"R": r_rows, "S": s_rows})

    def test_source_addition_demanding_missing_key(self):
        db = self._db([("a", "x", "1")], [("a", "p")])
        ind = IND("R", ["A"], "S", ["X"])
        orphan = Tuple(db.relation("R").schema, ("z", "x", "2"))
        matched = Tuple(db.relation("R").schema, ("a", "y", "2"))
        _assert_matches(db, [ind], "R", added=orphan)
        _assert_matches(db, [ind], "R", added=matched)

    def test_target_removal_strands_source(self):
        db = self._db([("a", "x", "1")], [("a", "p"), ("b", "q")])
        ind = IND("R", ["A"], "S", ["X"])
        provider = db.relation("S").tuples()[0]  # ("a", "p")
        spare = db.relation("S").tuples()[1]
        _assert_matches(db, [ind], "S", removed=provider)
        _assert_matches(db, [ind], "S", removed=spare)
        assert not _Probe(db, [ind]).consistent_after(
            "S", removed=provider
        )

    def test_target_removal_with_second_provider(self):
        db = self._db([("a", "x", "1")], [("a", "p"), ("a", "q")])
        ind = IND("R", ["A"], "S", ["X"])
        provider = db.relation("S").tuples()[0]
        _assert_matches(db, [ind], "S", removed=provider)
        assert _Probe(db, [ind]).consistent_after("S", removed=provider)

    def test_target_replacement_keeps_key(self):
        db = self._db([("a", "x", "1")], [("a", "p")])
        ind = IND("R", ["A"], "S", ["X"])
        provider = db.relation("S").tuples()[0]
        replacement = provider.replace(Y="q")
        _assert_matches(db, [ind], "S", removed=provider, added=replacement)
        assert _Probe(db, [ind]).consistent_after(
            "S", removed=provider, added=replacement
        )

    def test_cind_pattern_scoping(self):
        cind = CIND(
            "R",
            ["A"],
            "S",
            ["X"],
            lhs_pattern_attrs=["B"],
            rhs_pattern_attrs=["Y"],
            tableau=[{"B": "x", "Y": "p"}],
        )
        db = self._db([("a", "x", "1")], [("a", "p"), ("a", "q")])
        # removing the ("a", "q") tuple is irrelevant: wrong Y pattern
        irrelevant = db.relation("S").tuples()[1]
        provider = db.relation("S").tuples()[0]
        _assert_matches(db, [cind], "S", removed=irrelevant)
        _assert_matches(db, [cind], "S", removed=provider)
        # a source tuple outside the Xp pattern is unconstrained
        unscoped = Tuple(db.relation("R").schema, ("zz", "y", "2"))
        _assert_matches(db, [cind], "R", added=unscoped)


class TestFallbackAndEdgeCases:
    def _db(self, rows):
        return DatabaseInstance(_schemas(), {"R": rows})

    def test_noop_change(self):
        db = self._db([("a", "x", "1")])
        t = db.relation("R").tuples()[0]
        checker = _Probe(db, [FD("R", ["A"], ["B"])])
        assert checker.consistent_after("R", removed=t, added=t)
        assert checker.consistent_after("R")

    def test_adding_already_present_tuple(self):
        db = self._db([("a", "x", "1"), ("b", "y", "2")])
        existing = db.relation("R").tuples()[0]
        checker = _Probe(db, [FD("R", ["A"], ["B"])])
        assert checker.consistent_after("R", added=existing)

    def test_denial_constraint_falls_back_to_full_check(self):
        fd = FD("R", ["A"], ["B"])
        denial = fd_as_denial(fd)
        db = self._db([("a", "x", "1")])
        bad = Tuple(db.relation("R").schema, ("a", "y", "2"))
        _assert_matches(db, [denial], "R", added=bad)
        assert not _Probe(db, [denial]).consistent_after("R", added=bad)


def test_randomized_against_materialized_ground_truth():
    values = ["a", "b"]
    schema = _schemas()
    deps = [
        FD("R", ["A"], ["B"]),
        CFD("R", ["A", "B"], ["C"], [{"A": "a", "B": UNNAMED, "C": UNNAMED}]),
        IND("R", ["A"], "S", ["X"]),
        CIND(
            "R",
            ["C"],
            "S",
            ["Y"],
            lhs_pattern_attrs=["A"],
            tableau=[{"A": "a"}],
        ),
    ]
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        db = DatabaseInstance(schema)
        for _ in range(rng.randrange(0, 8)):
            db.relation("R").add([rng.choice(values) for _ in range(3)])
        for _ in range(rng.randrange(0, 6)):
            db.relation("S").add([rng.choice(values) for _ in range(2)])
        if not holds(db, deps):
            continue  # the question is asked of a consistent base
        checker = _Probe(db, deps)
        edits = []
        for rel in ("R", "S"):
            arity = len(db.relation(rel).schema)
            fresh = Tuple(
                db.relation(rel).schema,
                [rng.choice(values) for _ in range(arity)],
            )
            edits.append((rel, None, fresh))
            for t in db.relation(rel).tuples():
                edits.append((rel, t, None))
                edits.append((rel, t, fresh))
        for rel, removed, added in edits:
            expected = _materialized(db, deps, rel, removed, added)
            actual = checker.consistent_after(rel, removed=removed, added=added)
            assert actual == expected, (seed, rel, removed, added)
            checked += 1
    assert checked > 300  # the sweep actually exercised consistent bases
