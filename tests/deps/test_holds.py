"""``holds`` / ``all_violations``: one plan over the whole set, and a
dependency outside the planner stops at its first violation."""

from repro.cind.model import CIND
from repro.deps.base import Dependency, all_violations, holds
from repro.deps.denial import fd_as_denial
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine import executor
from repro.engine.delta import violation_sequence
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema


class _Counted(Dependency):
    """A fallback dependency that counts the violations pulled from it."""

    def __init__(self, inner):
        self.inner = inner
        self.pulled = 0

    def relations(self):
        return self.inner.relations()

    def violations(self, db):
        for violation in self.inner.violations(db):
            self.pulled += 1
            yield violation


def _db():
    schema = DatabaseSchema(
        [
            RelationSchema("R", [("A", STRING), ("B", STRING)]),
            RelationSchema("S", [("X", STRING), ("Y", STRING)]),
        ]
    )
    db = DatabaseInstance(schema)
    db.relation("R").extend_rows([("a", "x"), ("a", "y"), ("b", "x"), ("c", "z")])
    db.relation("S").extend_rows([("a", "u"), ("b", "v")])
    return db


def _rules():
    return [
        FD("R", ["A"], ["B"]),
        FD("R", ["B"], ["A"]),
        IND("R", ["A"], "S", ["X"]),
        CIND("R", ["A"], "S", ["X"], rhs_pattern_attrs=["Y"], tableau=[{"Y": "u"}]),
        fd_as_denial(FD("R", ["A"], ["B"])),
    ]


def test_the_whole_set_runs_as_one_plan(monkeypatch):
    db, rules = _db(), _rules()
    expected = violation_sequence(
        executor.detect_violations_indexed(db, rules).violations
    )
    runs = []
    execute = executor.execute_plan
    monkeypatch.setattr(
        executor,
        "execute_plan",
        lambda db, plan, stats=None: runs.append(plan) or execute(db, plan, stats),
    )
    assert violation_sequence(all_violations(db, rules)) == expected
    assert len(runs) == 1
    clean = [FD("R", ["B"], ["B"]), FD("R", ["A"], ["A"]), IND("R", ["A"], "R", ["A"])]
    assert holds(db, clean)
    assert len(runs) == 2
    assert not holds(db, rules)


def test_a_fallback_dependency_stops_at_its_first_violation():
    db = _db()
    denial = _Counted(fd_as_denial(FD("R", ["A"], ["B"])))
    db.relation("R").extend_rows([("a", "w"), ("a", "v")])
    assert not holds(db, [IND("R", ["A"], "R", ["A"]), denial])
    assert denial.pulled == 1
    assert len(all_violations(db, [denial])) == denial.pulled - 1 > 1
