"""Regression: CIND detection must not rebuild the target index per row.

The seed's CIND detector rebuilt the (Yp → Y-keys) target index once per
pattern tableau row.  The lookup goes through the one counted target
index, ``grouped_key_counts``, cached per (target, Yp, Y) and counted in
``IndexStats`` like every other index.  These tests pin that with the
index build counters: however many rows the tableau has, however many
CINDs share the signature, and whether the executor or the delta engine
asks, the index is built exactly once.
"""

from repro.cind.model import CIND
from repro.engine.delta import DeltaEngine, violation_sequence
from repro.engine.executor import detect_violations_indexed
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema


def _db():
    r = RelationSchema("R", [("A", STRING), ("B", STRING)])
    s = RelationSchema("S", [("X", STRING), ("Y", STRING)])
    return DatabaseInstance(
        DatabaseSchema([r, s]),
        {
            "R": [("a", "p"), ("b", "q"), ("c", "p")],
            "S": [("a", "u"), ("b", "v"), ("z", "u")],
        },
    )


def _multi_row_cind(name="psi"):
    return CIND(
        "R",
        ["A"],
        "S",
        ["X"],
        rhs_pattern_attrs=["Y"],
        tableau=[{"Y": "u"}, {"Y": "v"}, {"Y": "w"}],
        name=name,
    )


class TestTargetIndexBuiltOnce:
    def test_single_cind_with_multi_row_tableau(self):
        db = _db()
        cind = _multi_row_cind()
        list(cind.violations(db))
        stats = db.relation("S").indexes.stats
        assert stats.builds == 1  # one counted index build for 3 rows
        assert stats.invalidations == 0

    def test_repeated_detection_hits_the_cache(self):
        db = _db()
        cind = _multi_row_cind()
        first = list(cind.violations(db))
        second = list(cind.violations(db))
        stats = db.relation("S").indexes.stats
        assert stats.builds == 1
        assert stats.hits >= 1
        assert first == second

    def test_cinds_sharing_signature_share_one_build(self):
        db = _db()
        deps = [_multi_row_cind("psi1"), _multi_row_cind("psi2")]
        detect_violations_indexed(db, deps)
        assert db.relation("S").indexes.stats.builds == 1

    def test_row_scoping_unaffected_by_sharing(self):
        """The shared index must still answer per-row: each row only sees
        the target tuples matching its own Yp constants."""
        db = _db()
        cind = _multi_row_cind()
        violations = list(cind.violations(db))
        # row Y='u' provides {a, z}; Y='v' provides {b}; Y='w' nothing.
        # Every R tuple demands its A under all three rows.
        witnesses = sorted(t["A"] for v in violations for _, t in v.tuples)
        # row Y='u' provides keys {a, z} → strands b, c;
        # row Y='v' provides {b} → strands a, c;
        # row Y='w' provides nothing → strands a, b, c.
        assert witnesses == ["a", "a", "b", "b", "c", "c", "c"]

    def test_engine_build_after_a_detect_hits_the_detects_index(self):
        """The delta engine seeds its target counts from the index the
        detect built: S's index is built once, and hit after."""
        db = _db()
        deps = [_multi_row_cind()]
        report = detect_violations_indexed(db, deps)
        stats = db.relation("S").indexes.stats
        assert (stats.builds, stats.hits) == (1, 0)
        engine = DeltaEngine(db, deps)
        assert (stats.builds, stats.hits) == (1, 1)
        assert violation_sequence(engine.ordered_violations()) == (
            violation_sequence(report.violations)
        )
