"""CFDs + CINDs taken together: the bounded three-valued checker."""

import pytest

from repro.cfd.model import CFD, UNNAMED
from repro.cind.interaction import Verdict, check_joint_consistency
from repro.cind.model import CIND
from repro.deps.base import holds
from repro.relational.domains import STRING
from repro.relational.schema import DatabaseSchema, RelationSchema


def _schema():
    return DatabaseSchema(
        [
            RelationSchema("R", [("a", STRING), ("b", STRING)]),
            RelationSchema("S", [("c", STRING), ("d", STRING)]),
        ]
    )


class TestJointConsistency:
    def test_trivially_consistent(self):
        result = check_joint_consistency(_schema(), [], [])
        assert result.verdict == Verdict.CONSISTENT

    def test_witness_is_returned_and_valid(self):
        cfds = [CFD("R", ["a"], ["b"], [{"a": UNNAMED, "b": "b1"}])]
        cinds = [CIND("R", ["a"], "S", ["c"])]
        result = check_joint_consistency(_schema(), cfds, cinds)
        assert result.verdict == Verdict.CONSISTENT
        assert result.witness is not None
        assert not result.witness.is_empty()
        assert holds(result.witness, list(cfds) + list(cinds))

    def test_cfd_only_inconsistency_detected(self):
        cfds = [
            CFD("R", ["a"], ["b"], [{"a": UNNAMED, "b": "b1"}]),
            CFD("R", ["a"], ["b"], [{"a": UNNAMED, "b": "b2"}]),
        ]
        result = check_joint_consistency(_schema(), cfds, [])
        assert result.verdict == Verdict.INCONSISTENT

    def test_cind_forces_cfd_conflict(self):
        """The undecidable-in-general interaction, on a decidable instance:
        the CIND copies R.a into S.c where CFDs pin S.d two ways."""
        cfds = [
            CFD("S", ["c"], ["d"], [{"c": UNNAMED, "d": "x"}]),
            CFD("S", ["c"], ["d"], [{"c": UNNAMED, "d": "y"}]),
        ]
        cinds = [CIND("R", ["a"], "S", ["c"])]
        result = check_joint_consistency(
            _schema(), cfds, cinds, nonempty_relation="R"
        )
        assert result.verdict == Verdict.INCONSISTENT

    def test_consistent_interaction(self):
        cfds = [
            CFD("S", ["c"], ["d"], [{"c": UNNAMED, "d": "x"}]),
        ]
        cinds = [
            CIND(
                "R", ["a"], "S", ["c"],
                rhs_pattern_attrs=["d"], tableau=[{"d": "x"}],
            )
        ]
        result = check_joint_consistency(
            _schema(), cfds, cinds, nonempty_relation="R"
        )
        assert result.verdict == Verdict.CONSISTENT
        assert holds(result.witness, list(cfds) + list(cinds))

    def test_a_cfd_pair_conflict_across_two_target_tuples(self):
        """Two CINDs copy R.a into S.c with S.d pinned 'x' and 'y': the
        search must add two S tuples that agree on c, and the variable
        CFD c -> d refuses that *pair* (``_cfd_ok_pair``) though each
        tuple alone matches its pattern."""
        cfds = [CFD("S", ["c"], ["d"], [{"c": UNNAMED, "d": UNNAMED}])]
        cinds = [
            CIND(
                "R", ["a"], "S", ["c"],
                rhs_pattern_attrs=["d"], tableau=[{"d": value}],
            )
            for value in ("x", "y")
        ]
        result = check_joint_consistency(
            _schema(), cfds, cinds, nonempty_relation="R"
        )
        assert result.verdict == Verdict.INCONSISTENT
        assert not result.bound_hit

    def test_pattern_clash_with_copied_value(self):
        """The CIND wants S.d = 'x' but also copies R.b (= 'y') into S.d."""
        cfds = [CFD("R", ["a"], ["b"], [{"a": UNNAMED, "b": "y"}])]
        cinds = [
            CIND(
                "R", ["a", "b"], "S", ["c", "d"],
            ),
            CIND(
                "R", ["a"], "S", ["c"],
                rhs_pattern_attrs=["d"], tableau=[{"d": "x"}],
            ),
        ]
        # consistent: the two CINDs can be satisfied by two different S
        # tuples (one with d='y' copied, one with d='x')
        result = check_joint_consistency(
            _schema(), cfds, cinds, nonempty_relation="R", max_tuples=6
        )
        assert result.verdict == Verdict.CONSISTENT

    def test_unknown_on_tight_bounds(self):
        cfds = [
            CFD("S", ["c"], ["d"], [{"c": UNNAMED, "d": "x"}]),
            CFD("S", ["c"], ["d"], [{"c": UNNAMED, "d": "y"}]),
        ]
        cinds = [CIND("R", ["a"], "S", ["c"])]
        result = check_joint_consistency(
            _schema(), cfds, cinds, nonempty_relation="R", max_nodes=2
        )
        assert result.verdict in (Verdict.UNKNOWN, Verdict.INCONSISTENT)
        if result.verdict == Verdict.UNKNOWN:
            assert result.bound_hit
