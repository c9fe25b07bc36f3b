"""Indexed batch detection must equal the naive full scans, exactly.

The engine's whole contract is that sharing scans changes *nothing* about
the result: for every dependency mix and every database, the multiset of
(dependency, witnesses, reason) triples is identical to what the original
per-dependency, per-tableau-row detectors produce.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd.detect import detect_violations
from repro.cfd.model import CFD, UNNAMED
from repro.cind.model import CIND
from repro.deps import all_violations
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.executor import ExecutionStats, execute_plan
from repro.engine.naive import detect_violations_naive, naive_violations
from repro.engine.planner import plan_detection
from repro.paper import (
    fig1_fds,
    fig1_instance,
    fig2_cfds,
    fig3_instance,
    fig3_naive_inds,
    fig4_cinds,
)
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads.customer import CustomerConfig, CustomerWorkload, generate_customers


def _multiset(violations):
    return Counter(
        (id(v.dependency), v.tuples, v.reason) for v in violations
    )


def assert_equivalent(db, deps):
    engine = detect_violations(db, deps)
    naive = detect_violations_naive(db, deps)
    assert _multiset(engine.violations) == _multiset(naive.violations)
    # the per-dependency facade agrees as well
    for dep in deps:
        assert _multiset(dep.violations(db)) == _multiset(
            naive_violations(dep, db)
        )


class TestPaperFixtures:
    def test_fig2_cfds_and_fds(self):
        db = fig1_instance()
        deps = list(fig2_cfds().values()) + fig1_fds()
        assert_equivalent(db, deps)

    def test_fig4_cinds_and_inds(self):
        db = fig3_instance()
        deps = list(fig4_cinds().values()) + list(fig3_naive_inds())
        assert_equivalent(db, deps)

    def test_customer_workload(self):
        workload = generate_customers(CustomerConfig(n_tuples=400, seed=3))
        deps = CustomerWorkload.cfds() + CustomerWorkload.fds()
        assert_equivalent(workload.db, deps)


class TestExecutorBehaviour:
    def test_constant_patterns_resolve_by_lookup(self):
        schema = RelationSchema("R", [("A", STRING), ("B", STRING)])
        db = DatabaseInstance(
            DatabaseSchema([schema]), {"R": [("a", "x"), ("b", "y")]}
        )
        constant = CFD(
            "R", ["A"], ["B"], [{"A": "a", "B": "x"}, {"A": "b", "B": "z"}]
        )
        stats = ExecutionStats()
        execute_plan(db, plan_detection([constant]), stats)
        # fully-constant LHS patterns → hash lookups, no partition sweep
        assert stats.constant_lookups == 2
        assert stats.swept_patterns == 0
        report = detect_violations(db, [constant])
        assert report.total == 1  # ("b", "y") clashes with the B="z" constant

    def test_partition_built_once_for_twenty_cfds(self):
        workload = generate_customers(CustomerConfig(n_tuples=200, seed=5))
        base = CustomerWorkload.cfds()[1]  # cfd-area-city
        clones = [
            CFD(
                base.relation_name,
                base.lhs,
                base.rhs,
                base.tableau,
                name=f"clone-{i}",
            )
            for i in range(20)
        ]
        relation = workload.db.relation("customer")
        report = detect_violations(workload.db, clones)
        assert relation.indexes.stats.builds == 1
        assert report.total == 20 * len(
            list(naive_violations(clones[0], workload.db))
        )

    def test_engine_flag_off_matches_on(self):
        """The per-dependency loop (what ``engine=False`` once selected)
        finds what the planned engine finds."""
        db = fig1_instance()
        deps = list(fig2_cfds().values()) + fig1_fds()
        on = detect_violations(db, deps)
        off = all_violations(db, deps)
        assert _multiset(on.violations) == _multiset(off)


def _random_db_and_deps(rng: random.Random):
    values = ["a", "b", "c"]
    r_schema = RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])
    s_schema = RelationSchema("S", [("X", STRING), ("Y", STRING)])
    db = DatabaseInstance(DatabaseSchema([r_schema, s_schema]))
    for _ in range(rng.randrange(0, 25)):
        db.relation("R").add([rng.choice(values) for _ in range(3)])
    for _ in range(rng.randrange(0, 12)):
        db.relation("S").add([rng.choice(values) for _ in range(2)])

    def pattern_cell():
        return rng.choice(values + [UNNAMED])

    deps = []
    for i in range(rng.randrange(1, 6)):
        lhs = rng.sample(["A", "B", "C"], rng.randrange(1, 3))
        rhs = [rng.choice([a for a in ("A", "B", "C") if a not in lhs])]
        rows = [
            {a: pattern_cell() for a in lhs + rhs}
            for _ in range(rng.randrange(1, 4))
        ]
        deps.append(CFD("R", lhs, rhs, rows, name=f"cfd-{i}"))
    for _ in range(rng.randrange(0, 3)):
        lhs = rng.sample(["A", "B", "C"], rng.randrange(1, 3))
        rhs = [rng.choice([a for a in ("A", "B", "C") if a not in lhs])]
        deps.append(FD("R", lhs, rhs))
    deps.append(IND("R", ["A"], "S", ["X"]))
    deps.append(
        CIND(
            "R",
            ["A"],
            "S",
            ["X"],
            lhs_pattern_attrs=["B"],
            rhs_pattern_attrs=["Y"],
            tableau=[{"B": rng.choice(values), "Y": rng.choice(values)}],
        )
    )
    rng.shuffle(deps)
    return db, deps


def test_randomized_equivalence_sweep():
    for seed in range(40):
        db, deps = _random_db_and_deps(random.Random(seed))
        assert_equivalent(db, deps)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from("ab"), st.sampled_from("ab"), st.sampled_from("ab")
        ),
        max_size=12,
    ),
    lhs=st.sampled_from([("A",), ("B",), ("A", "B"), ("C",)]),
    pattern=st.tuples(
        st.sampled_from(["a", "b", UNNAMED]), st.sampled_from(["a", "b", UNNAMED])
    ),
)
def test_property_single_cfd_equivalence(rows, lhs, pattern):
    schema = RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])
    db = DatabaseInstance(DatabaseSchema([schema]), {"R": rows})
    rhs = [a for a in ("A", "B", "C") if a not in lhs][0]
    row = {a: p for a, p in zip(lhs, pattern)}
    row[rhs] = pattern[-1]
    cfd = CFD("R", list(lhs), [rhs], [row])
    assert _multiset(cfd.violations(db)) == _multiset(naive_violations(cfd, db))


@settings(max_examples=40, deadline=None)
@given(
    source=st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=10),
    target=st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=10),
    pattern=st.sampled_from(["a", "b"]),
)
def test_property_cind_equivalence(source, target, pattern):
    r = RelationSchema("R", [("A", STRING), ("B", STRING)])
    s = RelationSchema("S", [("X", STRING), ("Y", STRING)])
    db = DatabaseInstance(DatabaseSchema([r, s]), {"R": source, "S": target})
    cind = CIND(
        "R",
        ["A"],
        "S",
        ["X"],
        lhs_pattern_attrs=["B"],
        rhs_pattern_attrs=["Y"],
        tableau=[{"B": pattern, "Y": pattern}],
    )
    ind = IND("R", ["A", "B"], "S", ["X", "Y"])
    assert_equivalent(db, [cind, ind])
