"""Differential harness: naive vs indexed vs delta on generated cases.

Three execution paths must agree on every violation set:

* **naive** — the original per-dependency full scans
  (:func:`repro.engine.naive.detect_violations_naive`), the oracle;
* **indexed** — the planned batch executor over shared indexes
  (:func:`repro.engine.executor.detect_violations_indexed`);
* **delta** — :class:`repro.engine.delta.DeltaEngine`, whose maintained
  violation set is checked after construction *and* after every random
  edit batch it absorbs.

Cases are seeded-random and come in three phases: a mixed legacy phase
(FDs, CFDs, eCFDs, INDs, CINDs), an inclusion-focused phase (IND/CIND
rule sets under key-churning edit batches) and a denial-focused phase
(single-atom, FD-shaped and cross-relation denial constraints) — so all
six constraint classes meet batched inserts, deletes and cell updates.
The comparison is exact — multisets over (dependency, ordered witness
tuples), so even witness order inside a pair violation must match.  A
fourth, independent oracle — a sqlite3 ``NOT EXISTS`` anti-join per
tableau row — checks every IND/CIND witness list of the detect and of
the delta engine's ordered read.
"""

from __future__ import annotations

import random
import sqlite3
from typing import List

import pytest

from repro.cfd.ecfd import ECFD, SetPattern
from repro.cfd.model import CFD, UNNAMED
from repro.cind.model import CIND
from repro.deps.denial import DenialConstraint
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.delta import (
    Changeset,
    DeltaEngine,
    _ScanState,
    violation_multiset,
    violation_sequence,
)
from repro.engine.executor import detect_violations_indexed
from repro.engine.naive import detect_violations_naive
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.predicates import And, Comparison
from repro.relational.schema import DatabaseSchema, RelationSchema
from tests.engine.reference import swept_scan_state, swept_violations

N_CASES = 220  # legacy mixed phase
N_INCLUSION_CASES = 60  # IND/CIND-focused phase
N_DENIAL_CASES = 60  # denial-constraint-focused phase
TOTAL_CASES = N_CASES + N_INCLUSION_CASES + N_DENIAL_CASES
VALUES = ["a", "b", "c"]


def _random_schema(rng: random.Random) -> DatabaseSchema:
    r_arity = rng.randrange(3, 5)
    s_arity = rng.randrange(2, 4)
    r = RelationSchema("R", [(f"A{i}", STRING) for i in range(r_arity)])
    s = RelationSchema("S", [(f"X{i}", STRING) for i in range(s_arity)])
    return DatabaseSchema([r, s])


def _random_instance(schema: DatabaseSchema, rng: random.Random) -> DatabaseInstance:
    db = DatabaseInstance(schema)
    for rel in schema:
        for _ in range(rng.randrange(0, 9)):
            db.relation(rel.name).add(
                [rng.choice(VALUES) for _ in range(len(rel))]
            )
    return db


def _random_fd(attrs: List[str], rng: random.Random) -> FD:
    lhs = rng.sample(attrs, rng.randrange(1, min(3, len(attrs))))
    rhs = [rng.choice([a for a in attrs if a not in lhs])]
    return FD("R", lhs, rhs)


def _random_cfd(attrs: List[str], rng: random.Random) -> CFD:
    lhs = rng.sample(attrs, rng.randrange(1, min(3, len(attrs))))
    rhs = [rng.choice([a for a in attrs if a not in lhs])]
    rows = []
    for _ in range(rng.randrange(1, 4)):
        rows.append(
            {
                a: rng.choice([UNNAMED] + VALUES) if rng.random() < 0.7 else UNNAMED
                for a in lhs + rhs
            }
        )
    return CFD("R", lhs, rhs, rows)


def _random_ecfd(attrs: List[str], rng: random.Random) -> ECFD:
    lhs = rng.sample(attrs, rng.randrange(1, min(3, len(attrs))))
    rhs = [rng.choice([a for a in attrs if a not in lhs])]
    pattern = {}
    for a in lhs + rhs:
        if rng.random() < 0.5:
            continue  # wildcard
        values = rng.sample(VALUES, rng.randrange(1, 3))
        pattern[a] = SetPattern(values, negated=rng.random() < 0.4)
    return ECFD("R", lhs, rhs, pattern)


def _random_inclusion(schema: DatabaseSchema, rng: random.Random):
    r_attrs = list(schema.relation("R").attribute_names)
    s_attrs = list(schema.relation("S").attribute_names)
    width = rng.randrange(1, min(len(r_attrs), len(s_attrs)) + 1)
    lhs = rng.sample(r_attrs, width)
    rhs = rng.sample(s_attrs, width)
    if rng.random() < 0.5:
        return IND("R", lhs, "S", rhs)
    lhs_free = [a for a in r_attrs if a not in lhs]
    rhs_free = [a for a in s_attrs if a not in rhs]
    lhs_pat = rng.sample(lhs_free, rng.randrange(0, len(lhs_free) + 1))
    rhs_pat = rng.sample(rhs_free, rng.randrange(0, len(rhs_free) + 1))
    rows = []
    for _ in range(rng.randrange(1, 3)):
        row = {f"L.{a}": rng.choice(VALUES) for a in lhs_pat}
        row.update({f"R.{a}": rng.choice(VALUES) for a in rhs_pat})
        rows.append(row)
    return CIND(
        "R", lhs, "S", rhs,
        lhs_pattern_attrs=lhs_pat,
        rhs_pattern_attrs=rhs_pat,
        tableau=rows,
    )


def _random_denial(schema: DatabaseSchema, rng: random.Random) -> DenialConstraint:
    """A denial constraint in one of three shapes (all fallback-path).

    * single-atom: forbid an R tuple carrying 1–2 specific constants;
    * FD-shaped: two R atoms agreeing on one attribute, differing on
      another (pair witnesses, like a classical FD);
    * cross-relation: an R atom and an S atom agreeing on one attribute
      each (a forbidden join).
    """
    r_attrs = list(schema.relation("R").attribute_names)
    s_attrs = list(schema.relation("S").attribute_names)
    shape = rng.randrange(3)
    if shape == 0:
        picked = rng.sample(r_attrs, rng.randrange(1, 3))
        condition = And(
            [Comparison(f"@t0.{a}", "=", rng.choice(VALUES)) for a in picked]
        )
        return DenialConstraint(("R",), condition, name=f"deny-const-{picked}")
    if shape == 1:
        agree, differ = rng.sample(r_attrs, 2)
        condition = And(
            [
                Comparison(f"@t0.{agree}", "=", f"@t1.{agree}"),
                Comparison(f"@t0.{differ}", "!=", f"@t1.{differ}"),
            ]
        )
        return DenialConstraint(
            ("R", "R"), condition, name=f"deny-fd-{agree}-{differ}"
        )
    a = rng.choice(r_attrs)
    x = rng.choice(s_attrs)
    condition = And(
        [
            Comparison(f"@t0.{a}", "=", f"@t1.{x}"),
            Comparison(f"@t0.{a}", "=", rng.choice(VALUES)),
        ]
    )
    return DenialConstraint(("R", "S"), condition, name=f"deny-join-{a}-{x}")


def _random_dependencies(schema: DatabaseSchema, rng: random.Random) -> list:
    r_attrs = list(schema.relation("R").attribute_names)
    makers = [
        lambda: _random_fd(r_attrs, rng),
        lambda: _random_cfd(r_attrs, rng),
        lambda: _random_ecfd(r_attrs, rng),
        lambda: _random_inclusion(schema, rng),
    ]
    return [rng.choice(makers)() for _ in range(rng.randrange(2, 7))]


def _random_inclusion_dependencies(schema: DatabaseSchema, rng: random.Random) -> list:
    """IND/CIND-heavy rule sets: key churn is the whole story."""
    deps = [_random_inclusion(schema, rng) for _ in range(rng.randrange(2, 6))]
    if rng.random() < 0.3:
        deps.append(_random_fd(list(schema.relation("R").attribute_names), rng))
    return deps


def _random_denial_dependencies(schema: DatabaseSchema, rng: random.Random) -> list:
    """Denial-heavy rule sets (plus an occasional FD for partition churn)."""
    deps: list = [_random_denial(schema, rng) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.4:
        deps.append(_random_fd(list(schema.relation("R").attribute_names), rng))
    return deps


def _random_batch(db: DatabaseInstance, rng: random.Random) -> Changeset:
    cs = Changeset()
    consumed = set()  # tuples already deleted/updated this batch
    for _ in range(rng.randrange(1, 6)):
        rel = db.relation(rng.choice(["R", "S"]))
        live = [t for t in rel if t not in consumed]
        kind = rng.choice(["insert", "delete", "update"])
        if kind == "insert" or not live:
            cs.insert(
                rel.schema.name, [rng.choice(VALUES) for _ in range(len(rel.schema))]
            )
        elif kind == "delete":
            victim = rng.choice(live)
            consumed.add(victim)
            cs.delete(rel.schema.name, victim)
        else:
            victim = rng.choice(live)
            consumed.add(victim)
            attr = rng.choice(list(rel.schema.attribute_names))
            cs.update(rel.schema.name, victim, **{attr: rng.choice(VALUES)})
    return cs


# One canonical identity multiset shared with run_stream(verify=True) and
# bench_incremental: id() pins the shared dependency object; tuples keep
# witness order, so pair-violation orientation must agree across paths.
_multiset = violation_multiset


def _assert_all_paths_agree(db, deps, engine, context):
    naive = _multiset(detect_violations_naive(db, deps).violations)
    indexed = _multiset(detect_violations_indexed(db, deps).violations)
    assert naive == indexed, f"naive vs indexed diverged: {context}"
    maintained = _multiset(engine.violations())
    assert maintained == naive, f"delta vs naive diverged: {context}"


def _cases():
    """(case id, rng, dependency generator) for every corpus phase."""
    for seed in range(N_CASES):
        yield f"mixed-{seed}", random.Random(10_000 + seed), _random_dependencies
    for seed in range(N_INCLUSION_CASES):
        yield (
            f"inclusion-{seed}",
            random.Random(50_000 + seed),
            _random_inclusion_dependencies,
        )
    for seed in range(N_DENIAL_CASES):
        yield (
            f"denial-{seed}",
            random.Random(90_000 + seed),
            _random_denial_dependencies,
        )


def test_differential_naive_indexed_delta():
    checked_cases = 0
    checked_batches = 0
    classes_seen = set()
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        classes_seen.update(type(dep).__name__ for dep in deps)
        engine = DeltaEngine(db, deps)
        _assert_all_paths_agree(db, deps, engine, f"{case_id} initial")
        checked_cases += 1
        for batch_index in range(rng.randrange(1, 4)):
            delta = engine.apply(_random_batch(db, rng))
            # The delta's own bookkeeping must be internally consistent.
            assert delta.remaining == engine.total_violations()
            _assert_all_paths_agree(
                db, deps, engine, f"{case_id} batch={batch_index}"
            )
            checked_batches += 1
    assert checked_cases >= 320
    assert checked_batches >= 450
    # Every constraint class the system detects must appear in the corpus.
    assert {"FD", "CFD", "ECFD", "IND", "CIND", "DenialConstraint"} <= classes_seen


def test_differential_undo_round_trip():
    """A batch followed by its undo restores which dependencies fail.

    Undo restores the *set content* of each relation, not its insertion
    order: a deleted-then-readded tuple re-enters at the end, which can
    change how many pair violations the first-vs-rest detector reports for
    a group (on the delta path and on a fresh naive rebuild alike — the
    strict harness above proves they keep agreeing).  What IS
    order-invariant, and what repair search relies on, is whether each
    dependency is violated at all.
    """

    def violated_deps(violations):
        return {id(v.dependency) for v in violations}

    for seed in range(60):
        rng = random.Random(77_000 + seed)
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = _random_dependencies(schema, rng)
        engine = DeltaEngine(db, deps)
        before = violated_deps(engine.violations())
        was_clean = engine.is_clean()
        delta = engine.apply(_random_batch(db, rng))
        engine.apply(delta.undo)
        assert violated_deps(engine.violations()) == before, f"seed={seed}"
        assert engine.is_clean() == was_clean
        _assert_all_paths_agree(db, deps, engine, f"seed={seed} after undo")


def test_delta_build_seeded_from_kernel_flags_equals_full_sweep():
    """The candidate-narrowed initial sweep stores what the full one does.

    Over the whole corpus, before and after every edit batch (deletes
    leave dead rows in the column store), every scan state of a fresh
    engine — built off the kernel flags — holds the per-partition
    violation map that ``_ScanState._evaluate`` over every fresh
    ``group_index`` partition files (:mod:`tests.engine.reference`), in
    the same key order.
    """

    def entry(found):
        position, v = found  # a task slot inside the per-member store
        return position, id(v.dependency), v.tuples, v.reason

    def contents(violations):
        return [
            (key, [(t, list(map(entry, found))) for t, found in stored.items()])
            for key, stored in violations.items()
        ]

    compared = 0
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        for step in range(1 + rng.randrange(1, 4)):
            if step:
                DeltaEngine(db, deps).apply(_random_batch(db, rng))
            for state in DeltaEngine(db, deps)._scan_states:
                swept = swept_scan_state(db, state)
                assert contents(state.violations) == contents(swept), (
                    f"{case_id} step={step} {state.signature}"
                )
            compared += 1
    assert compared >= TOTAL_CASES + 450


def test_executor_kernel_path_equals_per_tuple_sweep_as_a_list():
    """The executor's kernel path emits the per-tuple sweep's list.

    Over the whole corpus, before and after every edit batch, a detect
    (flagged rows through ``single`` / ``pair``) and the reference sweep
    over hash partitions (:func:`tests.engine.reference.swept_violations`)
    return the same violations in the same order — same dependency
    objects, reasons and witness objects."""
    compared = 0
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        for step in range(1 + rng.randrange(1, 4)):
            if step:
                DeltaEngine(db, deps).apply(_random_batch(db, rng))
            vectorized = detect_violations_indexed(db, deps).violations
            swept = swept_violations(db, deps)
            assert violation_sequence(vectorized) == violation_sequence(swept), (
                f"{case_id} step={step}"
            )
            compared += 1
    assert compared >= TOTAL_CASES + 450


def test_one_rule_detects_in_the_batch_order():
    """``dep.violations(db)`` of one FD / CFD / eCFD is, as a list, what a
    one-member detection returns — and what a detection of the whole
    rule set lists for that rule.

    Over the whole corpus, before and after every edit batch.  A rule
    that detected on its own path (task-major over hash partitions)
    listed a multi-row tableau's violations in another order, e.g. on
    ``mixed-9``."""
    compared = 0
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        rules = [dep for dep in deps if isinstance(dep, (FD, CFD, ECFD))]
        for step in range(1 + rng.randrange(1, 4)):
            if step:
                DeltaEngine(db, deps).apply(_random_batch(db, rng))
            batch = detect_violations_indexed(db, deps).violations
            for dep in rules:
                alone = violation_sequence(list(dep.violations(db)))
                context = f"{case_id} step={step} {dep!r}"
                assert alone == violation_sequence(
                    detect_violations_indexed(db, [dep]).violations
                ), context
                assert alone == violation_sequence(
                    [v for v in batch if v.dependency is dep]
                ), context
                compared += 1
    assert compared >= 700


def test_delta_build_after_detect_sweeps_candidate_groups_only(monkeypatch):
    """Count guard: the first engine build after a detect builds no index,
    sweeps no partition and copies none — it reads the violating rows off
    what the detect flagged (a scan group's kernel flags, an inclusion
    member's flagged layout ranks), on layouts and target indexes it did
    not build, and materialises no row the detect did not.  Two inputs:
    the Fig. 4 CINDs over generated orders, and the customer CFDs."""
    from repro.workloads.customer import CustomerConfig, generate_customers
    from repro.workloads.orders import OrdersConfig, generate_orders

    calls = []
    evaluate = _ScanState._evaluate
    monkeypatch.setattr(
        _ScanState,
        "_evaluate",
        lambda self, key, group: calls.append(key) or evaluate(self, key, group),
    )
    customers = generate_customers(
        CustomerConfig(n_tuples=2000, error_rate=0.03, seed=5)
    )
    orders = generate_orders(OrdersConfig(n_orders=2000))
    for generated, deps in [
        (orders.db, orders.cinds()),
        (customers.db, customers.cfds()),
    ]:
        # reloaded column-wise: no row has a ``Tuple`` yet
        db = DatabaseInstance(generated.schema)
        for rel in generated:
            db.relation(rel.schema.name).extend_rows([t.values() for t in rel])
        report = detect_violations_indexed(db, deps)
        builds_before = [rel.indexes.stats.builds for rel in db]
        materialised_before = [
            sum(t is not None for t in rel.column_store.cache) for rel in db
        ]
        engine = DeltaEngine(db, deps)
        assert [rel.indexes.stats.builds for rel in db] == builds_before
        # the detect already materialised every witness and pivot
        assert [
            sum(t is not None for t in rel.column_store.cache) for rel in db
        ] == materialised_before
        assert calls == []
        assert all(not state.touched for state in engine._states())
        flagged = sum(len(state.violations) for state in engine._scan_states) + sum(
            len(row.violations)
            for state in engine._inclusion_states
            for row in state.rows
        )
        assert 0 < flagged < sum(len(rel) for rel in db) / 10
        assert violation_multiset(engine.violations()) == violation_multiset(
            report.violations
        )


# -- the SQL oracle --------------------------------------------------------
#
# Every IND / CIND witness list is checked against an anti-join sqlite3
# runs: one ``NOT EXISTS`` query per tableau row, over a copy of the
# relations in untyped columns, so sqlite's own comparison decides whether
# ``3`` meets ``3.0`` and ``True`` meets ``1``.


def _sqlite_copy(db):
    """``(connection, rids)``: every relation as a table with a ``rid``
    column numbering its rows in relation order, and per relation the
    ``Tuple`` → rid map."""
    connection = sqlite3.connect(":memory:")
    rids = {}
    for relation in db:
        name = relation.schema.name
        columns = ", ".join(f'"{a}"' for a in relation.schema.attribute_names)
        connection.execute(f'CREATE TABLE "{name}" (rid, {columns})')
        rows = list(relation)
        marks = ", ".join("?" * (len(relation.schema) + 1))
        connection.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})',
            [(rid, *t.values()) for rid, t in enumerate(rows)],
        )
        rids[name] = {t: rid for rid, t in enumerate(rows)}
    return connection, rids


def _anti_join(connection, dep) -> list:
    """The rids of ``dep``'s violating source rows, tableau row by tableau
    row, each row's in relation order."""
    if isinstance(dep, CIND):
        patterns = [(dep.lhs_pattern(row), dep.rhs_pattern(row)) for row in dep.tableau]
    else:
        patterns = [({}, {})]
    found = []
    for lhs_pattern, rhs_pattern in patterns:
        joined = [
            f's."{y}" = r."{x}"' for x, y in zip(dep.lhs_attrs, dep.rhs_attrs)
        ] + [f's."{a}" = ?' for a in rhs_pattern]
        selected = [f'r."{a}" = ?' for a in lhs_pattern] + [
            f'NOT EXISTS (SELECT 1 FROM "{dep.rhs_relation}" AS s '
            f"WHERE {' AND '.join(joined)})"
        ]
        query = (
            f'SELECT r.rid FROM "{dep.lhs_relation}" AS r '
            f"WHERE {' AND '.join(selected)} ORDER BY r.rid"
        )
        parameters = [*lhs_pattern.values(), *rhs_pattern.values()]
        found.extend(rid for (rid,) in connection.execute(query, parameters))
    return found


def _assert_sql_agrees(db, deps, reports, context):
    """Each IND / CIND's witnesses in each report, as rids, are the
    anti-join's list."""
    connection, rids = _sqlite_copy(db)
    try:
        for dep in deps:
            if not isinstance(dep, (IND, CIND)):
                continue
            expected = _anti_join(connection, dep)
            for label, violations in reports.items():
                witnesses = [
                    rids[dep.lhs_relation][v.tuples[0][1]]
                    for v in violations
                    if v.dependency is dep
                ]
                assert witnesses == expected, f"{label} vs sqlite: {context} {dep!r}"
    finally:
        connection.close()


def _assert_sql_leg(db, deps, engine, context):
    _assert_sql_agrees(
        db,
        deps,
        {
            "detect": detect_violations_indexed(db, deps).violations,
            "engine": engine.ordered_violations(),
        },
        context,
    )


def test_inclusion_witnesses_equal_a_sqlite_anti_join():
    """Every corpus case with an IND or CIND, after the build and after
    each edit batch: the detect's and the engine's witnesses, per
    dependency, are the rows sqlite's ``NOT EXISTS`` anti-join returns,
    tableau row by tableau row, in relation order."""
    compared = 0
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        inclusion = any(isinstance(dep, (IND, CIND)) for dep in deps)
        engine = DeltaEngine(db, deps)
        if inclusion:
            _assert_sql_leg(db, deps, engine, f"{case_id} initial")
            compared += 1
        for batch_index in range(rng.randrange(1, 4)):
            engine.apply(_random_batch(db, rng))
            if inclusion:
                _assert_sql_leg(db, deps, engine, f"{case_id} batch={batch_index}")
                compared += 1
    assert compared >= 250


def test_sqlite_decides_numeric_and_boolean_equality_as_the_engine_does():
    """Values that compare equal across types (``3`` / ``3.0``, ``True`` /
    ``1``) provide each other's keys, and a string never provides a
    number — as sqlite's comparison decides — before and after edits."""
    from repro.relational.domains import BOOL, FLOAT, INT

    schema = DatabaseSchema(
        [
            RelationSchema(
                "R", [("F", FLOAT), ("B", BOOL), ("I", INT), ("T", STRING)]
            ),
            RelationSchema("S", [("F", FLOAT), ("I", INT), ("T", STRING)]),
        ]
    )
    db = DatabaseInstance(schema)
    db.relation("R").extend_rows(
        [
            (3.0, True, 1, "3"),
            (2.5, False, 3, "x"),
            (1.0, True, 0, "y"),
            (3, False, 5, "1"),
        ]
    )
    db.relation("S").extend_rows([(1.0, 3, "x"), (0.0, 1, "y"), (3.5, 0, "x")])
    deps = [
        IND("R", ["F"], "S", ["I"]),
        IND("R", ["B"], "S", ["I"]),
        IND("R", ["I"], "S", ["F"]),
        IND("R", ["T"], "S", ["I"]),
        CIND(
            "R", ["F"], "S", ["I"],
            lhs_pattern_attrs=["B"], rhs_pattern_attrs=["T"],
            tableau=[{"B": True, "T": "x"}, {"B": False, "T": "y"}],
        ),
    ]
    engine = DeltaEngine(db, deps)
    _assert_sql_leg(db, deps, engine, "initial")
    batches = [
        Changeset().insert("S", (2.0, 1, "y")).delete("S", (1.0, 3, "x")),
        Changeset().insert("S", (5, 3, "x")).insert("R", (1, True, 3, "2")),
        Changeset().update("S", (0.0, 1, "y"), I=2).insert("S", (3.0, 0, "y")),
    ]
    for index, batch in enumerate(batches):
        engine.apply(batch)
        _assert_sql_leg(db, deps, engine, f"batch={index}")


def _self_inclusion_dependencies(rng: random.Random) -> list:
    """Inclusions the corpus never draws: R into R itself, an X that
    repeats an attribute, and two CINDs on one source signature (one
    maintained state) with different tableaux."""
    lhs = [rng.choice(["A0", "A1"])] * 2  # X repeats an attribute
    pattern = rng.choice(["A2", "A3"])
    return [
        IND("R", ["A0"], "R", ["A1"]),
        CIND("R", lhs, "R", ["A2", "A3"]),
        CIND(
            "R", ["A1"], "R", ["A0"],
            lhs_pattern_attrs=[pattern], rhs_pattern_attrs=["A3"],
            tableau=[{f"L.{pattern}": v, "R.A3": rng.choice(VALUES)} for v in VALUES],
        ),
        CIND(
            "R", ["A1"], "S", ["X0"],
            lhs_pattern_attrs=[pattern],
            tableau=[{pattern: rng.choice(VALUES)}],
        ),
        CIND(
            "R", ["A1"], "S", ["X1"],
            lhs_pattern_attrs=[pattern],
            tableau=[{pattern: rng.choice(VALUES)}],
        ),
    ]


def test_self_inclusion_and_repeated_attributes_against_sqlite():
    """R ⊆ R (an edit is a target and a source edit at once), an X that
    repeats an attribute (a target key whose two values differ demands
    no partition) and two members sharing one source signature: after
    the build and every batch, its undo and its redo, the detect and the
    engine agree with sqlite's anti-join, the naive oracle's multiset,
    and a fresh detection's list."""
    for seed in range(40):
        rng = random.Random(61_000 + seed)
        schema = DatabaseSchema(
            [
                RelationSchema("R", [(f"A{i}", STRING) for i in range(4)]),
                RelationSchema("S", [("X0", STRING), ("X1", STRING)]),
            ]
        )
        db = _random_instance(schema, rng)
        deps = _self_inclusion_dependencies(rng)
        engine = DeltaEngine(db, deps)

        def check(step):
            context = f"seed={seed} {step}"
            _assert_sql_leg(db, deps, engine, context)
            _assert_all_paths_agree(db, deps, engine, context)
            _assert_ordered_read(db, deps, engine, context)

        check("initial")
        for index in range(4):
            batch = _random_batch(db, rng)
            undo = engine.apply(batch).undo
            check(f"batch={index}")
            engine.apply(undo)
            check(f"batch={index} undone")
            engine.apply(batch)
            check(f"batch={index} redone")


# -- the ordered read ------------------------------------------------------
#
# ``DeltaEngine.ordered_violations()`` must be the list a fresh indexed
# detection returns — not just the multiset: ``Session.detect`` serves it.


def _assert_ordered_read(db, deps, engine, context):
    fresh = detect_violations_indexed(db, deps).violations
    ordered = engine.ordered_violations()
    assert violation_sequence(ordered) == violation_sequence(fresh), (
        f"ordered read is not the fresh list: {context}"
    )
    # the stored objects, not re-derived ones
    stored = {id(v) for v in engine.violations()}
    assert all(id(v) in stored for v in ordered), context


def test_ordered_read_equals_fresh_detection_as_a_list():
    """After the build, every edit batch, its undo and its redo — all six
    classes — same dependency objects, same reasons, same witness objects
    in the same orientation, in the same order."""
    compared = 0
    classes_seen = set()
    for case_id, rng, make_deps in _cases():
        schema = _random_schema(rng)
        db = _random_instance(schema, rng)
        deps = make_deps(schema, rng)
        classes_seen.update(type(dep).__name__ for dep in deps)
        engine = DeltaEngine(db, deps)

        def check(step):
            nonlocal compared
            _assert_ordered_read(db, deps, engine, f"{case_id} {step}")
            compared += 1

        check("initial")
        for batch_index in range(rng.randrange(1, 4)):
            batch = _random_batch(db, rng)
            undo = engine.apply(batch).undo
            check(f"batch={batch_index}")
            engine.apply(undo)
            check(f"batch={batch_index} undone")
            engine.apply(batch)
            check(f"batch={batch_index} redone")
    assert compared >= TOTAL_CASES + 3 * 450
    assert {"FD", "CFD", "ECFD", "IND", "CIND", "DenialConstraint"} <= classes_seen


def _ordered_case():
    """R(A, B, C) under an FD, a CFD whose wildcard row precedes a
    fully-constant one (and carries an RHS constant: singles *and* pairs
    per partition), an IND and a CIND out of R — every ordering rule has
    something to get wrong."""
    schema = DatabaseSchema(
        [
            RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)]),
            RelationSchema("S", [("X", STRING), ("Y", STRING)]),
        ]
    )
    deps = [
        IND("R", ["C"], "S", ["X"]),
        CFD(
            "R", ["A"], ["B"],
            [{"A": UNNAMED, "B": "b0"}, {"A": "k2", "B": "b9"}],
            name="wild-then-constant",
        ),
        FD("R", ["A"], ["C"]),
        CIND(
            "R", ["C"], "S", ["X"],
            lhs_pattern_attrs=["B"], rhs_pattern_attrs=["Y"],
            tableau=[{"L.B": "b1", "R.Y": "y"}, {"L.B": "b0", "R.Y": "y"}],
        ),
    ]
    return schema, deps


def _ordered_engine(rows):
    schema, deps = _ordered_case()
    db = DatabaseInstance(schema)
    for row in rows:
        db.relation("R").add(row)
    db.relation("S").add(["c0", "y"])
    return db, deps, DeltaEngine(db, deps)


def _row(a, b, c):
    return {"A": a, "B": b, "C": c}


BASE_ROWS = [
    ("k1", "b0", "c0"), ("k2", "b0", "c1"), ("k1", "b1", "c1"),
    ("k2", "b1", "c2"), ("k1", "b2", "c0"), ("k3", "b1", "c3"),
]


def _run_ordered(rows, *batches):
    """Apply each batch (a list of ``(op, row[, cells])``) to an engine,
    checking the ordered read after the build and after every batch;
    returns ``(db, deps, engine)`` for follow-up assertions."""
    db, deps, engine = _ordered_engine(rows)
    _assert_ordered_read(db, deps, engine, "build")
    for index, batch in enumerate(batches):
        changeset = Changeset()
        for op, row, *cells in batch:
            if op == "update":
                changeset.update("R", _row(*row), **cells[0])
            else:
                getattr(changeset, op)("R", _row(*row))
        engine.apply(changeset)
        _assert_ordered_read(db, deps, engine, f"batch {index}")
    return db, deps, engine


def test_ordered_read_lookup_tasks_come_before_the_sweep():
    # k2 is the second partition, yet its constant-row (lookup) violations
    # lead the CFD's list, and inside k1 both singles precede both pairs
    _, deps, engine = _run_ordered(BASE_ROWS)
    cfd = [v for v in engine.ordered_violations() if v.dependency is deps[1]]
    assert "'k2'" in cfd[0].reason and len(cfd[0].tuples) == 1
    k1_wild = [v for v in cfd if v.tuples[-1][1]["A"] == "k1"]
    assert [len(v.tuples) for v in k1_wild] == [1, 1, 2, 2]


def test_ordered_read_numbers_arrivals_per_op_not_per_partition():
    # adds interleave two new partitions; the inclusion rows must list
    # their sources in op order (k8, k9, k8, k9), and after both groups
    # are emptied and re-created in the other order, k9 leads k8
    _run_ordered(
        BASE_ROWS,
        [("insert", ("k8", "b1", "c8")), ("insert", ("k9", "b1", "c9")),
         ("insert", ("k8", "b2", "c7")), ("insert", ("k9", "b0", "c6"))],
        [("delete", ("k8", "b1", "c8")), ("delete", ("k8", "b2", "c7")),
         ("delete", ("k9", "b1", "c9")), ("delete", ("k9", "b0", "c6")),
         ("insert", ("k9", "b2", "c5")), ("insert", ("k8", "b1", "c4")),
         ("insert", ("k9", "b1", "c3")), ("insert", ("k8", "b2", "c2"))],
    )


def test_ordered_read_follows_a_pivot_delete_and_its_undo():
    # deleting k1's first row re-pivots the group; the undo re-appends the
    # row at the group's (and the relation's) end
    pivot = BASE_ROWS[0]
    _run_ordered(BASE_ROWS, [("delete", pivot)], [("insert", pivot)])


def test_ordered_read_moves_a_recreated_group_to_the_end():
    k1 = [row for row in BASE_ROWS if row[0] == "k1"]
    _run_ordered(
        BASE_ROWS,
        [("delete", row) for row in k1],
        [("insert", row) for row in k1],
    )


def test_ordered_read_after_add_remove_add_of_one_tuple_in_one_batch():
    t = ("k2", "b2", "c9")
    _run_ordered(
        BASE_ROWS,
        [("insert", t), ("insert", ("k3", "b2", "c9")), ("delete", t), ("insert", t)],
        # … and remove-add of a stored witness: the relation holds the new
        # object, at its end
        [("delete", BASE_ROWS[2]), ("insert", BASE_ROWS[2])],
        [("update", BASE_ROWS[3], {"B": "b0"}), ("update", BASE_ROWS[4], {"C": "c0"})],
    )


def test_ordered_read_after_a_failed_apply_renumbers():
    # the rollback puts the deleted pivot back in its place and cuts the
    # insert off again, and the rebuilt engine numbers the rows afresh
    db, deps, engine = _ordered_engine(BASE_ROWS)
    before = [t.values() for t in db.relation("R")]
    bad = (
        Changeset()
        .delete("R", _row(*BASE_ROWS[0]))
        .insert("R", _row("k0", "b1", "c1"))
        .update("R", _row("no", "such", "row"), B="b0")
    )
    with pytest.raises(KeyError):
        engine.apply(bad)
    assert [t.values() for t in db.relation("R")] == before
    _assert_ordered_read(db, deps, engine, "after rollback")
    engine.apply(Changeset().insert("R", _row("k1", "b3", "c3")))
    _assert_ordered_read(db, deps, engine, "after the next apply")


#: U(K, G, V) with K unique: every [K, G] partition is a singleton, so every
#: key a batch touches is re-swept (its one row is its pivot)
KEY_UNIQUE_SCHEMA = DatabaseSchema(
    [RelationSchema("U", [("K", STRING), ("G", STRING), ("V", STRING)])]
)
GROUPS = ["g0", "g1", "g2", "g3"]  # g3 has no constant row


def _key_unique_rules():
    wildcard = {"K": UNNAMED, "G": UNNAMED, "V": UNNAMED}
    constants = [{"K": UNNAMED, "G": g, "V": f"v{i}"} for i, g in enumerate(GROUPS[:3])]
    return [CFD("U", ["K", "G"], ["V"], [wildcard] + constants, name="key-unique")]


def _key_unique_row(rng: random.Random, key: str) -> dict:
    group = rng.choice(GROUPS)
    right = f"v{GROUPS.index(group)}"
    return {"K": key, "G": group, "V": right if rng.random() < 0.6 else "bad"}


def _key_unique_batch(db, rng: random.Random, tag: str) -> Changeset:
    """Fresh-key inserts, pivot deletes and pivot-replacing updates (a new
    V, a new G or a fresh K), each key touched once and the targets in
    relation order — so a new witness arrives in op order, and a fresh
    detection lists what the batch added and removed in op order too."""
    live = db.relation("U").tuples()
    targets = sorted(rng.sample(range(len(live)), rng.randrange(2, 9)))
    inserts = [_key_unique_row(rng, f"{tag}-n{j}") for j in range(rng.randrange(1, 6))]
    batch = Changeset()
    while targets or inserts:
        if inserts and (not targets or rng.random() < 0.4):
            batch.insert("U", inserts.pop())
            continue
        t = live[targets.pop(0)]
        change = rng.randrange(4)
        if change == 0:
            batch.delete("U", t.as_dict())
        elif change == 1:
            batch.update("U", t.as_dict(), V="bad" if t["V"] != "bad" else "v0")
        elif change == 2:
            batch.update("U", t.as_dict(), G=rng.choice(GROUPS))
        else:
            batch.update("U", t.as_dict(), K=f"{tag}-{t['K']}")
    return batch


def test_key_unique_signature_as_a_list():
    """On a signature whose partitions are all singletons — every touched
    key re-swept, one side of its diff often empty — the ordered read is
    a fresh detection's list after every batch and its undo, and each
    delta's ``added`` / ``removed`` are what the two fresh lists differ
    by, in their order (an undo retracts in reverse)."""
    deps = _key_unique_rules()

    def fresh(db):
        return violation_sequence(detect_violations_indexed(db, deps).violations)

    def difference(first, second):
        kept = set(second)
        return [entry for entry in first if entry not in kept]

    batches = 0
    for seed in range(12):
        rng = random.Random(31_000 + seed)
        db = DatabaseInstance(KEY_UNIQUE_SCHEMA)
        db.relation("U").extend_rows(
            [_key_unique_row(rng, f"k{i}") for i in range(rng.randrange(20, 60))]
        )
        engine = DeltaEngine(db, deps)
        for index in range(6):
            context = f"seed={seed} batch={index}"
            before = fresh(db)
            delta = engine.apply(_key_unique_batch(db, rng, f"b{index}"))
            after = fresh(db)
            assert violation_sequence(engine.ordered_violations()) == after, context
            added, removed = difference(after, before), difference(before, after)
            assert violation_sequence(delta.added) == added, context
            assert violation_sequence(delta.removed) == removed, context
            if index % 2:
                undone = engine.apply(delta.undo)
                restored = fresh(db)
                assert violation_sequence(engine.ordered_violations()) == restored
                assert violation_sequence(undone.added) == difference(restored, after)
                retracted = difference(after, restored)
                assert violation_sequence(undone.removed) == retracted[::-1]
            batches += 1
        assert engine.stats.keys_patched == 0  # every touched key re-swept
    assert batches == 72
