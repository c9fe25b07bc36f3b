"""Property tests: index invalidation under deletes and in-place updates.

The original invalidation tests covered inserts; these drive random
*delete* and *cell-update* (remove + add of the edited tuple) histories
through both index layers and compare against a from-scratch rebuild:

* ``RelationIndexes`` (version-counter invalidation) — every cached
  structure must match what a fresh instance with the same content builds;
* the delta engine's maintained partitions (in-place patching, no version
  invalidation) — must stay identical to ``group_index`` on a rebuilt
  relation, including key order and within-group order.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps.fd import FD
from repro.engine.delta import Changeset, DeltaEngine
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema

VALUES = ["a", "b", "c"]


def _schema():
    return RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])


# One op: (kind, row-seed, attr-index, value).  Interpreted against the
# live relation, so ops always target existing tuples when possible.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(VALUES),
    ),
    min_size=1,
    max_size=25,
)

rows_strategy = st.lists(
    st.tuples(*[st.sampled_from(VALUES)] * 3), min_size=0, max_size=8
)


def _run_ops(relation: RelationInstance, ops, probe=None):
    """Apply an op history; ``probe`` (if given) is called after every op
    so index caches are populated *between* mutations — the staleness
    window version invalidation must cover."""
    attrs = list(relation.schema.attribute_names)
    for kind, pick, attr_index, value in ops:
        live = relation.tuples()
        if kind == "insert":
            relation.add((VALUES[pick % 3], VALUES[(pick // 3) % 3], value))
        elif kind == "delete" and live:
            relation.discard(live[pick % len(live)])
        elif kind == "update" and live:
            target = live[pick % len(live)]
            updated = target.replace(**{attrs[attr_index]: value})
            # in-place cell update: remove + add, like the repair loops
            relation.discard(target)
            relation.add(updated)
        if probe is not None:
            probe(relation)


class TestRelationIndexesUnderDeletesAndUpdates:
    @given(rows_strategy, ops_strategy)
    @settings(max_examples=120, deadline=None)
    def test_all_index_kinds_match_fresh_rebuild(self, rows, ops):
        relation = RelationInstance(_schema(), rows)

        def probe(rel):
            # touch every cached structure so each mutation invalidates
            # genuinely warm caches, not empty ones
            rel.indexes.group_index(("A",))
            rel.indexes.key_set(("B",))
            rel.indexes.grouped_key_sets(("A",), ("B", "C"))
            rel.indexes.grouped_key_counts(("A",), ("C",))

        _run_ops(relation, ops, probe=probe)
        fresh = RelationInstance(_schema(), relation.tuples())
        assert dict(relation.indexes.group_index(("A",))) == dict(
            fresh.indexes.group_index(("A",))
        )
        assert relation.indexes.key_set(("B",)) == fresh.indexes.key_set(("B",))
        assert dict(relation.indexes.grouped_key_sets(("A",), ("B", "C"))) == dict(
            fresh.indexes.grouped_key_sets(("A",), ("B", "C"))
        )
        assert relation.indexes.grouped_key_counts(("A",), ("C",)) == (
            fresh.indexes.grouped_key_counts(("A",), ("C",))
        )

    @given(rows_strategy, ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_order_matches_insertion_order(self, rows, ops):
        relation = RelationInstance(_schema(), rows)
        _run_ops(
            relation, ops, probe=lambda rel: rel.indexes.group_index(("A", "B"))
        )
        groups = relation.indexes.group_index(("A", "B"))
        flattened = [t for group in groups.values() for t in group]
        by_key_scan = {}
        for t in relation:
            by_key_scan.setdefault((t["A"], t["B"]), []).append(t)
        assert [t for g in by_key_scan.values() for t in g] == flattened


class TestDeltaPartitionsUnderDeletesAndUpdates:
    def test_maintained_partitions_equal_rebuilt_group_index(self):
        deps = [FD("R", ["A"], ["B"])]
        for seed in range(40):
            rng = random.Random(52_000 + seed)
            db = DatabaseInstance(
                DatabaseSchema([_schema()]),
                {"R": [[rng.choice(VALUES) for _ in range(3)] for _ in range(6)]},
            )
            engine = DeltaEngine(db, deps)
            for _ in range(8):
                live = db.relation("R").tuples()
                cs = Changeset()
                kind = rng.choice(["delete", "update", "insert"])
                if kind == "insert" or not live:
                    cs.insert("R", [rng.choice(VALUES) for _ in range(3)])
                elif kind == "delete":
                    cs.delete("R", rng.choice(live))
                else:
                    cs.update(
                        "R",
                        rng.choice(live),
                        **{rng.choice(["A", "B", "C"]): rng.choice(VALUES)},
                    )
                engine.apply(cs)
                rebuilt = RelationInstance(
                    _schema(), db.relation("R").tuples()
                ).indexes.group_index(("A",))
                # Same partitions with the same within-group order (the
                # pair pivot semantics), and nothing under any other key.
                assert {
                    (value,): engine.partition("R", ("A",), (value,))
                    for value in VALUES
                } == {
                    (value,): list(rebuilt.get((value,), ()))
                    for value in VALUES
                }, seed
