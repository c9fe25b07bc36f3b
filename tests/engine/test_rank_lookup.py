"""``GroupLayout.rank_of_key``: a binary search, never a per-group index.

A layout keeps its groups' keys sorted (packed into one ``int64`` when
the signature's code spaces fit, one code column per attribute when they
do not) and finds a key by binary search.  The property pins it
against a first-seen dict of the live rows' keys over cells that are
equal but render differently (``3`` / ``3.0`` / ``True``, ``0.0`` /
``-0.0``), deleted rows, and values interned only *after* the build —
whose codes lie past the build's code space and must never alias a
group.  The last test holds the point of the search: the first apply of
a warm session allocates O(edits), not a dict over every group.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.engine import kernels
from repro.engine.delta import Changeset
from repro.relational.domains import FLOAT, INT, EnumDomain
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple
from repro.session import Session
from repro.workloads.customer import CustomerConfig, generate_customers

SCHEMA = RelationSchema(
    "R", [("k", INT), ("w", FLOAT), ("e", EnumDomain([1, 3, "x"]))]
)
NAMES = SCHEMA.attribute_names

#: per attribute: values rows are built from before the layout is …
BEFORE = {"k": [0, 1, 2], "w": [3, 3.0, 0.0, -0.0, 1.5], "e": [1, True, 1.0, 3]}
#: … and values only interned after it ("x" is the one ``e`` has left)
AFTER = {"k": [5, 6], "w": [2.5, 9.0], "e": ["x"]}

ROWS = st.lists(
    st.tuples(*(st.sampled_from(BEFORE[a]) for a in NAMES)), max_size=40
)
LATE = st.lists(
    st.tuples(*(st.sampled_from(BEFORE[a] + AFTER[a]) for a in NAMES)),
    min_size=1,
    max_size=4,
)
SIGNATURE = st.lists(st.sampled_from(NAMES), unique=True, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    rows=ROWS,
    deleted=st.sets(st.integers(0, 39)),
    signature=SIGNATURE,
    late=LATE,
    packed=st.booleans(),
)
@example(rows=[], deleted=set(), signature=["k", "w"], late=[(5, 2.5, "x")],
         packed=True)
@example(rows=[(0, 3, 1), (1, 3.0, True)], deleted=set(), signature=[],
         late=[(5, 2.5, "x")], packed=True)
@example(rows=[(0, 3, 1), (1, 0.0, 3), (0, -0.0, 1.0)], deleted={1},
         signature=["w", "k"], late=[(6, 9.0, "x")], packed=False)
def test_rank_of_key_finds_exactly_the_live_groups(
    rows, deleted, signature, late, packed
):
    relation = RelationInstance(SCHEMA)
    relation.extend_rows(rows)
    for index in sorted(deleted):
        if index < len(rows):
            relation.discard(Tuple(SCHEMA, rows[index]))
    store = relation.column_store
    # lowering the bound sends every non-empty signature down the
    # per-column branch a real relation needs ~2**62 key combinations for
    limit = kernels._PACK_LIMIT if packed else 1
    with mock.patch.object(kernels, "_PACK_LIMIT", limit):
        layout = kernels.build_layout(store, SCHEMA, signature)
    if layout.n_groups and len(signature) > 1:
        assert len(layout.seg_keys) == (1 if packed else len(signature))

    # the oracle: live keys in first-seen order (dict-key equality is the
    # store's interning congruence)
    positions = [SCHEMA.index_of(a) for a in signature]
    first_seen: dict = {}
    for values in relation.to_rows():
        first_seen.setdefault(tuple(values[p] for p in positions), len(first_seen))

    # intern values after the build: the layout still describes the rows
    # that were live when it was built
    for values in late:
        relation.add(values)

    assert layout.n_groups == len(first_seen)
    for rank in range(layout.n_groups):
        assert layout.rank_of_key(layout.decoded_key(rank)) == rank
    pools = [BEFORE[a] + AFTER[a] for a in signature]
    for key in itertools.product(*pools):
        assert layout.rank_of_key(key) == first_seen.get(key), key


def test_first_apply_allocates_no_index_over_the_groups():
    """A 20k-row session, detected once, then a 10-op first apply: the
    engine build reads segments by binary search, so the apply's net
    allocation stays well under 1 MB (a per-group dict was 3.3 MB)."""
    workload = generate_customers(
        CustomerConfig(n_tuples=20_000, error_rate=0.0, seed=7)
    )
    session = Session.from_instance(workload.db, workload.cfds())
    session.detect()
    relation = workload.db.relation("customer")
    rows = relation.to_rows()
    names = relation.schema.attribute_names
    changeset = Changeset()
    for i in range(1, 5):
        row = dict(zip(names, rows[i * 1000]))
        row["phn"] = 9_000_000 + i
        changeset.insert("customer", row)
    for i in range(1, 4):
        changeset.delete("customer", rows[i * 1000 + 7])
        changeset.update("customer", rows[i * 1000 + 13], name="Zed")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        delta = session.apply(changeset)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(changeset) == 10 and delta.remaining == 0
    assert grown < 1_000_000, f"first apply kept {grown} bytes"
