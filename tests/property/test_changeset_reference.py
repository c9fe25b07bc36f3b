"""Property: ``Changeset.apply_to`` against its ask-then-edit reference.

``apply_to`` lets the edit decide membership (one row lookup per insert
or delete, the relation's version bump as the signal); the form that asks
``t in relation`` first lives on in ``tests/engine/test_delta.py`` as the
oracle.  Over arbitrary changesets on a 16-row universe — so duplicate
inserts, absent deletes, no-op, colliding and absent-target updates and
bad-typed cells all come up — both must agree on the effective ops, the
resulting row order, the version and the error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.delta import Changeset
from repro.relational.tuples import Tuple
from tests.engine.test_delta import (
    _KEYS,
    _NUMS,
    _VALS,
    EDIT_SCHEMA,
    assert_apply_to_matches_reference,
)

ROWS = st.tuples(
    st.sampled_from(_KEYS), st.sampled_from(_VALS), st.sampled_from(_NUMS)
)
PAYLOADS = st.one_of(
    ROWS,
    ROWS.map(lambda values: Tuple(EDIT_SCHEMA, values)),
    ROWS.map(lambda values: dict(zip(EDIT_SCHEMA.attribute_names, values))),
)
CELLS = st.fixed_dictionaries(
    {"V": st.sampled_from(_VALS)},
    optional={"N": st.sampled_from(_NUMS + ("not-an-int",))},
)
OPS = st.one_of(
    st.tuples(st.just("insert"), PAYLOADS),
    st.tuples(st.just("delete"), PAYLOADS),
    st.tuples(st.just("update"), PAYLOADS, CELLS),
)


@given(
    rows=st.lists(ROWS, max_size=12, unique=True),
    ops=st.lists(OPS, min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_apply_to_matches_the_reference(rows, ops):
    changeset = Changeset()
    carried = set()
    for kind, target, *cells in ops:
        if isinstance(target, Tuple):
            carried.add(id(target))
        if kind == "update":
            changeset.update("E", target, **cells[0])
        else:
            getattr(changeset, kind)("E", target)
    assert_apply_to_matches_reference(rows, changeset, carried)
