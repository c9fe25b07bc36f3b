"""Property: ``RelationInstance`` against a dict of ``Tuple`` objects.

The column store interns every cell, keeps dead rows until it compacts
and builds no ``Tuple`` until a row is read; :class:`ReferenceRelation`
does none of that.  Random op sequences — ``add`` and ``extend_rows`` of
``Tuple``s, mappings and sequences, ``remove`` / ``discard``, ``copy()``
and delete bursts past the 64-dead-row compaction floor — run through
both, over cells that are equal but render differently (``3`` / ``3.0``,
``0.0`` / ``-0.0``, ``True`` / ``1``), and after every step a reader must
not be able to tell them apart.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.columnar import COMPACT_MIN_DEAD
from repro.relational.domains import FLOAT, INT, EnumDomain
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple
from tests.relational.reference import ReferenceRelation

ATTRS = [("k", INT), ("w", FLOAT), ("e", EnumDomain([1, 3, "x"]))]
SCHEMA = RelationSchema("R", ATTRS)
#: same attribute names, another relation: its tuples belong to neither side
TWIN = RelationSchema("S", ATTRS)

KS = [0, 1, 2]
WS = [3, 3.0, 0.0, -0.0, 1.5]
ES = [1, True, 1.0, 3, "x"]
#: one cell per column that its domain refuses
BAD = {"k": [True, 1.5, "1"], "w": [True, "3"], "e": [2, "y"]}

VALUES = st.tuples(st.sampled_from(KS), st.sampled_from(WS), st.sampled_from(ES))


@st.composite
def _payload(draw):
    values = draw(VALUES)
    if draw(st.integers(0, 9)) == 0:
        attr = draw(st.sampled_from(sorted(BAD)))
        position = SCHEMA.index_of(attr)
        cell = draw(st.sampled_from(BAD[attr]))
        values = values[:position] + (cell,) + values[position + 1:]
    shape = draw(
        st.sampled_from(["tuple", "twin", "mapping", "sequence", "list", "short"])
    )
    if shape in ("tuple", "twin"):
        try:
            return Tuple(SCHEMA if shape == "tuple" else TWIN, values)
        except Exception:
            return values  # a refused cell: send the raw row instead
    if shape == "mapping":
        return dict(zip(SCHEMA.attribute_names, values))
    if shape == "short":
        return values[:-1]
    return list(values) if shape == "list" else values


TARGETS = VALUES.flatmap(
    lambda v: st.sampled_from([Tuple(SCHEMA, v), Tuple(TWIN, v)])
)
OPS = st.one_of(
    st.tuples(st.just("add"), _payload()),
    st.tuples(st.just("extend_rows"), st.lists(_payload(), max_size=8)),
    st.tuples(st.sampled_from(["remove", "discard"]), TARGETS),
    st.tuples(st.just("copy")),
    st.tuples(
        st.just("burst"), st.integers(COMPACT_MIN_DEAD + 1, 3 * COMPACT_MIN_DEAD)
    ),
)
#: membership is asked of every value in the universe, on both schemas
PROBES = [
    Tuple(schema, values)
    for schema in (SCHEMA, TWIN)
    for values in [(k, w, e) for k in KS for w in WS for e in ES]
]


def _step(relation, op):
    """Apply one op; the outcome is a return value or an error."""
    kind, *args = op
    try:
        if kind == "extend_rows":
            return "ok", relation.extend_rows(list(args[0]))
        if kind == "burst":
            # fresh keys in, then out again: dead rows pass the floor
            rows = [(100 + i, 1.5, "x") for i in range(args[0])]
            relation.extend_rows(rows)
            for row in rows:
                relation.remove(Tuple(SCHEMA, row))
            return "ok", None
        getattr(relation, kind)(*args)
        return "ok", None
    except Exception as exc:
        return type(exc), str(exc)


def _observe(relation):
    return (
        [repr(t) for t in relation],
        [repr(row) for row in relation.to_rows()],
        len(relation),
        relation.version,
        [t in relation for t in PROBES],
        [relation.project_values(attrs) for attrs in (["w"], ["e", "k"])],
        [relation.active_domain(name) for name in SCHEMA.attribute_names],
    )


@settings(max_examples=300, deadline=None)
@given(
    initial=st.lists(_payload(), max_size=10),
    ops=st.lists(OPS, min_size=1, max_size=12),
)
def test_relation_instance_matches_the_reference(initial, ops):
    relation, reference = RelationInstance(SCHEMA), ReferenceRelation(SCHEMA)
    for payload in initial:
        assert _step(relation, ("add", payload)) == _step(reference, ("add", payload))
    assert _observe(relation) == _observe(reference)
    originals = []
    for op in ops:
        if op[0] == "copy":
            # go on with the copies; the originals must not see it
            originals.append((relation, _observe(relation)))
            relation, reference = relation.copy(), reference.copy()
        else:
            assert _step(relation, op) == _step(reference, op), op
        assert _observe(relation) == _observe(reference), op
    for original, seen in originals:
        assert _observe(original) == seen
