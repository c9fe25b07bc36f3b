"""Session creation bulk-loads its rows; what it serves must not show it.

Create (inline rows) and recovery (snapshot rows) go through
``RelationInstance.extend_rows``; the offline reference below is built
with ``add``, one row at a time.  A float column holding ``3`` in one row
and ``3.0`` in another is the case where the two could drift: the values
share a dictionary code, and only a row that keeps its own ``Tuple``
still prints ``3.0``.
"""

from __future__ import annotations

from repro.client import ServerClient
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple
from repro.rules_json import (
    database_schema_from_dict,
    database_schema_to_dict,
    rules_from_list,
)
from repro.server import make_server
from repro.server.hosting import SessionManager
from repro.session import Session
from repro.workloads.customer import CustomerConfig, generate_customers
from repro.workloads.soak import canonical

SCHEMA_DOC = {
    "name": "emp",
    "attributes": [
        {"name": "dept", "type": "string"},
        {"name": "w", "type": "float"},
    ],
}
FD_RULE = {"type": "fd", "relation": "emp", "lhs": ["dept"], "rhs": ["w"]}
ROWS = [
    {"dept": "eng", "w": 3},
    {"dept": "eng", "w": 3.5},
    {"dept": "ops", "w": 3.0},
    {"dept": "ops", "w": 4.5},
    {"dept": "qa", "w": 1},
    {"dept": "qa", "w": -0.0},
    {"dept": "hr", "w": 2},
    {"dept": "hr", "w": 0.0},
]


def _offline() -> dict:
    schema = database_schema_from_dict(SCHEMA_DOC)
    db = DatabaseInstance(schema)
    for row in ROWS:
        db.relation("emp").add(row)
    session = Session.from_instance(db, rules_from_list([FD_RULE], schema))
    return session.detect().to_dict()


def test_created_and_rehydrated_sessions_serve_the_offline_document(tmp_path):
    offline = _offline()
    rendered = canonical(offline)
    # the document really does tell 3 from 3.0 and -0.0 from 0.0
    for cell in ("3", "3.0", "-0.0", "0.0"):
        assert f'"w": {cell}\n' in rendered

    # one resident session at a time: creating another evicts the first
    server = make_server(port=0, state_dir=tmp_path, max_sessions=1)
    server.start_background()
    try:
        client = ServerClient(base_url=server.base_url)
        client.wait_ready()
        client.create_session(
            schema=SCHEMA_DOC, rules=[FD_RULE], data={"emp": ROWS}, session_id="s"
        )
        assert canonical(dict(client.detect("s"))) == rendered
        client.create_session(
            schema=SCHEMA_DOC, rules=[], data={"emp": ROWS[:1]}, session_id="other"
        )
        assert client.cold_sessions() == ["s"]
        # recovery bulk-loads the snapshot's rows
        assert canonical(dict(client.detect("s"))) == rendered
    finally:
        server.shutdown()


def test_create_from_wire_rows_builds_no_tuple(monkeypatch):
    """Count guard: ingest is columnar end to end — a ``Tuple`` exists
    only once something asks for the row."""
    generated = generate_customers(
        CustomerConfig(n_tuples=2000, error_rate=0.02, seed=3)
    )
    relation = generated.db.relation("customer")
    rows = [t.as_dict() for t in relation]
    document = {
        "schema": database_schema_to_dict(generated.db.schema),
        "rules": [],
        "data": {"customer": rows},
    }

    built = []
    init, trusted = Tuple.__init__, Tuple.trusted.__func__
    monkeypatch.setattr(
        Tuple, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
    )
    monkeypatch.setattr(
        Tuple,
        "trusted",
        classmethod(lambda cls, *a: built.append(1) or trusted(cls, *a)),
    )
    hosted = SessionManager().create(document)
    assert built == []
    served = hosted.session.database.relation("customer")
    assert len(served) == len(rows) == 2000
    assert [t.as_dict() for t in served] == rows
    assert len(built) == 2000
