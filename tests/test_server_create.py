"""Session creation bulk-loads its rows; what it serves must not show it.

Create (inline rows) and recovery (snapshot rows) go through
``RelationInstance.extend_rows``; the offline reference below is built
with ``add``, one row at a time.  A float column holding ``3`` in one row
and ``3.0`` in another is the case where the two could drift: the values
share a dictionary code, and only a row that keeps its own ``Tuple``
still prints ``3.0``.
"""

from __future__ import annotations

import copy
import gc
import json
import tracemalloc

import pytest

from repro.client import ServerClient
from repro.relational.instance import DatabaseInstance
from repro.relational.tuples import Tuple
from repro.rules_json import (
    database_schema_from_dict,
    database_schema_to_dict,
    rules_from_list,
)
from repro.registry import encode
from repro.server import DEFAULT_DEGRADED_AFTER, make_server
from repro.server.core import ServiceCore, body_reader
from repro.server.hosting import ServerMetrics, SessionManager
from repro.session import Session
from repro.workloads.customer import CustomerConfig, generate_customers
from repro.workloads.soak import canonical, offline_detect

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


def test_integers_past_64_bits_are_served_as_offline():
    """Violating rows hold integers at and past the 64-bit edges: the
    create body, the served report and the client's read of it keep every
    one an exact ``int``."""
    schema_doc = {
        "name": "acct",
        "attributes": [
            {"name": "k", "type": "string"},
            {"name": "v", "type": "int"},
        ],
    }
    rule = {"type": "fd", "relation": "acct", "lhs": ["k"], "rhs": ["v"]}
    rows = [
        {"k": "a", "v": 2**64 + 1},
        {"k": "a", "v": -(2**63) - 1},
        {"k": "b", "v": 2**63 - 1},
        {"k": "b", "v": 2**63},
        {"k": "c", "v": 7},
    ]
    schema = database_schema_from_dict(schema_doc)
    db = DatabaseInstance(schema)
    for row in rows:
        db.relation("acct").add(row)
    offline = offline_detect(Session.from_instance(db, rules_from_list([rule], schema)))
    rendered = canonical(offline)
    for value in (2**64 + 1, -(2**63) - 1, 2**63 - 1, 2**63):
        assert f'"v": {value}\n' in rendered

    server = make_server(port=0)
    server.start_background()
    try:
        client = ServerClient(base_url=server.base_url)
        client.create_session(
            schema=schema_doc, rules=[rule], data={"acct": rows}, session_id="big"
        )
        served = client.detect("big")
        assert canonical(dict(served)) == rendered
        values = [
            t["values"]["v"] for v in served.violations for t in v["tuples"]
        ]
        assert {type(value) for value in values} == {int}
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


def _create(document, data_root=None):
    """POST ``document`` to an in-process service: ``(status, body)``."""
    manager = SessionManager(data_root=data_root)
    core = ServiceCore(manager, ServerMetrics(), DEFAULT_DEGRADED_AFTER)
    response = core.handle("POST", "/v1/sessions", lambda: document)
    return response.status, json.loads(response.body)


def _schema_with(*attributes) -> dict:
    return {"name": "emp", "attributes": list(attributes)}


@pytest.mark.parametrize("row", [1, None, "eng", True])
def test_a_row_that_is_no_row_is_a_400(row):
    document = {"schema": SCHEMA_DOC, "data": {"emp": [ROWS[0], row]}}
    status, body = _create(document)
    assert status == 400
    assert body["type"] == "SchemaError"
    assert body["error"] == (
        "row for emp must be a mapping or a sequence of values, "
        f"got {type(row).__name__}"
    )


@pytest.mark.parametrize(
    "spec, words",
    [
        ("dept", "relation 'emp' attribute #0 must be an object"),
        (["dept", "string"], "relation 'emp' attribute #0 must be an object"),
        ({"type": "int"}, "relation 'emp' attribute #0: needs a non-empty string"),
        ({"name": "e", "type": "enum"}, "attribute #0 ('e'): an enum needs"),
        (
            {"name": "k", "domain": "int"},
            "relation 'emp' attribute #0: unknown key(s) ['domain']",
        ),
        ({"name": "k", "type": "int", "values": [1]}, "'values' is for type 'enum'"),
        ({"name": "k", "type": "integer"}, "unknown attribute type 'integer'"),
    ],
)
def test_a_bad_attribute_spec_is_a_schema_error_that_names_it(spec, words):
    document = {"schema": _schema_with(spec, {"name": "w", "type": "float"})}
    status, body = _create(document)
    assert (status, body["type"]) == (400, "SchemaError")
    assert words in body["error"]


def test_a_misspelt_type_key_is_refused_not_read_as_a_string_column():
    document = {
        "schema": _schema_with({"name": "w"}, {"name": "k", "domain": "int"}),
        "data": {"emp": [{"w": "x", "k": 1}]},
    }
    status, body = _create(document)
    assert (status, body["type"]) == (400, "SchemaError")
    assert body["error"] == (
        "relation 'emp' attribute #1: unknown key(s) ['domain']; "
        "an attribute spec has ['name', 'type', 'values']"
    )


@pytest.mark.parametrize("missing", ["schema", "rules", "data"])
def test_a_missing_server_side_file_is_a_400(tmp_path, missing):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA_DOC))
    (tmp_path / "rules.json").write_text(json.dumps([FD_RULE]))
    (tmp_path / "emp.csv").write_text("dept,w\neng,1.5\n")
    document = {
        "schema": "schema.json",
        "rules": "rules.json",
        "data": {"emp": "emp.csv"},
    }
    assert _create(copy.deepcopy(document), tmp_path)[0] == 201
    if missing == "data":
        document["data"] = {"emp": "nope.csv"}
    else:
        document[missing] = "nope.json"
    status, body = _create(document, tmp_path)
    assert (status, body["type"]) == (400, "ReproError")
    assert "names no file under the data root" in body["error"]


def test_a_rule_that_is_no_object_is_a_400():
    status, body = _create({"schema": SCHEMA_DOC, "rules": [FD_RULE, "fd"]})
    assert (status, body["type"]) == (400, "DependencyError")
    assert body["error"] == "rule #1 must be an object, got 'fd'"


def test_create_consumes_the_documents_row_lists():
    document = {"schema": SCHEMA_DOC, "data": {"emp": [dict(r) for r in ROWS]}}
    hosted = SessionManager().create(document)
    assert document["data"] == {}
    assert len(hosted.session.database.relation("emp")) == len(ROWS)


def test_create_peaks_at_its_json_parse():
    """``tracemalloc`` bytes are deterministic: a 20k-row create from raw
    bytes allocates at most 5 % above what parsing the body alone peaks
    at — ingest keeps no per-row object and frees the parsed rows as it
    goes."""
    generated = generate_customers(
        CustomerConfig(n_tuples=20_000, error_rate=0.0, seed=7)
    )
    raw = json.dumps(
        {
            "schema": database_schema_to_dict(generated.db.schema),
            "rules": [encode(rule) for rule in generated.cfds()],
            "data": {"customer": [t.as_dict() for t in generated.db["customer"]]},
            "id": "s",
        }
    ).encode()
    del generated
    manager = SessionManager()
    core = ServiceCore(manager, ServerMetrics(), DEFAULT_DEGRADED_AFTER)

    def peak(call):
        gc.collect()
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    parse_peak, _ = peak(lambda: json.loads(raw))
    create_peak, response = peak(
        lambda: core.handle("POST", "/v1/sessions", body_reader(raw))
    )
    assert response.status == 201
    assert len(manager.get("s").session.database["customer"]) == 20_000
    assert create_peak <= 1.05 * parse_peak, (create_peak, parse_peak)
