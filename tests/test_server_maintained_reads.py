"""A served ``detect`` is read from the delta engine.

A session's first served ``detect`` builds its delta engine, and every
full ``detect`` is answered from the violation set that engine maintains
— sorted into the batch executor's order — instead of a fresh executor
run.  The wire contract does not move: one durable session is driven
through every kind of edit that reorders a report (a plain delete, its
undo, a pivot delete, a delete + insert of an equal row that renders
differently, a witness-cell update, eviction + rehydration), and after
each step the served body must equal, **byte for byte**, the body a
freshly created session over the same rows serves (whose first read
builds an engine of its own), and the parsed document must equal a fresh
executor run over the offline shadow (``workloads.soak.offline_detect``).
"""

from __future__ import annotations

import json
from urllib.request import Request, urlopen

import pytest

from repro.client import ServerClient
from repro.engine.delta import Changeset
from repro.relational.instance import DatabaseInstance
from repro.rules_json import database_schema_from_dict, rules_from_list
from repro.server import make_server
from repro.session import Session
from repro.workloads.soak import canonical, offline_detect

SCHEMA_DOC = {
    "relations": [
        {
            "name": "emp",
            "attributes": [
                {"name": "dept", "type": "string"},
                {"name": "city", "type": "string"},
                {"name": "floor", "type": "int"},
                {"name": "w", "type": "float"},
            ],
        },
        {"name": "site", "attributes": [{"name": "city", "type": "string"}]},
    ]
}
RULES = [
    {"type": "ind", "lhs_relation": "emp", "lhs": ["city"],
     "rhs_relation": "site", "rhs": ["city"]},
    # a wildcard row with an RHS constant (singles and pairs per group)
    # ahead of a fully-constant one (a lookup: reported first)
    {"type": "cfd", "relation": "emp", "name": "floors",
     "lhs": ["dept"], "rhs": ["floor"],
     "tableau": [{"dept": "_", "floor": 1}, {"dept": "ops", "floor": 4}]},
    {"type": "fd", "relation": "emp", "lhs": ["dept", "city"], "rhs": ["w"]},
]
EMP = [
    {"dept": "eng", "city": "b", "floor": 1, "w": 1.5},
    {"dept": "ops", "city": "a", "floor": 4, "w": 0.0},
    {"dept": "eng", "city": "b", "floor": 2, "w": 2.5},
    {"dept": "ops", "city": "c", "floor": 5, "w": 5.5},
    {"dept": "eng", "city": "b", "floor": 3, "w": 3},
    {"dept": "qa", "city": "a", "floor": 1, "w": 6.5},
    {"dept": "ops", "city": "a", "floor": 1, "w": 7.5},
]
DATA = {"emp": EMP, "site": [{"city": "a"}]}


@pytest.fixture()
def served(tmp_path):
    server = make_server(port=0, state_dir=tmp_path, max_sessions=2)
    server.start_background()
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    client.create_session(schema=SCHEMA_DOC, rules=RULES, data=DATA, session_id="s")
    yield client, server.base_url
    server.shutdown()


def _shadow() -> Session:
    schema = database_schema_from_dict(SCHEMA_DOC)
    db = DatabaseInstance(schema)
    for name, rows in DATA.items():
        for row in rows:
            db.relation(name).add(row)
    return Session.from_instance(db, rules_from_list(RULES, schema))


def _detect_bytes(base_url: str, session_id: str) -> bytes:
    request = Request(
        f"{base_url}/v1/sessions/{session_id}/detect",
        data=b"{}",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urlopen(request, timeout=30) as response:
        return response.read()


def _served(client: ServerClient, session_id: str = "s") -> int:
    stats = client.diagnostics(session_id)["engine"]["delta_stats"]
    return stats["reports_served"] if stats else 0


def _check(client: ServerClient, base_url: str, shadow: Session) -> int:
    """The served body equals a fresh session's over the same rows, and a
    fresh executor run's; returns how many fragments the served report had
    to encode."""
    body = _detect_bytes(base_url, "s")
    served = json.loads(body)
    assert served.pop("wire_version") == 1
    assert canonical(served) == canonical(offline_detect(shadow))
    encoded = client.diagnostics("s")["report_encoding"]["fragments_encoded_last"]
    client.create_session(
        schema=SCHEMA_DOC, rules=RULES, data=shadow.data_documents(),
        session_id="cold",
    )
    try:
        assert body == _detect_bytes(base_url, "cold")
        # the fresh session's one read built its engine and was read off it
        assert _served(client, "cold") == 1
    finally:
        client.delete_session("cold")
    return encoded


def _edit(client: ServerClient, shadow: Session, ops: list):
    delta = client.apply("s", {"ops": ops})
    offline = shadow.apply(Changeset.from_dict({"ops": ops}))
    return delta, offline


def test_warm_detect_is_byte_equal_to_a_cold_sessions(served):
    (client, base_url), shadow = served, _shadow()

    # the first read builds the engine and is read off it
    assert _check(client, base_url, shadow) == shadow.detect().total > 6
    assert _served(client) == 1

    # a 1-row delete: the next read is maintained too
    delta, offline = _edit(
        client, shadow, [{"op": "delete", "relation": "emp", "row": EMP[3]}]
    )
    assert _check(client, base_url, shadow) <= len(delta.added) == 0
    assert _served(client) == 2

    # its undo re-appends the row at the relation's end
    undone = client.undo("s", delta.undo_token)
    shadow.apply(offline.undo)
    assert 1 <= _check(client, base_url, shadow) <= len(undone.added)

    # a pivot delete re-sweeps the (eng) and (eng, b) partitions
    delta, _ = _edit(
        client, shadow, [{"op": "delete", "relation": "emp", "row": EMP[0]}]
    )
    assert 1 <= _check(client, base_url, shadow) <= len(delta.added)

    # delete + insert of an equal row: 3 == 3.0, so the delta nets out to
    # nothing added, yet the report renders the new object — at the end
    assert EMP[4]["w"] == 3.0 and repr(EMP[4]["w"]) != repr(3.0)
    _edit(
        client,
        shadow,
        [{"op": "delete", "relation": "emp", "row": EMP[4]},
         {"op": "insert", "relation": "emp", "row": dict(EMP[4], w=3.0)}],
    )
    assert _check(client, base_url, shadow) >= 1

    # a cell update of a witness
    delta, _ = _edit(
        client,
        shadow,
        [{"op": "update", "relation": "emp", "row": EMP[2], "cells": {"floor": 9}}],
    )
    assert 1 <= _check(client, base_url, shadow) <= len(delta.added)

    # a source and a provider of the IND in one batch
    delta, _ = _edit(
        client,
        shadow,
        [{"op": "insert", "relation": "site", "row": {"city": "b"}},
         {"op": "delete", "relation": "site", "row": {"city": "a"}},
         {"op": "insert", "relation": "emp",
          "row": {"dept": "qa", "city": "d", "floor": 2, "w": 8.5}}],
    )
    assert 1 <= _check(client, base_url, shadow) <= len(delta.added)
    warm_reads = _served(client)
    assert warm_reads == 7

    # evict (two other sessions take both slots), then rehydrate: the
    # engine is gone, the first read builds a new one, the bytes stay
    for other in ("x", "y"):
        client.create_session(
            schema=SCHEMA_DOC, rules=RULES, data=DATA, session_id=other
        )
    assert "s" in client.cold_sessions()
    client.delete_session("x")
    assert _check(client, base_url, shadow) == shadow.detect().total
    assert _served(client) == 1
