"""Served ``detect`` is assembled from per-violation fragments.

The server keeps each violation's encoded bytes from the last full
report and encodes only what a new report adds.  One session is driven
through every event that could leave a stale fragment behind — edits,
undo, a witness-cell update, a delete + insert of an equal row whose
values render differently (``3`` / ``3.0``, ``0.0`` / ``-0.0``), a CFD
whose tableau rows report the same tuple pair under different reasons,
a rule rename, ``repair(adopt)``, eviction and rehydration — and after each the served document must
equal an offline :class:`~repro.session.Session` that saw the same
history, while the diagnostics' miss count shows the reuse.
"""

from __future__ import annotations

import json

import pytest

from repro.client import ServerClient
from repro.engine.delta import Changeset
from repro.relational.instance import DatabaseInstance
from repro.rules_json import database_schema_from_dict, rules_from_list
from repro.server import make_server
from repro.server.hosting import ReportFragments
from repro.session import Session
from repro.workloads.soak import canonical, offline_detect

SCHEMA_DOC = {
    "name": "emp",
    "attributes": [
        {"name": "dept", "type": "string"},
        {"name": "city", "type": "string"},
        {"name": "floor", "type": "int"},
        {"name": "w", "type": "float"},
    ],
}
FD_RULE = {"type": "fd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"]}
#: both tableau rows match the (eng, b) pairs: one tuple pair, two reasons
TWO_ROW_CFD = {
    "type": "cfd",
    "relation": "emp",
    "name": "two-rows",
    "lhs": ["dept", "city"],
    "rhs": ["floor"],
    "tableau": [
        {"dept": "_", "city": "b", "floor": "_"},
        {"dept": "_", "city": "_", "floor": "_"},
    ],
}
ROWS = [
    {"dept": "eng", "city": "b", "floor": 1, "w": 1.5},
    {"dept": "eng", "city": "b", "floor": 2, "w": 2.5},
    {"dept": "eng", "city": "b", "floor": 3, "w": 3},
    {"dept": "ops", "city": "a", "floor": 4, "w": 0.0},
    {"dept": "ops", "city": "a", "floor": 5, "w": 5.5},
    {"dept": "qa", "city": "a", "floor": 6, "w": 6.5},
]


def _shadow() -> Session:
    schema = database_schema_from_dict(SCHEMA_DOC)
    db = DatabaseInstance(schema)
    for row in ROWS:
        db.relation("emp").add(row)
    return Session.from_instance(db, rules_from_list([FD_RULE], schema))


@pytest.fixture()
def served(tmp_path):
    # one resident session at a time: creating another evicts the first
    server = make_server(port=0, state_dir=tmp_path, max_sessions=1)
    server.start_background()
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    client.create_session(
        schema=SCHEMA_DOC, rules=[FD_RULE], data={"emp": ROWS}, session_id="s"
    )
    yield client
    server.shutdown()


def _encoding(client: ServerClient) -> dict:
    return client.diagnostics("s")["report_encoding"]


def _check(client: ServerClient, shadow: Session) -> int:
    """Served detect equals the offline one (a fresh executor run: the
    warm shadow's own ``detect`` would be a maintained read too); returns
    fragments encoded."""
    offline = offline_detect(shadow)
    assert canonical(dict(client.detect("s"))) == canonical(offline)
    encoding = _encoding(client)
    assert encoding["fragments_cached"] <= offline["total"]
    # the same report asked for past the snapshot layer (a request with a
    # query string is never cached) reaches the handler and finds every
    # fragment already encoded
    again = client._request("POST", "/sessions/s/detect?uncached")
    assert canonical(dict(again)) == canonical(offline)
    assert _encoding(client)["fragments_encoded_last"] == 0
    return encoding["fragments_encoded_last"]


def _edit(client: ServerClient, shadow: Session, ops: list):
    delta = client.apply("s", {"ops": ops})
    offline = shadow.apply(Changeset.from_dict({"ops": ops}))
    return delta, offline


def test_fragment_reuse_never_serves_a_stale_violation(served):
    client, shadow = served, _shadow()

    # cold: every violation is a miss
    assert _check(client, shadow) == shadow.detect().total == 3

    # a 1-row delete removes violations and adds none
    delta, offline = _edit(
        client, shadow, [{"op": "delete", "relation": "emp", "row": ROWS[4]}]
    )
    assert _check(client, shadow) <= len(delta.added) == 0

    # undo brings the pair back: that one violation is encoded again
    undone = client.undo("s", delta.undo_token)
    shadow.apply(offline.undo)
    assert 1 <= _check(client, shadow) <= len(undone.added)

    # a cell update of a witness tuple re-encodes only what it touched
    delta, _ = _edit(
        client,
        shadow,
        [{"op": "update", "relation": "emp", "row": ROWS[1],
          "cells": {"floor": 7}}],
    )
    assert 1 <= _check(client, shadow) <= len(delta.added)

    # delete + insert of an equal row: 3 == 3.0 and 0.0 == -0.0 hash
    # alike, so the violations compare equal (the delta reports nothing
    # added) yet render differently — fragments key on the tuple objects
    for row, w in ((ROWS[2], 3.0), (ROWS[3], -0.0)):
        assert row["w"] == w and repr(row["w"]) != repr(w)
        _edit(
            client,
            shadow,
            [{"op": "delete", "relation": "emp", "row": row},
             {"op": "insert", "relation": "emp", "row": dict(row, w=w)}],
        )
        assert _check(client, shadow) >= 1

    # one tuple pair under two reasons of one CFD: a cache keyed on the
    # violation alone (its equality ignores the reason) would alias them
    schema = shadow.schema
    client.add_rules("s", [TWO_ROW_CFD])
    shadow.add_rules(*rules_from_list([TWO_ROW_CFD], schema))
    assert _encoding(client)["fragments_cached"] == 0
    assert _check(client, shadow) == shadow.detect().total

    # the same rules under a new name: every dependency object is new
    renamed = dict(TWO_ROW_CFD, name="renamed")
    client.set_rules("s", [FD_RULE, renamed])
    shadow.replace_rules(rules_from_list([FD_RULE, renamed], schema))
    assert _check(client, shadow) == shadow.detect().total
    assert "renamed" in client.detect("s")["per_dependency"]

    # repair(adopt) swaps the instance under the session
    client.repair("s", strategy="u", adopt=True)
    shadow.repair(strategy="u", adopt=True)
    assert _encoding(client)["fragments_cached"] == 0
    _check(client, shadow)
    delta, _ = _edit(
        client, shadow, [{"op": "insert", "relation": "emp",
                          "row": {"dept": "qa", "city": "a", "floor": 9,
                                  "w": 9.5}}],
    )
    assert 1 <= _check(client, shadow) <= len(delta.added)

    # evict (a second session takes the only slot), then rehydrate
    client.create_session(
        schema=SCHEMA_DOC, rules=[FD_RULE], data={"emp": ROWS[:1]},
        session_id="other",
    )
    assert client.cold_sessions() == ["s"]
    assert _check(client, shadow) == shadow.detect().total


def test_fragments_key_on_the_dependency_not_just_reason_and_tuples():
    """Two INDs from different columns into one target report the same
    tuple with the same reason text; only the dependency tells them apart."""
    schema = database_schema_from_dict({"relations": [
        {"name": "r", "attributes": [{"name": "a", "type": "int"},
                                      {"name": "b", "type": "int"}]},
        {"name": "s", "attributes": [{"name": "c", "type": "int"}]},
    ]})
    db = DatabaseInstance(schema)
    db.relation("r").add({"a": 1, "b": 2})
    rules = rules_from_list(
        [{"type": "ind", "lhs_relation": "r", "lhs": [column],
          "rhs_relation": "s", "rhs": ["c"]} for column in ("a", "b")],
        schema,
    )
    report = Session.from_instance(db, rules).detect()
    assert len({(v.reason, v.tuples) for v in report.violations}) == 1
    cache = ReportFragments()
    for expected_misses in (2, 0):
        fragments = cache.encode(report.violations)
        assert [json.loads(f) for f in fragments] == report.to_dict()["violations"]
        assert cache.encoded_last == expected_misses
