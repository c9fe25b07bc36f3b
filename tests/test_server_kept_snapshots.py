"""A write that changes no report leaves the session's snapshot standing.

After an ``apply`` / ``undo`` the asyncio front end compares the
session's ``report_epoch()`` with the one its snapshot recorded at
publication; equal means the delta engine vouches that the ordered
violation list did not change, and the snapshot is re-stamped at the new
fingerprint instead of dropped — the ``detect`` after such a write is a
snapshot read.  These are count guards, not timings: ``/v1/metrics``
says how many writes kept a snapshot, how many ended one and how many
reads were served from one, ``delta_stats.reports_served`` says how many
detects reached the engine — and every served body is compared with a
fresh offline executor run (``workloads.soak.offline_detect``).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.client import ServerClient, ServerError
from repro.engine.delta import Changeset
from repro.relational.instance import DatabaseInstance
from repro.rules_json import database_schema_from_dict, rules_from_list
from repro.server import make_server
from repro.server.hosting import HostedSession
from repro.session import Session
from repro.workloads.soak import offline_detect

SCHEMA_DOC = {
    "name": "emp",
    "attributes": [
        {"name": "dept", "type": "string"},
        {"name": "city", "type": "string"},
        {"name": "floor", "type": "int"},
    ],
}
RULES = [{"type": "fd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"]}]
ENG_PIVOT = {"dept": "eng", "city": "b", "floor": 1}
ENG_WITNESS = {"dept": "eng", "city": "c", "floor": 2}
OPS_PIVOT = {"dept": "ops", "city": "a", "floor": 3}
OPS_MEMBER = {"dept": "ops", "city": "c", "floor": 3}
ROWS = [ENG_PIVOT, ENG_WITNESS, OPS_PIVOT, OPS_MEMBER, {"dept": "qa", "city": "a", "floor": 1}]

#: a non-pivot row of a clean group leaves: no violation, witness or order moves
CLEAN_DELETE = {"ops": [{"op": "delete", "relation": "emp", "row": OPS_MEMBER}]}
#: a cell outside the rule, on a row the report renders
WITNESS_UPDATE = {
    "ops": [{"op": "update", "relation": "emp", "row": ENG_WITNESS,
             "cells": {"city": "z"}}]
}


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


class _Served:
    """One server, one client, one session ``s`` and its offline shadow."""

    def __init__(self, **server_options) -> None:
        self.server = make_server(port=0, **server_options)
        self.server.start_background()
        self.client = ServerClient(base_url=self.server.base_url)
        self.client.wait_ready()
        self.client.create_session(
            schema=SCHEMA_DOC, rules=RULES, data={"emp": ROWS}, session_id="s"
        )
        schema = database_schema_from_dict(SCHEMA_DOC)
        db = DatabaseInstance(schema)
        for row in ROWS:
            db.relation("emp").add(row)
        self.shadow = Session.from_instance(db, rules_from_list(RULES, schema))
        self._undo = {}

    def apply(self, changeset):
        delta = self.client.apply("s", changeset)
        offline = self.shadow.apply(Changeset.from_dict(changeset))
        self._undo[delta.undo_token] = offline.undo
        return delta

    def undo(self, token):
        delta = self.client.undo("s", token)
        self.shadow.apply(self._undo.pop(token))
        return delta

    def detect(self, **options):
        """A served detect, checked against a fresh offline executor run."""
        document = self.client.detect("s", **options)
        offline = offline_detect(self.shadow)
        if not options.get("include_violations", True):
            del offline["violations"]
        assert _canonical(document) == _canonical(offline)
        return document

    def warm(self) -> None:
        """Build the engine and publish a snapshot that carries its epoch."""
        self.undo(self.apply(CLEAN_DELETE).undo_token)
        self.detect()

    def counts(self) -> dict:
        """kept / dropped / hits from ``/v1/metrics`` plus reports_served."""
        snapshots = self.client.metrics()["snapshots"]
        stats = self.client.diagnostics("s")["engine"]["delta_stats"]
        return {
            "kept": snapshots["snapshots_kept_total"],
            "dropped": snapshots["snapshots_dropped_total"],
            "hits": snapshots["snapshot_hits_total"],
            "served": stats["reports_served"] if stats else 0,
        }

    def moved(self, before: dict) -> dict:
        after = self.counts()
        return {name: after[name] - before[name] for name in before}


@pytest.fixture()
def served():
    harness = _Served()
    yield harness
    harness.server.shutdown()


def test_a_report_neutral_write_keeps_the_snapshot(served):
    served.warm()
    before = served.counts()
    delta = served.apply(CLEAN_DELETE)
    assert delta.added == delta.removed == []
    first = served.detect()
    served.undo(delta.undo_token)
    second = served.detect()
    assert first == second
    # both writes left the snapshot standing, both reads were served from
    # it, and neither reached the engine (at the parent: kept 0, served 2)
    assert served.moved(before) == {"kept": 2, "dropped": 0, "hits": 2, "served": 0}


def test_a_witness_update_drops_and_the_next_detect_is_maintained(served):
    served.warm()
    before = served.counts()
    delta = served.apply(WITNESS_UPDATE)
    assert len(delta.added) == len(delta.removed) == 1
    assert served.detect()["violations"][0]["tuples"][1]["values"]["city"] == "z"
    assert served.moved(before) == {"kept": 0, "dropped": 1, "hits": 0, "served": 1}
    # a repeat is a plain hit on the snapshot that detect published …
    served.detect()
    # … which carries the new epoch, so a neutral write keeps it again
    served.apply(CLEAN_DELETE)
    served.detect()
    assert served.moved(before) == {"kept": 1, "dropped": 1, "hits": 2, "served": 1}


def test_a_snapshot_published_before_the_engine_was_warm_is_never_kept(served):
    # only read so far: the executor answered and no engine holds an epoch
    served.detect()
    before = served.counts()
    served.apply(CLEAN_DELETE)
    served.detect()
    assert served.moved(before) == {"kept": 0, "dropped": 1, "hits": 0, "served": 1}


@pytest.mark.parametrize(
    "write",
    [
        lambda client: client.set_rules("s", RULES),
        lambda client: client.add_rules("s", RULES),
        lambda client: client.repair("s"),
        lambda client: client.delete_session("s"),
    ],
    ids=["put-rules", "post-rules", "repair", "delete"],
)
def test_other_writes_always_drop(served, write):
    served.warm()
    before = served.client.metrics()["snapshots"]
    write(served.client)
    after = served.client.metrics()["snapshots"]
    assert after["snapshots_kept_total"] == before["snapshots_kept_total"]
    assert after["snapshots_dropped_total"] == before["snapshots_dropped_total"] + 1
    assert "s" not in served.server._snapshots


def test_every_cached_read_is_carried_across_a_kept_write(served, monkeypatch):
    """The engine's report speaks for every detect, and no edit touches
    the rule documents: after a report-neutral ``apply`` the full detect,
    the summary detect and the rules read are all hits."""
    served.warm()
    served.detect(include_violations=False)
    assert served.client.get_rules("s") == RULES  # published
    before = served.counts()
    served.apply(CLEAN_DELETE)
    core, ran = served.server.core, []
    for name in ("_handle_detect", "_rules"):
        handler = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda *args, _h=handler, _n=name: ran.append(_n) or _h(*args)
        )
    served.detect()
    served.detect(include_violations=False)
    assert served.client.get_rules("s") == RULES
    assert ran == []
    assert served.moved(before) == {"kept": 1, "dropped": 0, "hits": 3, "served": 0}


def test_get_rules_stays_a_hit_across_a_kept_write(served):
    served.warm()
    assert served.client.get_rules("s") == RULES  # published
    before = served.counts()
    served.apply(CLEAN_DELETE)
    assert served.client.get_rules("s") == RULES
    assert served.moved(before) == {"kept": 1, "dropped": 0, "hits": 1, "served": 0}


def test_an_evicted_and_rehydrated_session_is_never_kept(tmp_path):
    harness = _Served(state_dir=tmp_path, max_sessions=2)
    try:
        harness.warm()
        client = harness.client
        for other in ("x", "y"):
            client.create_session(
                schema=SCHEMA_DOC, rules=RULES, data={"emp": ROWS}, session_id=other
            )
        assert "s" in client.cold_sessions()
        client.delete_session("x")
        before = client.metrics()["snapshots"]
        # the write rehydrates ``s``: another hosted object, a cold engine
        harness.apply(CLEAN_DELETE)
        after = client.metrics()["snapshots"]
        assert after["snapshots_kept_total"] == before["snapshots_kept_total"]
        assert after["snapshots_dropped_total"] == before["snapshots_dropped_total"] + 1
        harness.detect()
        assert harness.counts()["served"] == 1
    finally:
        harness.server.shutdown()


def test_a_degraded_session_is_never_kept(monkeypatch):
    """The failed write is rolled back — a neutral edit and its inverse,
    so the epoch holds — but the failure degraded the session, and a
    degraded session answers through the gate, not from a snapshot."""
    harness = _Served(degraded_after=1)
    try:
        harness.warm()

        def journal_down(*_args):
            raise OSError("injected journal failure")

        monkeypatch.setattr(HostedSession, "_journal", journal_down)
        before = harness.client.metrics()["snapshots"]
        with pytest.raises(ServerError) as err:
            harness.client.apply("s", CLEAN_DELETE)
        assert err.value.status == 503
        after = harness.client.metrics()["snapshots"]
        assert after["snapshots_kept_total"] == before["snapshots_kept_total"]
        assert after["snapshots_dropped_total"] == before["snapshots_dropped_total"] + 1
    finally:
        harness.server.shutdown()


def test_a_concurrent_reader_only_sees_legal_bodies(served):
    """One connection writes 200 cycles — a neutral delete, its undo, a
    witness update, its undo — while another reads in a loop: every body
    it gets is the report before or after the update, nothing else."""
    # one cycle first: the update's undo re-appends the witness at the
    # relation's end, which is where every later cycle leaves it
    served.undo(served.apply(WITNESS_UPDATE).undo_token)
    base = _canonical(served.detect())
    token = served.apply(WITNESS_UPDATE).undo_token
    updated = _canonical(served.detect())
    served.undo(token)
    assert base != updated
    legal = {base, updated}

    seen = []
    failures = []
    done = threading.Event()

    def read() -> None:
        client = ServerClient(base_url=served.server.base_url)
        try:
            while not done.is_set():
                seen.append(_canonical(client.detect("s")))
        except Exception as exc:  # surfaced below, on the main thread
            failures.append(exc)

    before = served.counts()
    reader = threading.Thread(target=read)
    reader.start()
    try:
        for _ in range(200):
            delta = served.apply(CLEAN_DELETE)
            assert _canonical(served.client.detect("s")) == base
            served.undo(delta.undo_token)
            delta = served.apply(WITNESS_UPDATE)
            assert _canonical(served.client.detect("s")) == updated
            served.undo(delta.undo_token)
    finally:
        done.set()
        reader.join(timeout=30)
    assert not reader.is_alive() and not failures
    assert seen and set(seen) <= legal
    moved = served.moved(before)
    # every neutral write met the snapshot the writer's own detect left
    assert moved["kept"] >= 200 and moved["dropped"] >= 400
