"""A write that changes no report leaves the session's snapshot standing.

A snapshot is keyed on the session's ``report_epoch()`` at publication,
and a session's first ``detect`` builds the delta engine that names it.
After an ``apply`` / ``undo`` the asyncio front end compares the
session's epoch with the snapshot's; equal means the delta engine vouches
that the ordered violation list did not change, and the snapshot stands
instead of being dropped — the ``detect`` after such a write is a
snapshot read.  These are count guards, not timings: ``/v1/metrics``
says how many writes kept a snapshot, how many ended one and how many
reads were served from one, ``delta_stats.reports_served`` says how many
detects reached the engine — and every served body is compared with a
fresh offline executor run (``workloads.soak.offline_detect``).
"""

from __future__ import annotations

import json
import random
import sys
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


def test_the_first_detects_snapshot_outlives_a_neutral_write(served):
    # the first read built the engine, so its snapshot carries an epoch
    # (when a read ran the executor, the write dropped it: dropped 1)
    served.detect()
    before = served.counts()
    served.apply(CLEAN_DELETE)
    served.detect()
    assert served.moved(before) == {"kept": 1, "dropped": 0, "hits": 1, "served": 0}


def test_a_read_with_no_engine_publishes_nothing(served):
    """A rules read before any detect finds no engine and so no epoch to
    key a snapshot on: it publishes none, and the read after a write
    misses — it reaches the handler, and publishes at the engine's epoch."""
    before = served.counts()
    assert served.client.get_rules("s") == RULES
    assert "s" not in served.server._snapshots
    served.apply(CLEAN_DELETE)
    assert served.client.get_rules("s") == RULES
    assert served.moved(before) == {"kept": 0, "dropped": 0, "hits": 0, "served": 0}
    assert "s" in served.server._snapshots


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
    moved = _race(served, cycles=200)
    # every neutral write met the snapshot the writer's own detect left
    assert moved["kept"] >= 200 and moved["dropped"] >= 400


def test_a_lock_free_reader_racing_pooled_writes_only_sees_legal_bodies(tmp_path):
    """The same race on a journaled session, whose edits all run on a pool
    thread while the loop answers snapshot reads without a lock, with the
    interpreter switching threads every 10 µs: a read that lands between
    an edit's row changes and its engine catching up may only miss."""
    harness = _Served(state_dir=tmp_path, fsync=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        moved = _race(harness, cycles=60)
        assert harness.client.metrics()["edits"]["edits_inline_total"] == 0
    finally:
        sys.setswitchinterval(interval)
        harness.server.shutdown()
    assert moved["kept"] >= 60 and moved["dropped"] >= 120


def _race(served, cycles: int) -> dict:
    """Write ``cycles`` cycles while a second client reads; returns how
    the counters moved."""
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
        for _ in range(cycles):
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
    return served.moved(before)


def test_the_counters_account_for_every_request_of_a_seeded_history(
    served, monkeypatch
):
    """One session, 300 seeded steps of full and summary detects, rules
    reads, neutral and report-changing applies, undos and rules writes:
    every read is a hit or reaches its handler, every write made while a
    snapshot stood kept or dropped it, and every detect equals a fresh
    offline executor run."""
    core, handled = served.server.core, []
    for name in ("_handle_detect", "_rules"):
        handler = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda *args, _h=handler: handled.append(1) or _h(*args)
        )
    schema = served.shadow.schema
    tokens = []

    def neutral(step):
        # a department of its own: one row, no violation
        row = {"dept": f"n{step}", "city": "a", "floor": step}
        tokens.append(served.apply({"ops": [{"op": "insert", "relation": "emp",
                                             "row": row}]}).undo_token)

    def changing(step):
        # a second floor for ``eng``: one more violation against its pivot
        row = {"dept": "eng", "city": f"c{step}", "floor": 100 + step}
        delta = served.apply({"ops": [{"op": "insert", "relation": "emp",
                                       "row": row}]})
        assert len(delta.added) == 1
        tokens.append(delta.undo_token)

    def undo(step):
        served.undo(tokens.pop())

    def put_rules(step):
        served.client.set_rules("s", RULES)
        served.shadow.replace_rules(rules_from_list(RULES, schema))

    def get_rules(step):
        assert served.client.get_rules("s") == RULES

    reads = {
        "detect": lambda step: served.detect(),
        "summary": lambda step: served.detect(include_violations=False),
        "rules": get_rules,
    }
    writes = {"neutral": neutral, "changing": changing, "undo": undo,
              "put_rules": put_rules}
    weights = {"detect": 4, "summary": 2, "rules": 2, "neutral": 4,
               "changing": 1, "undo": 2, "put_rules": 1}
    rng = random.Random(43)
    before = served.client.metrics()["snapshots"]
    sent = standing = 0
    for step in range(300):
        kind = rng.choices(list(weights), weights=list(weights.values()))[0]
        if kind in reads:
            sent += 1
            reads[kind](step)
        elif kind != "undo" or tokens:
            standing += "s" in served.server._snapshots
            writes[kind](step)
    after = served.client.metrics()["snapshots"]
    moved = {name: after[name] - before[name] for name in after}
    assert moved["snapshot_hits_total"] + len(handled) == sent
    assert (
        moved["snapshots_kept_total"] + moved["snapshots_dropped_total"] == standing
    )
    # the history exercised every outcome
    assert min(moved["snapshot_hits_total"], moved["snapshots_kept_total"],
               moved["snapshots_dropped_total"], len(handled)) > 0
