"""Crash-safe session durability: WAL + snapshot recovery for ``serve``.

The acceptance bar is the ISSUE's: kill the server at *any* WAL byte
boundary — including mid-record — restart it on the same ``--state-dir``,
and every session (resident or evicted) must answer ``detect``
byte-identically to an uninterrupted twin, with its undo tokens intact.

Crashes are simulated in-process with ``shutdown()``, which writes no
snapshot: journals close with their WAL tails unsnapshotted, as a crash
leaves them — valid because the WAL is fsync'd inside each request, so
whatever a client saw acknowledged is on disk the moment the response
commits.  One subprocess test does the real thing with SIGKILL.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfd.detect import detect_violations
from repro.client import ServerClient, ServerError
from repro.deps.fd import FD
from repro.engine.delta import Changeset, DeltaEngine, violation_sequence
from repro.errors import ReproError
from repro.registry import wal_record_to_bytes, wal_records_from_bytes
from repro.relational.instance import DatabaseInstance
from repro.rules_json import database_schema_from_dict
from repro.server import MAX_UNDO_TOKENS, SessionStore, make_server
from repro.server.core import ServiceCore, body_reader
from repro.server.durability import _SNAPSHOT_CHUNK_ROWS, SessionJournal
from repro.server.hosting import HostedSession, ServerMetrics, SessionManager
from repro.session import Session
from repro.workloads.soak import canonical

from tests.engine.test_delta import RaisingCheck

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_DOC = {
    "name": "emp",
    "attributes": [
        {"name": "dept", "type": "string"},
        {"name": "floor", "type": "int"},
    ],
}
RULES_DOC = [{"type": "fd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"]}]
EXTRA_RULE = {"type": "fd", "relation": "emp", "lhs": ["floor"], "rhs": ["dept"]}
ROWS = [
    {"dept": "eng", "floor": 1},
    {"dept": "eng", "floor": 2},  # violates dept -> floor
    {"dept": "ops", "floor": 3},
]


def _boot(state_dir: Path, **kwargs):
    server = make_server(port=0, state_dir=state_dir, **kwargs)
    server.start_background()
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    return server, client


def _crash(server) -> None:
    """Stop the server as a crash would: ``shutdown()`` snapshots nothing."""
    server.shutdown()


def _create(client: ServerClient, session_id: str, rows=ROWS):
    return client.create_session(
        schema=SCHEMA_DOC,
        rules=RULES_DOC,
        data={"emp": list(rows)},
        session_id=session_id,
    )


def _insert(dept: str, floor: int):
    return {"ops": [{"op": "insert", "relation": "emp",
                     "row": {"dept": dept, "floor": floor}}]}


def _delete(dept: str, floor: int):
    return {"ops": [{"op": "delete", "relation": "emp",
                     "row": {"dept": dept, "floor": floor}}]}


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=str)


def _session_files(state_dir: Path, session_id: str):
    directory = state_dir / "sessions" / session_id
    return sorted(p.name for p in directory.iterdir())


def _bare_session():
    """A Session built off-server, for store-level tests."""
    from repro.relational.instance import DatabaseInstance
    from repro.rules_json import database_schema_from_dict
    from repro.session import Session

    db = DatabaseInstance(database_schema_from_dict(SCHEMA_DOC))
    for row in ROWS:
        db.relation("emp").add(row)
    return Session.from_instance(db, [])


def _raw_status(base_url: str, method: str, path: str) -> int:
    """Issue a request with the path sent verbatim (no '..' normalization —
    the equivalent of ``curl --path-as-is``)."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Length", "0")
        conn.endheaders()
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _core(state_dir: Path, max_sessions: int = 64) -> ServiceCore:
    """An in-process service over ``state_dir``: no fsync, no degraded
    gating."""
    manager = SessionManager(max_sessions, state_dir=state_dir, fsync=False)
    return ServiceCore(manager, ServerMetrics(), 0)


def _call(core: ServiceCore, method: str, path: str, body=None):
    raw = b"" if body is None else json.dumps(body).encode()
    response = core.handle(method, "/v1" + path, body_reader(raw))
    return response.status, json.loads(response.body)


def _create_in(core: ServiceCore, session_id: str) -> None:
    status, document = _call(core, "POST", "/sessions", {
        "id": session_id, "schema": SCHEMA_DOC, "rules": RULES_DOC,
        "data": {"emp": list(ROWS)},
    })
    assert status == 201, document


def _state(core: ServiceCore, session_id: str):
    """What a rehydration must reproduce: the canonical ``detect``
    document and the undo table — tokens, order, counter and changeset
    documents."""
    status, detect = _call(core, "POST", f"/sessions/{session_id}/detect")
    assert status == 200, detect
    items, counter = core.manager.get(session_id).undo_state()
    return canonical(detect), [(t, undo.to_dict()) for t, undo in items], counter


def _boom(*args, **kwargs):
    raise OSError(28, "injected: no space left on device")


class _NoTruncate:
    """A WAL handle whose ``truncate`` fails: a failed append's bytes
    cannot be cut back out."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def truncate(self, size=None):
        raise OSError(5, "injected: truncate failed")


def _current_wal(state_dir: Path, session_id: str) -> Path:
    directory = state_dir / "sessions" / session_id
    snapshots = sorted(directory.glob("snapshot-*.json"))
    assert snapshots, f"no snapshot for {session_id} under {directory}"
    generation = snapshots[-1].stem.split("-")[1]
    return directory / f"wal-{generation}.log"


class TestDurableLifecycle:
    def test_create_writes_gen0_snapshot(self, tmp_path):
        server, client = _boot(tmp_path)
        try:
            _create(client, "a")
            assert _session_files(tmp_path, "a") == ["snapshot-00000000.json"]
            snapshot = tmp_path / "sessions" / "a" / "snapshot-00000000.json"
            info = client.session_info("a")
            assert info["durability"] == {
                "enabled": True,
                "generation": 0,
                "wal_records": 0,
                "wal_bytes": 0,
                "snapshot_bytes": snapshot.stat().st_size,
            }
        finally:
            server.shutdown()

    def test_non_durable_server_reports_disabled(self, tmp_path):
        server = make_server(port=0)
        server.start_background()
        try:
            client = ServerClient(base_url=server.base_url)
            client.wait_ready()
            _create(client, "a")
            assert client.session_info("a")["durability"] == {"enabled": False}
            assert client.metrics()["durability"] == {"enabled": False}
            assert client.cold_sessions() == []
        finally:
            server.shutdown()

    def test_restart_recovers_byte_identical_detect(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("qa", 9))
        client.apply("a", _delete("ops", 3))
        before = client.detect("a")
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            assert client2.cold_sessions() == ["a"]
            assert _dump(client2.detect("a")) == _dump(before)
            assert client2.metrics()["durability"]["rehydrated_total"] == 1
        finally:
            server2.shutdown()

    def test_undo_tokens_survive_restart(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        tokens = [
            client.apply("a", _insert(f"d{i}", 100 + i))["undo_token"]
            for i in range(3)
        ]
        baseline = client.detect("a")
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            info = client2.session_info("a")
            assert info["undo_tokens"] == tokens  # ids *and* LRU order
            # replay the middle token: the d1 insert comes back out
            replay = client2.undo("a", tokens[1])
            assert len(replay["removed"]) + len(replay["added"]) >= 0
            assert client2.session_info("a")["relations"] == {"emp": 5}
            with pytest.raises(ServerError) as err:
                client2.undo("a", tokens[1])  # still single-use
            assert err.value.status == 400
            del baseline
        finally:
            server2.shutdown()

    def test_rules_changes_survive_restart(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        extra = {
            "type": "cfd",
            "relation": "emp",
            "name": "eng-first-floor",
            "lhs": ["dept"],
            "rhs": ["floor"],
            "tableau": [{"dept": "eng", "floor": 1}],
        }
        client.add_rules("a", [extra])
        before = client.detect("a")
        assert "eng-first-floor" in before["per_dependency"]
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(before)
            assert client2.get_rules("a") == RULES_DOC + [extra]
        finally:
            server2.shutdown()

    def test_rules_replace_survives_restart(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.set_rules("a", [])
        before = client.detect("a")
        assert before["total"] == 0
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            assert client2.get_rules("a") == []
            assert _dump(client2.detect("a")) == _dump(before)
        finally:
            server2.shutdown()

    def test_repair_adopt_survives_restart(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.repair("a", strategy="x", adopt=True)
        before = client.detect("a")
        assert before["total"] == 0
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(before)
            assert client2.session_info("a")["undo_tokens"] == []
        finally:
            server2.shutdown()

    def test_snapshot_cycle_retires_old_generation(self, tmp_path):
        server, client = _boot(tmp_path)
        try:
            _create(client, "a")
            writes = 0
            while client.session_info("a")["durability"]["generation"] < 2:
                client.apply("a", _insert(f"g{writes}", 500 + writes))
                writes += 1
            # the second cycle's snapshot outweighs the 3-row first: it
            # takes more writes to reach
            assert 2 < writes < 40
            client.apply("a", _insert("tail", 999))
            info = client.session_info("a")["durability"]
            # two cycles, one tail record
            assert info["generation"] == 2
            assert info["wal_records"] == 1
            files = _session_files(tmp_path, "a")
            assert files == ["snapshot-00000002.json", "wal-00000002.log"]
            directory = tmp_path / "sessions" / "a"
            assert info["wal_bytes"] == (directory / files[1]).stat().st_size
            assert info["snapshot_bytes"] == (directory / files[0]).stat().st_size
        finally:
            server.shutdown()

    def test_graceful_shutdown_flushes_to_snapshot(self, tmp_path, monkeypatch):
        """The one journal a graceful ``shutdown()`` still snapshots is a
        blocked one: its WAL holds a frame memory rolled back, so the
        stop writes memory down and the restart serves the rolled-back
        state, never the stray record."""
        server, client = _boot(tmp_path)  # fsync on: fdatasync can fail
        try:
            _create(client, "a")
            client.apply("a", _insert("qa", 9))
            before = client.detect("a")
            journal = server.manager.get("a").journal
            journal._wal_handle = _NoTruncate(journal._wal_handle)
            with monkeypatch.context() as patch:
                patch.setattr(os, "fdatasync", _boom, raising=False)
                with pytest.raises(ServerError) as err:
                    ServerClient(base_url=server.base_url, retries=0).apply(
                        "a", _insert("hr", 4)
                    )
            assert err.value.status == 500
            assert journal.blocked is not None
            assert _dump(client.detect("a")) == _dump(before)
        finally:
            server.shutdown()
        assert _session_files(tmp_path, "a") == ["snapshot-00000001.json"]

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(before)
        finally:
            server2.shutdown()

    def test_unflushed_shutdown_leaves_the_wal_tail(self, tmp_path):
        """A graceful ``shutdown()`` is the crash every other test here
        simulates with: it must cut no snapshot generation, leave exactly
        the acknowledged records in the WAL, and stop serving."""
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("qa", 9))
        client.apply("a", _delete("ops", 3))
        before = client.detect("a")
        hosted = server.manager.get("a")
        server.shutdown()
        assert hosted.closed and hosted.journal._wal_handle is None
        counters = server.manager.store.counters_snapshot()
        assert counters["snapshots_total"] == 1  # the create's, no other
        assert _session_files(tmp_path, "a") == [
            "snapshot-00000000.json", "wal-00000000.log",
        ]
        records, clean = wal_records_from_bytes(
            _current_wal(tmp_path, "a").read_bytes()
        )
        assert clean and [r["kind"] for r in records] == ["apply", "apply"]
        with pytest.raises(ServerError) as err:
            client.healthz()
        assert err.value.status == 0  # socket released

        server2, client2 = _boot(tmp_path)
        try:
            assert client2.cold_sessions() == ["a"]
            assert _dump(client2.detect("a")) == _dump(before)
            durability = client2.session_info("a")["durability"]
            assert (durability["generation"], durability["wal_records"]) == (0, 2)
        finally:
            server2.shutdown()


class TestEvictionAndColdSessions:
    def test_eviction_flushes_then_drops(self, tmp_path):
        """Eviction closes the journal and drops the session: no snapshot,
        the WAL tail stays, and the next touch replays it."""
        server, client = _boot(tmp_path, max_sessions=1)
        try:
            _create(client, "a")
            client.apply("a", _insert("qa", 9))
            before = client.detect("a")
            _create(client, "b")  # evicts "a" (close-then-drop)
            assert {s["session"] for s in client.list_sessions()} == {"b"}
            assert client.cold_sessions() == ["a"]
            assert _session_files(tmp_path, "a") == [
                "snapshot-00000000.json", "wal-00000000.log",
            ]
            # first touch rehydrates "a" transparently (and evicts "b")
            assert _dump(client.detect("a")) == _dump(before)
            assert client.cold_sessions() == ["b"]
            metrics = client.metrics()["durability"]
            assert metrics["snapshots_total"] == 2  # the two creates'
            assert metrics["rehydrated_total"] == 1
        finally:
            server.shutdown()

    def test_eviction_churn_writes_only_the_cadence_snapshots(self, tmp_path):
        """Two durable sessions evict each other on every write; the
        snapshots written are the two creates' and the cadence snapshots
        the byte rule calls for — as many as a twin that never evicts
        writes — and both rehydrate to the twin's detect and undo table."""
        churn = _core(tmp_path / "churn", max_sessions=1)
        twin = _core(tmp_path / "twin", max_sessions=2)
        try:
            for core in (churn, twin):
                _create_in(core, "a")
                _create_in(core, "b")
                for floor in range(12):
                    for session_id in ("a", "b"):
                        status, document = _call(
                            core, "POST", f"/sessions/{session_id}/apply",
                            _insert(session_id, floor),
                        )
                        assert status == 200, document
            assert churn.manager.evicted_total >= 20  # each one >= 10 times
            assert twin.manager.evicted_total == 0
            churned, cadenced = (
                core.manager.store.counters_snapshot()["snapshots_total"]
                for core in (churn, twin)
            )
            assert churned == cadenced > 2
            for session_id in ("a", "b"):
                assert _state(churn, session_id) == _state(twin, session_id)
            assert churn.manager.store.counters_snapshot()["rehydrated_total"] > 20
        finally:
            churn.manager.close_all()
            twin.manager.close_all()

    def test_a_blocked_journal_snapshots_at_close(self, tmp_path, monkeypatch):
        """An apply whose ``fdatasync`` and ``truncate`` both fail leaves a
        whole frame in a blocked WAL while memory rolls the apply back.
        Closing snapshots that memory, so the rehydrated session is the
        live, rolled-back one: the stray record never replays."""
        # fsync on: the append's fdatasync is the call that fails
        manager = SessionManager(state_dir=tmp_path)
        core = ServiceCore(manager, ServerMetrics(), 0)
        recovered = None
        try:
            _create_in(core, "a")
            _call(core, "POST", "/sessions/a/apply", _insert("qa", 9))
            before = _state(core, "a")
            journal = manager.get("a").journal
            journal._wal_handle = _NoTruncate(journal._wal_handle)
            with monkeypatch.context() as patch:
                patch.setattr(os, "fdatasync", _boom, raising=False)
                status, document = _call(
                    core, "POST", "/sessions/a/apply", _insert("hr", 4)
                )
            assert status == 500, document
            assert journal.blocked is not None
            assert _state(core, "a") == before
            records, _ = wal_records_from_bytes(
                _current_wal(tmp_path, "a").read_bytes()
            )
            assert [r["token"] for r in records] == ["undo-1", "undo-2"]
            snapshots = manager.store.counters_snapshot()["snapshots_total"]
            manager.close_all()
            assert manager.store.counters_snapshot()["snapshots_total"] == (
                snapshots + 1
            )
            assert _session_files(tmp_path, "a") == ["snapshot-00000001.json"]

            recovered = _core(tmp_path)
            assert _state(recovered, "a") == before
        finally:
            manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()

    def test_delete_purges_cold_session(self, tmp_path):
        server, client = _boot(tmp_path, max_sessions=1)
        try:
            _create(client, "a")
            _create(client, "b")  # "a" now cold
            assert client.cold_sessions() == ["a"]
            assert client.delete_session("a") == {"session": "a", "closed": True}
            assert client.cold_sessions() == []
            with pytest.raises(ServerError) as err:
                client.detect("a")
            assert err.value.status == 404
            assert not (tmp_path / "sessions" / "a").exists()
        finally:
            server.shutdown()

    def test_duplicate_id_vs_cold_state_conflicts(self, tmp_path):
        server, client = _boot(tmp_path, max_sessions=1)
        try:
            _create(client, "a")
            _create(client, "b")  # "a" cold, but its id is still taken
            with pytest.raises(ServerError) as err:
                _create(client, "a")
            assert err.value.status == 409
            assert "durable state" in str(err.value)
        finally:
            server.shutdown()

    def test_auto_ids_skip_cold_sessions(self, tmp_path):
        server, client = _boot(tmp_path, max_sessions=1)
        auto = client.create_session(schema=SCHEMA_DOC, data={"emp": ROWS})
        _crash(server)
        server2, client2 = _boot(tmp_path, max_sessions=1)
        try:
            fresh = client2.create_session(schema=SCHEMA_DOC, data={"emp": ROWS})
            assert fresh["session"] != auto["session"]
        finally:
            server2.shutdown()


    def test_a_failing_snapshot_during_rehydration_still_evicts(
        self, tmp_path, monkeypatch
    ):
        """Rehydrating a session whose cadence snapshot failed before the
        crash evicts another one; with every snapshot failing, both still
        answer, no eviction so much as tries a snapshot, no eviction
        tombstone is left for a resolver to wait on forever, and the
        outweighing tail is folded by the next write."""
        core = _core(tmp_path)
        recovered = None
        try:
            _create_in(core, "a")
            _create_in(core, "b")
            journal = core.manager.get("a").journal
            with monkeypatch.context() as patch:
                patch.setattr(SessionJournal, "write_snapshot", _boom)
                floor = 0
                while journal.wal_bytes < journal.snapshot_bytes:
                    floor += 1
                    status, document = _call(
                        core, "POST", "/sessions/a/apply", _insert("qa", floor)
                    )
                    assert status == 200, document  # acknowledged from the WAL
            assert journal.generation == 0
            for floor in (7, 8):
                _call(core, "POST", "/sessions/b/apply", _insert("hr", floor))
            before = {sid: _state(core, sid) for sid in ("a", "b")}
            core.manager.close_all()

            recovered = _core(tmp_path, max_sessions=1)
            monkeypatch.setattr(SessionJournal, "write_snapshot", _boom)
            for session_id in ("b", "a", "b", "a"):
                states = []
                worker = threading.Thread(
                    target=lambda: states.append(_state(recovered, session_id)),
                    daemon=True,
                )
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive(), f"{session_id} hung"
                assert states == [before[session_id]]
                assert recovered.manager._evicting == {}
            counters = recovered.manager.store.counters_snapshot()
            assert recovered.manager.evicted_total >= 3
            assert counters["snapshot_failures_total"] == 0
            monkeypatch.undo()

            hosted = recovered.manager.get("a")
            assert hosted.journal.wal_bytes >= hosted.journal.snapshot_bytes
            generation = hosted.journal.generation
            status, document = _call(
                recovered, "POST", "/sessions/a/apply", _insert("ops", 4)
            )
            assert status == 200, document
            assert hosted.journal.generation == generation + 1
            assert (hosted.journal.wal_records, hosted.journal.wal_bytes) == (0, 0)
        finally:
            core.manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()


class TestTornTail:
    """A crash mid-write leaves at worst a torn final WAL record; recovery
    must truncate it and land on the last fully-acknowledged state."""

    def _framed(self, wal: Path):
        data = wal.read_bytes()
        records, clean = wal_records_from_bytes(data)
        assert clean == len(data)  # an acknowledged WAL is never torn
        return data, records

    def test_half_written_record_is_dropped(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        checkpoints = [client.detect("a")]
        # two, not three: a third insert's bytes would outweigh the 3-row
        # snapshot and retire this WAL
        for i in range(2):
            client.apply("a", _insert(f"t{i}", 700 + i))
            checkpoints.append(client.detect("a"))
        _crash(server)

        wal = _current_wal(tmp_path, "a")
        data, records = self._framed(wal)
        assert len(records) == 2
        last_frame = wal_record_to_bytes(records[-1])
        # cut into the final record's payload: a torn write
        wal.write_bytes(data[: len(data) - len(last_frame) // 2])

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(checkpoints[-2])
            # the torn bytes were truncated away on disk too
            kept, clean = wal_records_from_bytes(wal.read_bytes())
            assert len(kept) == len(records) - 1
            assert clean == wal.stat().st_size
        finally:
            server2.shutdown()

    def test_torn_header_is_dropped(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("x", 1))
        before = client.detect("a")
        _crash(server)

        wal = _current_wal(tmp_path, "a")
        with open(wal, "ab") as handle:
            handle.write(struct.pack(">I", 12345)[:3])  # 3 of 8 header bytes

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(before)
        finally:
            server2.shutdown()

    def test_corrupt_crc_stops_replay_at_the_tear(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("x", 1))
        good = client.detect("a")
        client.apply("a", _insert("y", 2))
        _crash(server)

        wal = _current_wal(tmp_path, "a")
        data = wal.read_bytes()
        # flip a payload byte inside the *last* record: CRC mismatch
        wal.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(good)
        finally:
            server2.shutdown()

    @pytest.mark.parametrize("payload", [b'"\xff"', b"\x80abc"])
    def test_a_crc_valid_frame_that_is_not_utf8_ends_the_log(self, payload):
        """A frame whose CRC matches but whose payload is not UTF-8 is as
        torn as garbage that is not JSON: the log ends before it."""
        good = wal_record_to_bytes({"op": "apply", "n": 1})
        bad = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        records, clean = wal_records_from_bytes(good + bad + good)
        assert records == [{"op": "apply", "n": 1}]
        assert clean == len(good)

    def test_append_after_truncated_tail_stays_clean(self, tmp_path):
        """New WAL appends after a torn-tail recovery must start at the
        truncation point — frame-aligned, fully replayable."""
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("x", 1))
        client.apply("a", _insert("y", 2))
        _crash(server)

        wal = _current_wal(tmp_path, "a")
        data = wal.read_bytes()
        wal.write_bytes(data[:-4])  # tear the last record

        server2, client2 = _boot(tmp_path)
        client2.detect("a")  # rehydrate (truncates the tail)
        client2.apply("a", _insert("z", 3))
        after_append = client2.detect("a")
        _crash(server2)

        server3, client3 = _boot(tmp_path)
        try:
            assert _dump(client3.detect("a")) == _dump(after_append)
        finally:
            server3.shutdown()


class TestCrashRecoveryProperties:
    """Hypothesis-seeded edit streams with a crash at a random point.

    Each example drives a durable server over HTTP with a random
    insert/delete/undo stream (recording the acknowledged detect document
    after every successful write — the 'uninterrupted twin'), crashes it
    without flushing, optionally tears the final WAL record, restarts,
    and requires detect to be byte-identical to the twin's document for
    the surviving prefix.
    """

    ACTIONS = st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "undo"]),
            st.sampled_from(["eng", "ops", "qa", "hr"]),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=12,
    )

    @given(actions=ACTIONS, tear=st.booleans(), data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_detect_matches_uninterrupted_twin(self, actions, tear, data):
        state_dir = Path(tempfile.mkdtemp(prefix="repro-durability-"))
        server = None
        server2 = None
        try:
            server, client = _boot(state_dir)
            _create(client, "p")
            checkpoints = [client.detect("p")]
            tokens: list = []
            for op, dept, floor in actions:
                try:
                    if op == "insert":
                        delta = client.apply("p", _insert(dept, floor))
                    elif op == "delete":
                        delta = client.apply("p", _delete(dept, floor))
                    elif tokens:
                        delta = client.undo("p", tokens.pop(0))
                    else:
                        continue
                except ServerError:
                    continue  # rejected edits write no WAL record
                tokens.append(delta["undo_token"])
                checkpoints.append(client.detect("p"))
            _crash(server)
            server = None

            expected = checkpoints[-1]
            wal = _current_wal(state_dir, "p")
            if tear and wal.exists() and wal.stat().st_size > 0:
                raw = wal.read_bytes()
                records, clean = wal_records_from_bytes(raw)
                assert clean == len(raw)
                last_frame = wal_record_to_bytes(records[-1])
                cut = data.draw(
                    st.integers(min_value=1, max_value=len(last_frame) - 1),
                    label="bytes cut off the final record",
                )
                wal.write_bytes(raw[: len(raw) - cut])
                # dropping the final record rewinds exactly one checkpoint
                expected = checkpoints[-1 - 1]

            server2, client2 = _boot(state_dir)
            assert _dump(client2.detect("p")) == _dump(expected)
        finally:
            for srv in (server, server2):
                if srv is not None:
                    srv.shutdown()
            shutil.rmtree(state_dir, ignore_errors=True)


class TestSigkillSubprocess:
    """The real thing: SIGKILL a ``repro serve --state-dir`` subprocess
    mid-flight and recover on a fresh process."""

    def _spawn(self, state_dir: Path) -> tuple:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        # no --quiet: the listening banner is how a port-0 server says
        # where it listens
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--state-dir", str(state_dir),
            ],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        banner = proc.stderr.readline()
        assert "listening on" in banner, banner
        base_url = next(
            word for word in banner.split() if word.startswith("http://")
        )
        client = ServerClient(base_url=base_url)
        client.wait_ready()
        return proc, client

    def test_sigkill_then_restart_recovers(self, tmp_path):
        proc, client = self._spawn(tmp_path)
        try:
            _create(client, "k")
            client.apply("k", _insert("qa", 9))
            token = client.apply("k", _insert("hr", 4))["undo_token"]
            before = client.detect("k")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stderr.close()

        proc2, client2 = self._spawn(tmp_path)
        try:
            assert client2.cold_sessions() == ["k"]
            assert _dump(client2.detect("k")) == _dump(before)
            replay = client2.undo("k", token)
            assert "undo_token" in replay
        finally:
            proc2.terminate()
            proc2.wait(timeout=30)
            proc2.stderr.close()

    def test_sigterm_stops_like_ctrl_c_then_restart_recovers(self, tmp_path):
        """SIGTERM, the stop a supervisor sends, drains and closes as
        Ctrl-C does: exit 0, no traceback, and the next process serves
        the same detect."""
        proc, client = self._spawn(tmp_path)
        try:
            _create(client, "t")
            client.apply("t", _insert("qa", 9))
            before = client.detect("t")
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=10)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stderr.close()
        assert returncode == 0
        assert "Traceback" not in stderr, stderr

        proc2, client2 = self._spawn(tmp_path)
        try:
            assert _dump(client2.detect("t")) == _dump(before)
        finally:
            proc2.terminate()
            proc2.wait(timeout=30)
            proc2.stderr.close()


class TestSessionIdConfinement:
    """'.'/'..' are directory syntax, not session names: they must map to
    ordinary directories (or 404), never to the sessions dir / state root
    — ``DELETE /sessions/..`` used to rmtree the entire ``--state-dir``."""

    def test_store_maps_dot_ids_to_safe_directories(self, tmp_path):
        store = SessionStore(tmp_path)
        for session_id in (".", "..", "..."):
            directory = store._session_dir(session_id)
            assert directory.parent == store.sessions_dir
            assert directory.name not in ("", ".", "..")
            assert not store.exists(session_id)
        with pytest.raises(ReproError):
            store._session_dir("")

    def test_dot_id_round_trips_without_escaping(self, tmp_path):
        store = SessionStore(tmp_path)
        journal = store.create("..", _bare_session())
        journal.close()
        assert store.session_ids() == [".."]
        store.purge("..")
        assert store.session_ids() == []
        # the purge removed one session directory, not the state root
        assert store.sessions_dir.is_dir()
        assert tmp_path.is_dir()

    def test_dot_ids_over_http_are_404_and_destroy_nothing(self, tmp_path):
        server, client = _boot(tmp_path)
        try:
            _create(client, "a")
            for session_id in (".", ".."):
                for method in ("DELETE", "GET"):
                    status = _raw_status(
                        server.base_url, method, f"/v1/sessions/{session_id}"
                    )
                    assert status == 404, (method, session_id, status)
                status = _raw_status(
                    server.base_url,
                    "POST",
                    f"/v1/sessions/{session_id}/detect",
                )
                assert status == 404, session_id
            # every session's durable state survived the probes
            assert _session_files(tmp_path, "a") == ["snapshot-00000000.json"]
            assert client.detect("a")["total"] >= 1
        finally:
            server.shutdown()

    def test_empty_session_id_create_is_rejected(self, tmp_path):
        server, client = _boot(tmp_path)
        try:
            with pytest.raises(ServerError) as err:
                _create(client, "")
            assert err.value.status == 400
            assert (tmp_path / "sessions").is_dir()
        finally:
            server.shutdown()


class TestJournalFailure:
    """A write verb whose WAL append (or forced snapshot) fails must leave
    the session exactly as before the request: memory rolled back, token
    table untouched, nothing extra on disk — the client's 5xx and the
    recovered state agree the write never happened."""

    def test_wal_append_failure_rolls_back_apply(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("qa", 9))
        before = client.detect("a")
        tokens_before = client.session_info("a")["undo_tokens"]

        hosted = server.manager.get("a")
        original = hosted.journal.log_apply
        def boom(*args, **kwargs):
            raise OSError(28, "injected: no space left on device")
        hosted.journal.log_apply = boom
        with pytest.raises(ServerError) as err:
            client.apply("a", _insert("hr", 4))
        assert err.value.status == 500
        hosted.journal.log_apply = original

        assert _dump(client.detect("a")) == _dump(before)
        assert client.session_info("a")["undo_tokens"] == tokens_before
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            # disk agrees with the rolled-back memory state
            assert _dump(client2.detect("a")) == _dump(before)
        finally:
            server2.shutdown()

    def test_wal_append_failure_rolls_back_undo_in_place(self, tmp_path):
        server, client = _boot(tmp_path)
        try:
            _create(client, "a")
            tokens = [
                client.apply("a", _insert(f"d{i}", 100 + i))["undo_token"]
                for i in range(3)
            ]
            before = client.detect("a")

            hosted = server.manager.get("a")
            original = hosted.journal.log_undo
            def boom(*args, **kwargs):
                raise OSError(28, "injected: no space left on device")
            hosted.journal.log_undo = boom
            with pytest.raises(ServerError) as err:
                client.undo("a", tokens[1])
            assert err.value.status == 500
            hosted.journal.log_undo = original

            # database reverted, token still valid *and* in its old slot
            assert _dump(client.detect("a")) == _dump(before)
            assert client.session_info("a")["undo_tokens"] == tokens
            replay = client.undo("a", tokens[1])
            assert "undo_token" in replay
        finally:
            server.shutdown()

    def test_wal_append_failure_rolls_back_rules(self, tmp_path):
        server, client = _boot(tmp_path)
        try:
            _create(client, "a")
            hosted = server.manager.get("a")
            original = hosted.journal.log_rules
            def boom(*args, **kwargs):
                raise OSError(28, "injected: no space left on device")
            hosted.journal.log_rules = boom
            with pytest.raises(ServerError) as err:
                client.set_rules("a", [])
            assert err.value.status == 500
            hosted.journal.log_rules = original
            assert client.get_rules("a") == RULES_DOC
        finally:
            server.shutdown()

    def test_failed_adopt_snapshot_rolls_the_adopt_back(self, tmp_path, monkeypatch):
        """An adopt's journal write is its snapshot; when that fails, the
        repaired instance and the cleared undo table go back, so memory
        and disk both still hold the unrepaired session."""
        core = _core(tmp_path)
        recovered = None
        try:
            _create_in(core, "a")
            _call(core, "POST", "/sessions/a/apply", _insert("qa", 9))
            before = _state(core, "a")
            assert json.loads(before[0])["total"] == 1
            assert [token for token, _ in before[1]] == ["undo-1"]

            monkeypatch.setattr(SessionJournal, "write_snapshot", _boom)
            status, error = _call(core, "POST", "/sessions/a/repair", {"adopt": True})
            monkeypatch.undo()
            assert status == 500, error
            assert _state(core, "a") == before
            core.manager.close_all()

            recovered = _core(tmp_path)
            assert _state(recovered, "a") == before
        finally:
            core.manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()

    def test_a_rolled_back_delete_keeps_its_row_in_place(self, tmp_path):
        """Rolling a delete back revives the row where it was: re-adding
        it at the end would reorder the live report away from the one a
        recovery replays from the WAL, which never saw the delete."""
        core = _core(tmp_path)
        recovered = None
        try:
            _create_in(core, "a")
            before = _state(core, "a")
            journal = core.manager.get("a").journal
            journal.log_apply = _boom
            status, error = _call(core, "POST", "/sessions/a/apply", _delete("eng", 1))
            del journal.log_apply
            assert status == 500, error
            assert _state(core, "a") == before
            status, delta = _call(core, "POST", "/sessions/a/apply", _delete("eng", 1))
            assert status == 200 and delta["remaining"] == 0, delta
            before = _state(core, "a")
            core.manager.close_all()

            recovered = _core(tmp_path)
            assert _state(recovered, "a") == before
        finally:
            core.manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()

    @pytest.mark.parametrize("durable", [True, False], ids=["durable", "in-memory"])
    @pytest.mark.parametrize("verb", ["apply", "undo"])
    def test_a_failed_maintenance_keeps_no_edit(
        self, tmp_path, monkeypatch, verb, durable
    ):
        """A failed violation maintenance is rolled back with its edit, in
        the delta engine's own transaction: the 500 leaves the rows, the
        report and the undo table as they were, and the engine rebuilt
        once — the write's rollback finds nothing left to put back."""
        core = (
            _core(tmp_path)
            if durable
            else ServiceCore(SessionManager(), ServerMetrics(), 0)
        )
        recovered = None
        try:
            _create_in(core, "a")
            status, delta = _call(core, "POST", "/sessions/a/apply", _insert("qa", 9))
            assert status == 200, delta
            before = _state(core, "a")
            engine = core.manager.get("a").session.warm_engine
            rebuilds = engine.stats.rebuilds
            if verb == "apply":
                path, body = "/sessions/a/apply", _delete("eng", 1)
            else:
                path, body = "/sessions/a/undo", {"token": delta["undo_token"]}
            monkeypatch.setattr(DeltaEngine, "_maintain", _boom)
            status, error = _call(core, "POST", path, body)
            monkeypatch.undo()
            assert status == 500, error
            assert core.manager.get("a").session.warm_engine is engine
            assert engine.stats.rebuilds == rebuilds + 1
            assert core.manager.get("a").info()["relations"] == {"emp": 4}
            assert _state(core, "a") == before
            if durable:
                core.manager.close_all()
                recovered = _core(tmp_path)
                assert _state(recovered, "a") == before
        finally:
            core.manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()

    def test_a_rollback_whose_rebuild_raises_drops_the_engine(self):
        """A journal failure rolls the write back, and the engine must
        rebuild under the restored rows; when that rebuild raises too, the
        session drops the engine instead of the rollback raising, so the
        undo table is restored, the client sees the journal's error, and
        the next write builds a fresh engine."""
        check = RaisingCheck("emp")

        class Journal:
            blocked = None
            wal_bytes, snapshot_bytes = 0, 1 << 30

            def log_apply(self, *args):
                check.failures = 99  # every rebuild from here on raises
                raise OSError(28, "injected: no space left on device")

        db = DatabaseInstance(database_schema_from_dict(SCHEMA_DOC))
        for row in ROWS:
            db.relation("emp").add(row)
        rules = [FD("emp", ["dept"], ["floor"]), check]
        hosted = HostedSession("a", Session.from_instance(db, rules))
        hosted.apply(Changeset().insert("emp", {"dept": "qa", "floor": 9}))
        hosted.journal = Journal()
        relation = db.relation("emp")
        rows = relation.tuples()
        report = violation_sequence(hosted.session.detect().violations)
        undo = hosted.undo_state()
        with pytest.raises(OSError):
            hosted.apply(Changeset().delete("emp", rows[0]))
        assert hosted.session.warm_engine is None
        assert hosted.undo_state() == undo
        assert all(a is b for a, b in zip(relation.tuples(), rows, strict=True))
        check.failures = 0
        assert violation_sequence(hosted.session.detect().violations) == report
        hosted.journal = None
        hosted.apply(Changeset().delete("emp", rows[0]))
        assert hosted.session.warm_engine.is_current()
        assert violation_sequence(hosted.session.detect().violations) == (
            violation_sequence(detect_violations(db, rules).violations)
        )

    def test_failed_fsync_truncates_partial_record(self, tmp_path, monkeypatch):
        store = SessionStore(tmp_path)
        journal = store.create("j", _bare_session())
        journal.log_apply({"ops": []}, "undo-1")
        wal = journal._wal_path(journal.generation)
        size_before = wal.stat().st_size

        def boom(fd):
            raise OSError(5, "injected I/O error")
        monkeypatch.setattr(os, "fdatasync", boom, raising=False)
        with pytest.raises(OSError):
            journal.log_apply({"ops": []}, "undo-2")
        monkeypatch.undo()

        # the partial record was cut back out; the next append lands
        # frame-aligned and the log replays fully
        assert wal.stat().st_size == size_before
        assert journal.wal_records == 1
        journal.log_apply({"ops": []}, "undo-2")
        records, clean = wal_records_from_bytes(wal.read_bytes())
        assert len(records) == 2
        assert clean == wal.stat().st_size
        journal.close()

    def test_blocked_journal_snapshots_instead_of_appending(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        hosted = server.manager.get("a")
        hosted.journal.blocked = "simulated earlier WAL failure"
        client.apply("a", _insert("qa", 9))  # still succeeds, durably
        info = client.session_info("a")["durability"]
        assert info["generation"] == 1
        assert info["wal_records"] == 0
        assert hosted.journal.blocked is None
        before = client.detect("a")
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(before)
        finally:
            server2.shutdown()

    def test_corrupt_newest_snapshot_fails_loudly(self, tmp_path):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("x", 1))
        client.apply("a", _insert("y", 2))
        client.apply("a", _insert("z", 3))  # cadence snapshot: generation 1
        assert client.session_info("a")["durability"]["generation"] == 1
        _crash(server)

        directory = tmp_path / "sessions" / "a"
        newest = sorted(directory.glob("snapshot-*.json"))[-1]
        generation = int(newest.stem.split("-")[1])
        corrupt = directory / f"snapshot-{generation + 1:08d}.json"
        corrupt.write_text("{ this is not a snapshot", encoding="utf-8")

        server2, client2 = _boot(tmp_path)
        try:
            # recovery must refuse to silently rewind to generation 1
            # (its predecessor's WAL is gone) — corruption is loud
            with pytest.raises(ServerError) as err:
                client2.detect("a")
            assert err.value.status == 400
            assert "snapshot" in str(err.value)
        finally:
            server2.shutdown()

    def test_a_newest_snapshot_that_is_not_utf8_fails_loudly(self, tmp_path):
        store = SessionStore(tmp_path, fsync=False)
        store.create("a", _bare_session()).close()
        directory = tmp_path / "sessions" / "a"
        (directory / "snapshot-00000001.json").write_bytes(b'{"schema": "\xff"}')
        with pytest.raises(ReproError, match="newest snapshot .* is unreadable"):
            store.recover("a")


# --------------------------------------------------------------------------
# The snapshot writer against its reference
# --------------------------------------------------------------------------


def _tuple_documents(session):
    """Every relation's rows rendered from ``Tuple`` objects — those of a
    copy, so the session's own store materialises nothing — independent
    of the column reader the writer and ``data_documents`` share."""
    return {
        relation.schema.name: [t.as_dict() for t in relation.copy()]
        for relation in session.database
    }


def _reference_snapshot(journal, session, undo_items, undo_counter) -> bytes:
    """The whole-document form ``write_snapshot`` had before it streamed:
    assemble everything, encode it in one go.  The streamed file must be
    these bytes exactly."""
    document = {
        "format": 1,
        "session": journal.session_id,
        "executor": "indexed",
        "schema": session.schema_document(),
        "rules": session.rules_documents(),
        "data": _tuple_documents(session),
        "undo": [[token, undo.to_dict()] for token, undo in undo_items],
        "undo_counter": undo_counter,
    }
    return json.dumps(document, separators=(",", ":"), default=str).encode()


def _emp_session(n_rows: int, rules=RULES_DOC):
    from repro.relational.instance import DatabaseInstance
    from repro.rules_json import database_schema_from_dict, rules_from_list
    from repro.session import Session

    db_schema = database_schema_from_dict(SCHEMA_DOC)
    db = DatabaseInstance(db_schema)
    db.relation("emp").extend_rows(
        [{"dept": f"d{i // 2}", "floor": i % 3} for i in range(n_rows)]
    )
    return Session.from_instance(db, rules_from_list(rules, db_schema))


def _two_relation_session():
    """``emp`` holds rows, ``site`` is empty — and comes first."""
    from repro.relational.instance import DatabaseInstance
    from repro.rules_json import database_schema_from_dict
    from repro.session import Session

    db = DatabaseInstance(database_schema_from_dict({"relations": [
        {"name": "site", "attributes": [{"name": "city", "type": "string"}]},
        SCHEMA_DOC,
    ]}))
    for row in ROWS:
        db.relation("emp").add(row)
    return Session.from_instance(db, [])


def _odd_cells_session():
    """A non-ASCII string cell and a cell only ``default=str`` can encode."""
    from fractions import Fraction

    from repro.relational.domains import STRING, EnumDomain
    from repro.relational.instance import DatabaseInstance
    from repro.relational.schema import (
        Attribute, DatabaseSchema, RelationSchema,
    )
    from repro.session import Session

    third = Fraction(1, 3)
    schema = RelationSchema("odd", [
        Attribute("name", STRING),
        Attribute("share", EnumDomain([third, Fraction(2, 3)])),
    ])
    db = DatabaseInstance(DatabaseSchema([schema]))
    db.relation("odd").add({"name": "Zoë — 東京 \"q\"\n", "share": third})
    return Session.from_instance(db, [])


def _rendered_cells_session():
    """A chunk and one more live rows whose cells render unlike their
    code's representative (``3.0`` beside ``3``, ``-0.0`` beside
    ``0.0``), with dead rows left between them."""
    from repro.relational.domains import FLOAT, INT
    from repro.relational.instance import DatabaseInstance
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.tuples import Tuple
    from repro.session import Session

    schema = RelationSchema("m", [("k", INT), ("w", FLOAT)])
    db = DatabaseInstance(DatabaseSchema([schema]))
    cells = [3, 3.0, 0.0, -0.0, 1.5]
    dead = 40
    n_rows = _SNAPSHOT_CHUNK_ROWS + 1 + dead
    rows = [(i, cells[i % len(cells)]) for i in range(n_rows)]
    relation = db.relation("m")
    relation.extend_rows(rows)
    for row in rows[7 :: len(rows) // dead][:dead]:
        relation.remove(Tuple(schema, row))
    assert len(relation) == _SNAPSHOT_CHUNK_ROWS + 1
    assert relation.column_store.dead == dead
    return Session.from_instance(db, [])


def _undo_table(n_tokens: int):
    from repro.engine.delta import Changeset

    return [
        (
            f"undo-{i + 1}",
            Changeset()
            .insert("emp", {"dept": f"u{i}", "floor": i})
            .delete("emp", ("eng", 1))
            .update("emp", {"dept": "ops", "floor": 3}, floor=i),
        )
        for i in range(n_tokens)
    ]


#: case -> (session builder, undo tokens in the table)
_SNAPSHOT_CASES = {
    "no-rows": (lambda: _emp_session(0), 0),
    "one-row": (lambda: _emp_session(1), 0),
    "one-chunk": (lambda: _emp_session(_SNAPSHOT_CHUNK_ROWS), 0),
    "chunk-plus-one": (lambda: _emp_session(_SNAPSHOT_CHUNK_ROWS + 1), 1),
    "three-chunks-full-undo": (
        lambda: _emp_session(3 * _SNAPSHOT_CHUNK_ROWS), MAX_UNDO_TOKENS,
    ),
    "empty-relation-first": (_two_relation_session, 2),
    "odd-cells": (_odd_cells_session, 0),
    "rendered-cells-dead-rows": (_rendered_cells_session, 1),
}


class TestSnapshotWriter:
    """``write_snapshot`` streams the document in bounded chunks; what
    lands on disk must not differ by a byte from encoding it whole."""

    @pytest.mark.parametrize("case", sorted(_SNAPSHOT_CASES))
    def test_bytes_equal_the_whole_document_encoding(self, case, tmp_path):
        build, n_tokens = _SNAPSHOT_CASES[case]
        session = build()
        undo_items = _undo_table(n_tokens)
        store = SessionStore(tmp_path, fsync=False)
        journal = store.create(case, session)
        try:
            generation0 = journal._snapshot_path(0).read_bytes()
            assert generation0 == _reference_snapshot(journal, session, [], 0)
            journal.write_snapshot(session, undo_items, n_tokens)
            written = journal._snapshot_path(1).read_bytes()
            assert written == _reference_snapshot(
                journal, session, undo_items, n_tokens
            )
            assert json.loads(written)["undo_counter"] == n_tokens
            counters = store.counters_snapshot()
            assert counters["snapshots_total"] == 2
            assert counters["snapshot_bytes_total"] == (
                len(generation0) + len(written)
            )
        finally:
            journal.close()

    def test_a_durable_create_and_its_snapshots_build_no_tuple(self, tmp_path):
        """The gen-0 snapshot of a create and every later one read the
        rows off the columns: no row of the session gets a ``Tuple``."""
        from repro.server.hosting import SessionManager

        manager = SessionManager(state_dir=tmp_path, fsync=False)
        try:
            hosted = manager.create({
                "schema": SCHEMA_DOC,
                "rules": RULES_DOC,
                "data": {"emp": [
                    {"dept": f"d{i // 2}", "floor": i % 3}
                    for i in range(10_000)
                ]},
                "id": "big",
            })
            cache = hosted.session.database.relation("emp").column_store.cache
            assert sum(t is not None for t in cache) == 0
            hosted.persist_snapshot()
            assert sum(t is not None for t in cache) == 0
            assert hosted.journal.generation == 1
        finally:
            manager.close_all()

    def test_state_dirs_are_interchangeable_with_the_reference(self, tmp_path):
        """A snapshot written whole (the old writer) recovers here, and
        recovers to the same session as the streamed one."""
        from repro.server.durability import SessionJournal
        from repro.server.hosting import SessionManager

        session = _emp_session(_SNAPSHOT_CHUNK_ROWS + 7)
        undo_items = _undo_table(3)
        expected = _dump(session.detect().to_dict())

        streamed = SessionStore(tmp_path / "streamed", fsync=False)
        journal = streamed.create("s", session)
        journal.write_snapshot(session, undo_items, 3)
        journal.close()

        whole = SessionStore(tmp_path / "whole", fsync=False)
        directory = whole._session_dir("s")
        directory.mkdir(parents=True)
        handmade = SessionJournal(whole, "s", directory)
        handmade._snapshot_path(1).write_bytes(
            _reference_snapshot(handmade, session, undo_items, 3)
        )

        for store in (streamed, whole):
            manager = SessionManager(state_dir=store.root, fsync=False)
            try:
                recovered = manager.get("s")
                assert recovered.journal.generation == 1
                assert _dump(recovered.session.detect().to_dict()) == expected
                assert (
                    recovered.session.data_documents() == session.data_documents()
                )
                items, counter = recovered.undo_state()
                assert [token for token, _ in items] == [
                    token for token, _ in undo_items
                ]
                assert [u.to_dict() for _, u in items] == [
                    u.to_dict() for _, u in undo_items
                ]
                assert counter == 3
            finally:
                manager.close_all()

    def test_a_snapshot_from_the_sharded_engine_still_rehydrates(self, tmp_path):
        """A format-1 snapshot an older server wrote for an
        ``executor="parallel"``, 2-shard session loads on the one path
        that is left, answers as an offline run does, and is rewritten
        without the retired fields."""
        from repro.server.durability import SessionJournal
        from repro.workloads.soak import canonical, offline_detect

        session = _emp_session(40)
        store = SessionStore(tmp_path, fsync=False)
        directory = store._session_dir("old")
        directory.mkdir(parents=True)
        journal = SessionJournal(store, "old", directory)
        document = json.loads(_reference_snapshot(journal, session, [], 0))
        document.update(executor="parallel", shards=2)
        journal._snapshot_path(0).write_text(
            json.dumps(document, separators=(",", ":")), encoding="utf-8"
        )

        server, client = _boot(tmp_path)
        try:
            assert client.cold_sessions() == ["old"]  # nothing read yet
            assert canonical(client.detect("old")) == canonical(
                offline_detect(session)
            )
            assert client.session_info("old")["executor"] == "indexed"
            # one write that outweighs the snapshot cuts the next generation
            client.apply("old", {"ops": [
                {"op": "insert", "relation": "emp",
                 "row": {"dept": f"bulk{i}", "floor": i}}
                for i in range(100)
            ]})
            assert client.session_info("old")["durability"]["generation"] == 1
        finally:
            server.shutdown()
        newest = sorted(directory.glob("snapshot-*.json"))[-1]
        rewritten = json.loads(newest.read_text(encoding="utf-8"))
        assert newest != journal._snapshot_path(0)
        assert rewritten["executor"] == "indexed" and "shards" not in rewritten

    def test_a_snapshot_naming_the_naive_executor_answers_the_indexed_report(
        self, tmp_path
    ):
        """A format-1 snapshot an older server wrote for an
        ``executor="naive"`` session loads on the one path: its detect is
        the list a fresh executor run returns.  The per-dependency loop
        that name once selected lists a 2-row tableau the same way now —
        a single rule detects as a one-member plan."""
        from repro.deps import all_violations
        from repro.server.durability import SessionJournal
        from repro.session import ViolationReport
        from repro.workloads.soak import canonical, offline_detect

        # a 2-row tableau: task-major order would list it differently
        session = _emp_session(8, rules=[{
            "type": "cfd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"],
            "tableau": [{"dept": "_", "floor": "_"}, {"dept": "d0", "floor": 0}],
        }])
        expected = offline_detect(session)
        looped = ViolationReport(
            all_violations(session.database, session.rules)
        ).to_dict()
        assert canonical(looped) == canonical(expected)
        store = SessionStore(tmp_path, fsync=False)
        directory = store._session_dir("old")
        directory.mkdir(parents=True)
        journal = SessionJournal(store, "old", directory)
        document = json.loads(_reference_snapshot(journal, session, [], 0))
        document.update(executor="naive")
        journal._snapshot_path(0).write_text(
            json.dumps(document, separators=(",", ":")), encoding="utf-8"
        )

        server, client = _boot(tmp_path)
        try:
            assert canonical(client.detect("old")) == canonical(expected)
            assert client.session_info("old")["executor"] == "indexed"
        finally:
            server.shutdown()

    def test_failure_mid_stream_leaves_no_generation(self, tmp_path, monkeypatch):
        import repro.server.durability as durability

        session = _emp_session(3 * _SNAPSHOT_CHUNK_ROWS)
        store = SessionStore(tmp_path, fsync=False)
        journal = store.create("s", session)
        real, calls = durability._dumps, []

        def dumps_then_fail(value):
            calls.append(None)
            if len(calls) == 4:  # head, relation name, chunk 1, *chunk 2*
                raise OSError(28, "injected: no space left on device")
            return real(value)

        monkeypatch.setattr(durability, "_dumps", dumps_then_fail)
        with pytest.raises(OSError):
            journal.write_snapshot(session, [], 0)
        monkeypatch.undo()
        assert journal.generation == 0
        assert journal.blocked == "a snapshot failed; memory may be ahead of disk"
        assert not journal._snapshot_path(1).exists()
        assert store.counters_snapshot()["snapshots_total"] == 1

        journal.write_snapshot(session, [], 0)  # what the next write verb does
        journal.close()
        assert journal.blocked is None and journal.generation == 1
        assert _session_files(tmp_path, "s") == ["snapshot-00000001.json"]

    def test_failed_fsync_blocks_until_the_next_write_snapshots(
        self, tmp_path, monkeypatch
    ):
        server, client = _boot(tmp_path)
        _create(client, "a")
        client.apply("a", _insert("x", 1))
        client.apply("a", _insert("y", 2))
        hosted = server.manager.get("a")

        def boom(fd):
            raise OSError(5, "injected I/O error")
        monkeypatch.setattr(os, "fsync", boom)
        # crosses the cadence: acknowledged from the WAL, snapshot fails
        client.apply("a", _insert("w", 4))
        monkeypatch.undo()
        info = client.session_info("a")["durability"]
        assert (info["generation"], info["wal_records"]) == (0, 3)
        assert info["wal_bytes"] >= info["snapshot_bytes"]
        assert info["blocked"] == hosted.journal.blocked
        assert hosted.journal.blocked is not None
        assert client.metrics()["durability"]["snapshot_failures_total"] == 1
        assert not (tmp_path / "sessions" / "a" / "snapshot-00000001.json").exists()

        client.apply("a", _insert("z", 3))  # blocked: snapshots instead
        info = client.session_info("a")["durability"]
        assert (info["generation"], info["wal_records"]) == (1, 0)
        assert "blocked" not in info and hosted.journal.blocked is None
        assert _session_files(tmp_path, "a") == ["snapshot-00000001.json"]
        before = client.detect("a")
        _crash(server)

        server2, client2 = _boot(tmp_path)
        try:
            assert _dump(client2.detect("a")) == _dump(before)
        finally:
            server2.shutdown()


class TestByteCounters:
    """``snapshot_bytes_total`` / ``wal_bytes_total``: what the durable
    write path put on disk, readable without a tracer."""

    def test_counters_equal_the_files_on_disk(self, tmp_path):
        from repro.server.metrics import prometheus_text

        server, client = _boot(tmp_path)
        try:
            _create(client, "a")
            client.apply("a", _insert("qa", 9))
            client.apply("a", _delete("ops", 3))
            directory = tmp_path / "sessions" / "a"
            generation0 = (directory / "snapshot-00000000.json").stat().st_size
            wal = _current_wal(tmp_path, "a").stat().st_size
            counters = client.metrics()["durability"]
            assert counters["snapshot_bytes_total"] == generation0
            assert counters["wal_bytes_total"] == wal
            assert counters["wal_records_total"] == 2

            server.manager.get("a").persist_snapshot()
            generation1 = (directory / "snapshot-00000001.json").stat().st_size
            document = client.metrics()
            counters = document["durability"]
            assert counters["snapshots_total"] == 2
            assert counters["snapshot_bytes_total"] == generation0 + generation1
            assert counters["wal_bytes_total"] == wal  # retired, still counted
            exposition = prometheus_text(document)
            assert (
                f"repro_durability_snapshot_bytes_total {generation0 + generation1}"
                in exposition
            )
            assert f"repro_durability_wal_bytes_total {wal}" in exposition
        finally:
            server.shutdown()


class TestSnapshotCadence:
    """A durable session snapshots once the WAL bytes since its last
    snapshot reach that snapshot's size — no option, no record count."""

    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=24
        )
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_a_snapshot_lands_exactly_when_the_wal_outweighs_the_last(self, sizes):
        state_dir = Path(tempfile.mkdtemp(prefix="repro-cadence-"))
        core = _core(state_dir)
        recovered = None
        try:
            _create_in(core, "c")
            journal = core.manager.get("c").journal
            directory = state_dir / "sessions" / "c"
            frame = 0
            for step, size in enumerate(sizes):
                body = {"ops": [
                    {"op": "insert", "relation": "emp",
                     "row": {"dept": f"w{step}-{k}", "floor": k}}
                    for k in range(size)
                ]}
                generation, wal_bytes, snapshot_bytes = (
                    journal.generation, journal.wal_bytes, journal.snapshot_bytes
                )
                status, delta = _call(core, "POST", "/sessions/c/apply", body)
                assert status == 200, delta
                frame = len(wal_record_to_bytes({
                    "kind": "apply",
                    "changeset": Changeset.from_dict(body).to_dict(),
                    "token": delta["undo_token"],
                }))
                snapshot = journal._snapshot_path(journal.generation)
                if wal_bytes + frame >= snapshot_bytes:
                    assert journal.generation == generation + 1
                    assert (journal.wal_records, journal.wal_bytes) == (0, 0)
                    assert _session_files(state_dir, "c") == [snapshot.name]
                else:
                    assert journal.generation == generation
                    assert journal.wal_bytes == wal_bytes + frame
                    assert journal.wal_bytes == _current_wal(
                        state_dir, "c"
                    ).stat().st_size
                assert journal.snapshot_bytes == snapshot.stat().st_size
            live = _state(core, "c")
            core.manager.close_all()

            # what a crash leaves: all but the last record weigh less than
            # the newest snapshot
            snapshot = sorted(directory.glob("snapshot-*.json"))[-1]
            wal = _current_wal(state_dir, "c")
            tail = wal.stat().st_size if wal.exists() else 0
            assert tail < snapshot.stat().st_size + frame

            recovered = _core(state_dir)
            assert _state(recovered, "c") == live
            rehydrated = recovered.manager.get("c").journal
            assert (rehydrated.wal_bytes, rehydrated.snapshot_bytes) == (
                tail, snapshot.stat().st_size
            )
        finally:
            core.manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()
            shutil.rmtree(state_dir, ignore_errors=True)


# --------------------------------------------------------------------------
# One write path: a rehydrated session is the live one
# --------------------------------------------------------------------------


class TestFailedWritesLeaveNoTrace:
    """A served apply that fails — at its k-th op, in its violation
    maintenance, or in its journal's ``fdatasync`` — leaves the rows, the
    detect list and the undo table as they were, rebuilds the delta
    engine once at most, and the next successful apply reads as a fresh
    detect."""

    DEPTS = ("eng", "ops", "qa", "hr")
    OPS = st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(min_value=0, max_value=15),
        ),
        min_size=1,
        max_size=6,
    )
    FAILURES = st.one_of(
        st.none(),
        st.sampled_from(["maintenance", "journal"]),
        st.integers(min_value=0, max_value=6),  # an absent update at op k
    )

    @classmethod
    def _op(cls, kind: str, pick: int):
        row = {"dept": cls.DEPTS[pick % 4], "floor": (pick // 4) % 4}
        op = {"op": kind, "relation": "emp", "row": row}
        if kind == "update":
            op["cells"] = {"floor": (row["floor"] + 1) % 4}
        return op

    @staticmethod
    def _seen(session):
        """The rows (as ``Tuple`` objects) and the detect list."""
        return (
            session.database.relation("emp").tuples(),
            violation_sequence(session.detect().violations),
        )

    @given(steps=st.lists(st.tuples(OPS, FAILURES), min_size=1, max_size=8))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_a_failed_apply_leaves_no_trace(self, steps):
        from repro.engine.delta import _ScanState

        state_dir = Path(tempfile.mkdtemp(prefix="repro-failed-write-"))
        manager = SessionManager(state_dir=state_dir, fsync=True)
        core = ServiceCore(manager, ServerMetrics(), 0)
        maintain = _ScanState.apply

        def broken(state, *args):
            maintain(state, *args)  # a half-patched state, then the error
            raise RuntimeError("injected: maintenance failed")

        try:
            status, document = _call(core, "POST", "/sessions", {
                "id": "h", "schema": SCHEMA_DOC, "rules": RULES_DOC + [EXTRA_RULE],
                "data": {"emp": list(ROWS)},
            })
            assert status == 201, document
            assert _call(core, "POST", "/sessions/h/apply", _insert("qa", 9))[0] == 200
            hosted = manager.get("h")
            session = hosted.session
            engine = session.warm_engine
            for fresh, (ops, failure) in enumerate(steps):
                body = {"ops": [self._op(kind, pick) for kind, pick in ops]}
                if isinstance(failure, int):
                    body["ops"].insert(min(failure, len(ops)), {
                        "op": "update", "relation": "emp",
                        "row": {"dept": "nobody", "floor": 0},
                        "cells": {"floor": 1},
                    })
                rows, report = self._seen(session)
                undo, rebuilds = hosted.undo_state(), engine.stats.rebuilds
                with pytest.MonkeyPatch.context() as patch:
                    if failure == "maintenance":
                        patch.setattr(_ScanState, "apply", broken)
                    elif failure == "journal":
                        patch.setattr(os, "fdatasync", _boom, raising=False)
                    status, document = _call(core, "POST", "/sessions/h/apply", body)
                if status == 200:
                    continue
                assert status in (400, 500), document
                assert session.warm_engine is engine
                assert engine.stats.rebuilds <= rebuilds + 1
                after_rows, after_report = self._seen(session)
                assert all(a is b for a, b in zip(after_rows, rows, strict=True))
                assert after_report == report
                assert hosted.undo_state() == undo
                # the next successful apply reads as a fresh detect
                status, document = _call(
                    core, "POST", "/sessions/h/apply", _insert("new", fresh)
                )
                assert status == 200, document
                assert self._seen(session)[1] == violation_sequence(
                    detect_violations(session.database, session.rules).violations
                )
        finally:
            manager.close_all()
            shutil.rmtree(state_dir, ignore_errors=True)


class TestLiveEqualsRehydrated:
    """Every write goes through ``HostedSession``, and a rehydration
    replays the WAL through it too; whatever a history of writes did, a
    crash-shaped stop and a rehydration must give back the live session."""

    DEPTS = ("eng", "ops", "qa", "hr")
    RULE_SETS = (RULES_DOC, [], RULES_DOC + [EXTRA_RULE], [EXTRA_RULE])

    STEPS = st.lists(
        st.tuples(
            st.sampled_from([
                "insert", "delete", "update", "batch", "bulk", "undo",
                "rules_put", "rules_post", "adopt",
            ]),
            st.integers(min_value=0, max_value=63),
            # a journal method that raises during the step
            st.sampled_from([None, None, None, "append", "snapshot"]),
            # a journal blocked before the step (it snapshots instead)
            st.sampled_from([False, False, False, True]),
        ),
        min_size=1,
        max_size=16,
    )

    @classmethod
    def _row(cls, pick: int):
        return {"dept": cls.DEPTS[pick % 4], "floor": (pick // 4) % 4}

    @classmethod
    def _request(cls, verb: str, pick: int, issued: list):
        """``(method, path, body)`` of one step; ``issued`` holds every
        undo token handed out so far, live or spent."""
        row = cls._row(pick)
        if verb in ("insert", "delete"):
            return "POST", "/sessions/h/apply", {
                "ops": [{"op": verb, "relation": "emp", "row": row}]
            }
        if verb == "update":
            return "POST", "/sessions/h/apply", {"ops": [{
                "op": "update", "relation": "emp", "row": row,
                "cells": {"floor": (row["floor"] + 1) % 4},
            }]}
        if verb == "batch":
            # the update may miss, failing the changeset after its delete
            return "POST", "/sessions/h/apply", {"ops": [
                {"op": "delete", "relation": "emp", "row": cls._row(pick + 1)},
                {"op": "insert", "relation": "emp", "row": cls._row(pick + 6)},
                {"op": "update", "relation": "emp", "row": row,
                 "cells": {"dept": cls.DEPTS[(pick + 1) % 4]}},
            ]}
        if verb == "bulk":
            # six inserts outweigh the 3-row snapshot on their own: the
            # byte rule's cadence snapshot lands inside short histories
            return "POST", "/sessions/h/apply", {"ops": [
                {"op": "insert", "relation": "emp", "row": cls._row(pick + k)}
                for k in range(6)
            ]}
        if verb == "undo":
            token = issued[pick % len(issued)] if issued else "undo-1"
            return "POST", "/sessions/h/undo", {"token": token}
        if verb == "rules_put":
            return "PUT", "/sessions/h/rules", {
                "rules": cls.RULE_SETS[pick % len(cls.RULE_SETS)]
            }
        if verb == "rules_post":
            return "POST", "/sessions/h/rules", {
                "rules": [EXTRA_RULE] if pick % 2 else RULES_DOC
            }
        return "POST", "/sessions/h/repair", {
            "adopt": True, "strategy": "ux"[pick % 2]
        }

    @given(steps=STEPS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rehydration_gives_back_the_live_session(self, steps):
        state_dir = Path(tempfile.mkdtemp(prefix="repro-write-path-"))
        core = _core(state_dir)
        recovered = None
        failing = {
            "append": ("log_apply", "log_undo", "log_rules"),
            "snapshot": ("write_snapshot",),
        }
        try:
            _create_in(core, "h")
            issued: list = []
            for verb, pick, fail, blocked in steps:
                method, path, body = self._request(verb, pick, issued)
                before = _state(core, "h")
                journal = core.manager.get("h").journal
                if blocked:
                    journal.blocked = "injected: a WAL append left bytes behind"
                names = failing.get(fail, ())
                for name in names:
                    setattr(journal, name, _boom)
                try:
                    status, document = _call(core, method, path, body)
                finally:
                    for name in names:
                        delattr(journal, name)
                # nothing edits the session behind its engine: a 409 (stale
                # engine) would mean a rollback left the engine behind
                assert status in (200, 400, 500), (verb, status, document)
                if status == 200 and "undo_token" in document:
                    issued.append(document["undo_token"])
                elif status >= 400:
                    # an error means the write is in neither memory nor disk
                    assert _state(core, "h") == before, (verb, status, document)
            live = _state(core, "h")
            core.manager.close_all()

            recovered = _core(state_dir)
            assert _state(recovered, "h") == live
        finally:
            core.manager.close_all()
            if recovered is not None:
                recovered.manager.close_all()
            shutil.rmtree(state_dir, ignore_errors=True)

    def test_a_token_that_skips_an_ordinal_fails_rehydration(self, tmp_path):
        """Replay mints each undo token the way the live write did; a WAL
        whose second record logged another token is refused, and the
        error names the record."""
        core = _core(tmp_path)
        try:
            _create_in(core, "a")
            _call(core, "POST", "/sessions/a/apply", _insert("qa", 9))
            _call(core, "POST", "/sessions/a/apply", _insert("hr", 4))
        finally:
            core.manager.close_all()
        wal = _current_wal(tmp_path, "a")
        records, _ = wal_records_from_bytes(wal.read_bytes())
        assert [record["token"] for record in records] == ["undo-1", "undo-2"]
        records[1]["token"] = "undo-3"
        wal.write_bytes(b"".join(map(wal_record_to_bytes, records)))

        manager = SessionManager(state_dir=tmp_path, fsync=False)
        try:
            with pytest.raises(
                ReproError,
                match=r"WAL record #1 \('apply'\).*'undo-3'.*'undo-2'",
            ):
                manager.get("a")
            assert manager.cold_session_ids() == ["a"]
        finally:
            manager.close_all()

    def test_a_state_dir_from_before_the_move_rehydrates_unchanged(self, tmp_path):
        """``tests/data/format1_state`` was written by the server whose
        write verbs lived in the core's handlers and whose recovery
        replayed the WAL on its own: a snapshot plus a four-record tail
        (an apply, a rules POST, an undo, a rules PUT), and the detect
        document and undo table that server served before it stopped."""
        fixture = Path(__file__).parent / "data" / "format1_state"
        shutil.copytree(fixture / "state", tmp_path / "state")
        expected = json.loads((fixture / "expected.json").read_text())
        core = _core(tmp_path / "state")
        try:
            status, detect = _call(core, "POST", "/sessions/legacy/detect")
            assert status == 200, detect
            assert canonical(detect) == canonical(expected["detect"])
            hosted = core.manager.get("legacy")
            items, counter = hosted.undo_state()
            assert [[t, undo.to_dict()] for t, undo in items] == expected["undo"]
            assert counter == expected["undo_counter"]
            durability = hosted.info()["durability"]
            assert (durability["generation"], durability["wal_records"]) == (1, 4)
        finally:
            core.manager.close_all()
