"""Crash-safe session durability: changeset WAL + snapshot recovery.

The server's warm sessions (PR 5) die with the process; this module makes
them survive it.  Each hosted session owns a directory under the server's
``--state-dir`` holding two kinds of files:

* **a changeset write-ahead log** (``wal-<gen>.log``) — every successful
  write verb appends one CRC-framed record (the canonical changeset /
  rules document plus its undo token id, framed by
  :func:`repro.registry.wal_record_to_bytes`) and fsyncs it *before* the
  HTTP response commits.  A crash at any byte boundary leaves at worst a
  torn final record, which :func:`repro.registry.wal_records_from_bytes`
  detects and recovery truncates;
* **snapshots** (``snapshot-<gen>.json``) — the full session state
  (schema + rules + data documents through the registry codecs, plus the
  undo-token table) streamed out in bounded chunks and landed atomically
  (tmp + rename), after which the previous generation's snapshot and WAL
  are retired.

A durable session writes its *cadence* snapshot once the WAL bytes
appended since its last snapshot reach that snapshot's size
(``wal_bytes >= snapshot_bytes``; the hosting layer's
:meth:`~repro.server.hosting.HostedSession._journal` decides, this module
measures both).  The rule has no option and bounds both costs by the
session's own size: every cadence snapshot follows at least as many WAL
bytes as the snapshot before it weighs, so the cadence snapshots written,
all but the newest, weigh no more than the WAL written; and a crash leaves at
most one snapshot's bytes plus one record to replay.  It replaced a
records-per-snapshot flag (removed), under which a 10-row and a 1M-row
session snapshotted equally often.

This module knows bytes on disk, not what a write does to a session:
:meth:`SessionStore.recover` hands back the newest snapshot document and
the WAL tail's records, and the hosting layer rebuilds the session from
them through its own write path
(:meth:`~repro.server.hosting.HostedSession.redo`), so undo tokens survive
restarts with their ids, contents and LRU order intact.  Recovery is
*lazy*: the manager rehydrates a session on first touch, so a restart (or
an eviction) costs nothing until the session is asked for.

Closing a session — eviction, ``DELETE``, shutdown — closes its journal
and writes no snapshot: every acknowledged write is already fdatasync'd
in the WAL, and the byte rule above bounds the tail a returning session
replays, which is the replay a crash would cost anyway.  The one
exception is a *blocked* journal (:attr:`SessionJournal.blocked`), whose
WAL may hold bytes that memory rolled back; the hosting layer snapshots
it at close so that record never replays.

The fsync unit is one HTTP write verb, not one edit op — a 100-op
changeset is framed as a single record and hardened by a single fsync,
which is what keeps the apply-latency overhead small (the
``durable_stream`` workload of ``benchmarks/e2e`` tracks it).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple
from urllib.parse import quote, unquote

from repro.engine.config import EXECUTOR
from repro.engine.delta import Changeset
from repro.errors import ReproError
from repro.jsondecode import DecodeError, loads
from repro.registry import wal_record_to_bytes, wal_records_from_bytes
from repro.session import Session

__all__ = [
    "SessionJournal",
    "SessionStore",
]

_SNAPSHOT_FORMAT = 1

#: rows per ``json.dumps`` call while a snapshot streams a relation out:
#: large enough that the C encoder does the work, small enough that
#: neither a relation's worth of row dicts nor its text is ever alive
_SNAPSHOT_CHUNK_ROWS = 1024


def _dumps(value: Any) -> str:
    """The snapshot's JSON spelling of ``value``: compact, ``default=str``.

    ``json.dumps`` (never ``json.dump`` to a handle, which is the one form
    that leaves the C encoder and issues a ``write`` per token).  Spelled
    here and not borrowed from :mod:`repro.server.wire`: what is on disk
    is versioned by ``_SNAPSHOT_FORMAT``, not by the wire version.  Every
    value is a freshly built, acyclic document (row mappings of scalar
    cells, registry documents), so the encoder skips its per-container
    cycle bookkeeping; the bytes are the same.
    """
    return json.dumps(value, separators=(",", ":"), default=str, check_circular=False)


def _fsync_dir(path: Path) -> None:
    """Harden a directory entry (created/renamed file) — best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SessionJournal:
    """One session's durability handle: WAL appends + snapshot cycling.

    Not internally locked: every call happens under the owning
    :class:`~repro.server.HostedSession`'s lock (the same lock that
    serializes the write verbs the journal records).
    """

    def __init__(
        self, store: "SessionStore", session_id: str, directory: Path
    ) -> None:
        self.store = store
        self.session_id = session_id
        self.directory = directory
        #: snapshot generation currently on disk (-1: none yet)
        self.generation = -1
        #: WAL records appended since that snapshot, and their frame bytes
        self.wal_records = 0
        self.wal_bytes = 0
        #: file bytes of that snapshot: the WAL bytes that call for the next
        self.snapshot_bytes = 0
        #: non-None: the WAL cannot take appends (an earlier append left
        #: bytes that could not be cut back out, or a snapshot failed).
        #: Cleared by the next successful snapshot, which the write verbs
        #: fall back to (see :meth:`HostedSession._journal`) and a close
        #: writes (see :meth:`SessionManager._close`).
        self.blocked: Optional[str] = None
        self._wal_handle: Optional[Any] = None

    # -- paths -----------------------------------------------------------

    def _snapshot_path(self, generation: int) -> Path:
        return self.directory / f"snapshot-{generation:08d}.json"

    def _wal_path(self, generation: int) -> Path:
        return self.directory / f"wal-{generation:08d}.log"

    # -- WAL appends -----------------------------------------------------

    def _append(self, record: Mapping[str, Any]) -> None:
        """Frame, write and sync one record before the caller responds.

        Appends use ``fdatasync`` where the platform has it: the record
        bytes must be on disk before the response commits, but the file's
        metadata (mtime) can lag — recovery never reads it.
        """
        if self.blocked is not None:
            raise ReproError(f"session WAL suspended: {self.blocked}")
        if self._wal_handle is None:
            path = self._wal_path(self.generation)
            existed = path.exists()
            self._wal_handle = open(path, "ab")
            if not existed and self.store.fsync:
                # a brand-new WAL's *directory entry* needs its own fsync:
                # the record bytes are fdatasync'd below, but without this
                # the whole file can vanish in a crash even though its
                # records were hardened and the responses acknowledged
                _fsync_dir(self.directory)
        handle = self._wal_handle
        frame = wal_record_to_bytes(record)
        offset = handle.tell()
        try:
            handle.write(frame)
            handle.flush()
            if self.store.fsync:
                getattr(os, "fdatasync", os.fsync)(handle.fileno())
        except BaseException:
            # the record did not durably commit: cut any partial bytes
            # back out so the WAL agrees with the caller's rolled-back
            # in-memory state and later appends start frame-aligned
            try:
                handle.truncate(offset)
                handle.flush()
                if self.store.fsync:
                    os.fsync(handle.fileno())
            except OSError:
                # partial bytes may remain mid-file; appending after them
                # would corrupt the log, so suspend the WAL until a
                # snapshot opens a fresh generation
                self.blocked = (
                    "a WAL append failed and its partial bytes could not "
                    "be removed"
                )
                handle.close()
                self._wal_handle = None
            raise
        self.wal_records += 1
        self.wal_bytes += len(frame)
        self.store._count("wal_records_total")
        self.store._count("wal_bytes_total", len(frame))

    def log_apply(self, changeset_doc: Mapping[str, Any], token: str) -> None:
        """Record a successful ``/apply``: the changeset + its undo token."""
        self._append(
            {"kind": "apply", "changeset": dict(changeset_doc), "token": token}
        )

    def log_undo(self, taken: str, token: str) -> None:
        """Record a successful ``/undo``.

        Only the token ids are logged: replay pops ``taken`` from the
        undo table it is rebuilding (the changeset is already there) and
        stores the replay's own inverse under ``token`` — the same
        deterministic construction the live request used.
        """
        self._append({"kind": "undo", "taken": taken, "token": token})

    def log_rules(
        self, rules_docs: List[Dict[str, Any]], replace: bool
    ) -> None:
        """Record a rules PUT (replace) or POST (append) by its documents."""
        self._append(
            {"kind": "rules", "rules": list(rules_docs), "replace": replace}
        )

    # -- snapshots -------------------------------------------------------

    def _snapshot_chunks(
        self,
        session: Session,
        undo_items: List[Tuple[str, Changeset]],
        undo_counter: int,
    ) -> Iterator[str]:
        """The snapshot document as JSON text, one bounded piece at a time.

        Joined, the pieces are exactly ``_dumps`` of the whole document —
        ``format``, ``session``, ``executor``, ``schema``, ``rules``,
        ``data`` (``{relation: [row mapping, ...]}`` in live insertion
        order, what :meth:`Session.data_documents` returns),
        ``undo`` (``[[token, changeset document], ...]``, oldest first)
        and ``undo_counter`` — but rows are encoded
        ``_SNAPSHOT_CHUNK_ROWS`` at a time and undo entries one at a
        time, so peak memory does not grow with the session.  Rows are
        read off the column store (:meth:`RelationInstance.row_documents`),
        so writing a snapshot builds and caches no ``Tuple``.
        """
        head = {
            "format": _SNAPSHOT_FORMAT,
            "session": self.session_id,
            "executor": EXECUTOR,
            "schema": session.schema_document(),
            "rules": session.rules_documents(),
        }
        yield _dumps(head)[:-1] + ',"data":{'
        for index, relation in enumerate(session.database):
            yield ("," if index else "") + _dumps(relation.schema.name) + ":["
            rows = relation.row_documents()
            separator = ""
            while batch := list(islice(rows, _SNAPSHOT_CHUNK_ROWS)):
                yield separator + _dumps(batch)[1:-1]
                separator = ","
            yield "]"
        yield '},"undo":['
        for index, (token, undo) in enumerate(undo_items):
            yield ("," if index else "") + _dumps([token, undo.to_dict()])
        yield '],"undo_counter":' + _dumps(undo_counter) + "}"

    def write_snapshot(
        self,
        session: Session,
        undo_items: List[Tuple[str, Changeset]],
        undo_counter: int,
    ) -> None:
        """Capture the full session state and retire the old generation.

        The document streams to a temp file a bounded piece at a time
        (:meth:`_snapshot_chunks`), is fsync'd, then renamed into place
        (atomic on POSIX) — recovery never sees a half-written snapshot.
        Only after the rename lands are the previous generation's
        snapshot and WAL deleted.
        """
        next_generation = self.generation + 1
        target = self._snapshot_path(next_generation)
        tmp = target.with_suffix(".json.tmp")
        size = 0
        try:
            with open(tmp, "wb") as handle:
                for chunk in self._snapshot_chunks(
                    session, undo_items, undo_counter
                ):
                    size += handle.write(chunk.encode("utf-8"))
                handle.flush()
                if self.store.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, target)
        except BaseException:
            # the journal cannot tell whether its caller rolls memory
            # back; suspend WAL appends — the next write verb retries a
            # full snapshot, which both captures that write and reopens a
            # fresh log
            self.blocked = "a snapshot failed; memory may be ahead of disk"
            raise
        self.blocked = None
        _fsync_dir(self.directory)
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None
        old_generation = self.generation
        self.generation = next_generation
        self.wal_records = 0
        self.wal_bytes = 0
        self.snapshot_bytes = size
        if old_generation >= 0:
            self._wal_path(old_generation).unlink(missing_ok=True)
            self._snapshot_path(old_generation).unlink(missing_ok=True)
        self.store._count("snapshots_total")
        self.store._count("snapshot_bytes_total", size)

    def status(self) -> Dict[str, Any]:
        """The durability section of the session info document."""
        document: Dict[str, Any] = {
            "enabled": True,
            "generation": self.generation,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes,
            "snapshot_bytes": self.snapshot_bytes,
        }
        if self.blocked is not None:
            document["blocked"] = self.blocked
        return document

    def close(self) -> None:
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None


class SessionStore:
    """The on-disk table of durable sessions under one ``--state-dir``.

    Layout: ``<state_dir>/sessions/<quoted session id>/`` with the
    snapshot/WAL generations described in the module docstring.  Session
    ids are percent-encoded for the filesystem, so any id the wire
    protocol accepts maps to a directory.
    """

    def __init__(self, root: Path, fsync: bool = True) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.sessions_dir = self.root / "sessions"
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self._counter_lock = threading.Lock()
        #: ``snapshot_bytes_total``: file bytes of every snapshot that was
        #: renamed into place; ``wal_bytes_total``: frame bytes (header +
        #: payload) of every acknowledged WAL append
        self.counters: Dict[str, int] = {
            "snapshots_total": 0,
            "snapshot_bytes_total": 0,
            "snapshot_failures_total": 0,
            "wal_records_total": 0,
            "wal_bytes_total": 0,
            "rehydrated_total": 0,
        }

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[counter] += amount

    def counters_snapshot(self) -> Dict[str, int]:
        with self._counter_lock:
            return dict(self.counters)

    # -- directory table -------------------------------------------------

    def _session_dir(self, session_id: str) -> Path:
        name = quote(session_id, safe="")
        if not name:
            raise ReproError("session id must be a non-empty string")
        if set(name) == {"."}:
            # quote() leaves '.' unencoded, so the ids '.' and '..' would
            # alias the sessions dir and the state root — and purge()
            # would rmtree the entire state dir.  Force-encode the dots
            # into an ordinary directory name; unquote() in session_ids()
            # still round-trips the id.
            name = name.replace(".", "%2E")
        return self.sessions_dir / name

    def exists(self, session_id: str) -> bool:
        return self._session_dir(session_id).is_dir()

    def session_ids(self) -> List[str]:
        """Every session with durable state, sorted by id."""
        return sorted(
            unquote(entry.name)
            for entry in self.sessions_dir.iterdir()
            if entry.is_dir()
        )

    def purge(self, session_id: str) -> None:
        """Drop a session's durable state (DELETE semantics)."""
        directory = self._session_dir(session_id)
        if directory.is_dir():
            shutil.rmtree(directory)
            _fsync_dir(self.sessions_dir)

    # -- lifecycle -------------------------------------------------------

    def create(self, session_id: str, session: Session) -> SessionJournal:
        """Open durable state for a fresh session: generation-0 snapshot."""
        directory = self._session_dir(session_id)
        directory.mkdir(parents=True, exist_ok=False)
        _fsync_dir(self.sessions_dir)
        journal = SessionJournal(self, session_id, directory)
        try:
            journal.write_snapshot(session, [], 0)
        except BaseException:
            # don't leave a snapshot-less directory behind: it would 409
            # future creates of this id yet be unrecoverable
            journal.close()
            shutil.rmtree(directory, ignore_errors=True)
            raise
        return journal

    def recover(
        self, session_id: str
    ) -> Tuple[SessionJournal, Dict[str, Any], List[Dict[str, Any]]]:
        """Read a session's newest snapshot document and its WAL tail.

        A torn final WAL record (crash mid-write) is truncated away, and
        generations the snapshot superseded are retired; the journal comes
        back open on the snapshot's generation, counting the tail's
        records and bytes and the snapshot's bytes, ready to append.  Raises
        :class:`~repro.errors.ReproError` when no usable snapshot exists.
        """
        directory = self._session_dir(session_id)
        if not directory.is_dir():
            # purged (DELETE) between the existence check and recovery
            raise FileNotFoundError(str(directory))
        snapshot_paths = sorted(directory.glob("snapshot-*.json"), reverse=True)
        if not snapshot_paths:
            raise ReproError(
                f"session {session_id!r} has durable state under "
                f"{directory} but no snapshot"
            )
        # only the *newest* snapshot is recoverable: writing generation N
        # retired generation N-1's WAL, so falling back to an older
        # snapshot would silently rewind the session past acknowledged
        # writes.  Snapshots land via tmp + atomic rename, so a crash
        # never tears one — an unreadable newest snapshot is corruption
        # and must fail loudly.
        newest = snapshot_paths[0]
        try:
            snapshot = newest.read_bytes()
            snapshot_doc = loads(snapshot)
        except (OSError, DecodeError) as exc:
            raise ReproError(
                f"session {session_id!r}: newest snapshot {newest.name} is "
                f"unreadable ({exc}); refusing to fall back to an older "
                "generation whose WAL was already retired"
            ) from exc
        if not isinstance(snapshot_doc, dict) or "schema" not in snapshot_doc:
            raise ReproError(
                f"session {session_id!r}: newest snapshot {newest.name} is "
                "not a session snapshot document"
            )
        generation = int(newest.stem.split("-")[1])

        journal = SessionJournal(self, session_id, directory)
        journal.generation = generation
        journal.snapshot_bytes = len(snapshot)
        wal_path = journal._wal_path(generation)
        records: List[Dict[str, Any]] = []
        clean_length = 0
        if wal_path.exists():
            data = wal_path.read_bytes()
            records, clean_length = wal_records_from_bytes(data)
            if clean_length < len(data):
                # torn tail: the crash cut a record short — drop it so the
                # next append starts at a clean frame boundary
                with open(wal_path, "r+b") as handle:
                    handle.truncate(clean_length)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
        journal.wal_records = len(records)
        journal.wal_bytes = clean_length

        # retire generations the snapshot superseded but a crash left behind
        for stale in sorted(directory.glob("snapshot-*.json")):
            if int(stale.stem.split("-")[1]) < generation:
                stale.unlink(missing_ok=True)
        for stale in sorted(directory.glob("wal-*.log")):
            if int(stale.stem.split("-")[1]) < generation:
                stale.unlink(missing_ok=True)
        for leftover in sorted(directory.glob("*.json.tmp")):
            leftover.unlink(missing_ok=True)
        return journal, snapshot_doc, records
