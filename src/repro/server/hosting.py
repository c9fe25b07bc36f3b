"""Hosted-session state behind the service core.

:class:`HostedSession` (one warm session + its lock, undo-token table,
degraded gating and durability journal), :class:`SessionManager` (the
LRU table with eviction tombstones and lazy rehydration) and
:class:`ServerMetrics` (thread-safe request counters) know nothing of
HTTP: :class:`~repro.server.core.ServiceCore` drives them from verb-pool
worker threads, the asyncio front end (:mod:`repro.server.aio`) from its
event loop.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Tuple,
)

from repro.deps.base import Dependency, Violation
from repro.engine.config import EXECUTOR
from repro.engine.delta import Changeset, ViolationDelta
from repro.errors import (
    DependencyError,
    ReproError,
    SchemaError,
)
from repro.relational.csvio import load_csv
from repro.relational.instance import DatabaseInstance
from repro.server.durability import SessionJournal, SessionStore
from repro.server.metrics import DELTA_STAT_FIELDS, LATENCY_BUCKETS, OPS_COUNTERS
from repro.server.wire import encode_value
from repro.session import RepairReport, Session, ViolationReport

__all__ = [
    "DEFAULT_DEGRADED_AFTER",
    "MAX_UNDO_TOKENS",
    "HostedSession",
    "SessionManager",
    "ServerMetrics",
    "UnknownSessionError",
    "DuplicateSessionError",
    "SessionDegradedError",
]

#: consecutive server-side handler failures before a session is degraded
DEFAULT_DEGRADED_AFTER = 5

#: undo tokens remembered per session (oldest dropped first)
MAX_UNDO_TOKENS = 32

#: a lock acquired slower than this waited on another request (an
#: uncontended ``threading.Lock`` acquires in well under a microsecond)
_CONTENDED_LOCK_WAIT = 0.001

#: what no request path can carry in a session id: what ends a path
#: segment ("/", "?", "#"), whitespace or a control character, or a
#: character outside the Latin-1 the request line is read as
_UNADDRESSABLE = re.compile(r"[/?#\s\x00-\x1f\x7f-\x9f]|[^\x00-\xff]")


class UnknownSessionError(ReproError):
    """No hosted session under the requested id (HTTP 404)."""


class DuplicateSessionError(ReproError):
    """A session with the requested id already exists (HTTP 409)."""


class SessionDegradedError(ReproError):
    """The session is degraded; the verb was not run (HTTP 503).

    ``document`` is the degraded-state body merged into the error
    response under ``"degraded"``.
    """

    def __init__(
        self, message: str, document: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.document: Dict[str, Any] = document or {}


class ReportFragments:
    """The violations of the last full report a session served, encoded.

    A read after a 1-row edit repeats all but a handful of the previous
    report's violations byte for byte, so each violation's wire bytes are
    kept and the next report encodes only the ones it has not seen.  The
    key is everything a fragment renders, by identity: the dependency
    object, the reason (``Violation.__eq__`` ignores it, and one CFD with
    several tableau rows reports the same tuple pair under different
    reasons) and the witness ``Tuple`` objects.  Not tuple *values*: equal
    values can render differently (``3 == 3.0``, ``0.0 == -0.0``), and a
    delete + insert of an equal row puts the new object in the relation.
    A relation hands out one ``Tuple`` object per live row, so unchanged
    rows hit.  Every entry holds its violation, so no ``id()`` in a key can
    be recycled while the entry lives.

    :meth:`encode` rebuilds the table from the report it is given — hits
    carried over, misses encoded — so it never holds more than one report,
    and report *order* is always the fresh report's.
    """

    __slots__ = ("_entries", "encoded_last")

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[Violation, bytes]] = {}
        #: violations the most recent full report had to encode (cache
        #: misses) — surfaced in diagnostics
        self.encoded_last = 0

    def __len__(self) -> int:
        return len(self._entries)

    # repro: lock-held — the detect handler calls this under the session lock
    def encode(self, violations: Iterable[Violation]) -> List[bytes]:
        """The wire bytes of each violation, in the order given."""
        previous = self._entries
        entries: Dict[tuple, Tuple[Violation, bytes]] = {}
        fragments: List[bytes] = []
        misses = 0
        for violation in violations:
            key = (
                id(violation.dependency),
                violation.reason,
                tuple([(relation, id(t)) for relation, t in violation.tuples]),
            )
            entry = previous.get(key)
            if entry is None:
                misses += 1
                entry = (
                    violation,
                    encode_value(ViolationReport._violation_to_dict(violation)),
                )
            entries[key] = entry
            fragments.append(entry[1])
        self._entries = entries
        self.encoded_last = misses
        return fragments

    # repro: lock-held — rule writes, adopt and close run under the session lock
    def clear(self) -> None:
        """Forget the encoded report."""
        self._entries = {}


class HostedSession:
    """One warm session plus the server-side state that wraps it.

    ``lock`` serializes every request that touches the session — the delta
    engine is a single-writer structure, so concurrent requests against
    one session queue here while requests against other sessions proceed
    on their own locks.
    """

    __slots__ = (
        "id",
        "session",
        "lock",
        "created",
        "last_used",
        "requests",
        "journal",
        "_undo",
        "_undo_counter",
        "undo_tokens_view",
        "failures",
        "degraded_since",
        "degraded_total",
        "last_error",
        "probe_in_flight",
        "lock_acquisitions",
        "lock_wait_seconds_total",
        "lock_wait_seconds_max",
        "lock_contended",
        "closed",
        "fragments",
        "last_edit",
    )

    def __init__(
        self,
        session_id: str,
        session: Session,
        journal: Optional[SessionJournal] = None,
    ) -> None:
        self.id = session_id
        self.session = session
        self.lock = threading.Lock()
        self.created = time.time()
        self.last_used = self.created
        self.requests = 0
        self.journal = journal
        self._undo: "OrderedDict[str, Changeset]" = OrderedDict()
        self._undo_counter = 0
        #: immutable published copy of the token order; lock-free readers
        #: (``info`` and the async snapshot layer) read this instead of
        #: iterating ``_undo`` while a write verb mutates it
        self.undo_tokens_view: Tuple[str, ...] = ()
        #: degraded gating: consecutive 5xx-class handler failures
        self.failures = 0
        self.degraded_since: Optional[float] = None
        self.degraded_total = 0
        self.last_error: Optional[str] = None
        self.probe_in_flight = False
        #: lock-wait aggregates for the diagnostics endpoint
        self.lock_acquisitions = 0
        self.lock_wait_seconds_total = 0.0
        self.lock_wait_seconds_max = 0.0
        self.lock_contended = 0
        #: set (under ``lock``) when eviction/removal closed this object;
        #: a handler that won the lock after a close must re-resolve the
        #: session id instead of running on a dead engine
        self.closed = False
        #: the last full report's encoded violations; read and rebuilt by
        #: the detect handler, cleared by whatever retires the rule objects
        #: or the session — always under ``lock``
        self.fragments = ReportFragments()
        #: ``(seconds, inline)`` of the last ``apply`` / ``undo``: the
        #: handler time ``ServiceCore.handle`` measured and whether it ran
        #: on the event loop.  Set by the asyncio front end, read dirty;
        #: ``None`` until then, so a new or rehydrated session's first
        #: edit runs on the pool
        self.last_edit: Optional[Tuple[float, bool]] = None

    def touch(self) -> None:
        self.last_used = time.time()
        self.requests += 1

    # -- the undo table (all called under ``lock``) ----------------------

    # repro: lock-held — the write methods call this under ``self.lock``
    def remember_undo(self, undo: Changeset) -> str:
        """Store an undo changeset; returns its single-use token.

        This is the *only* place a token is minted and the
        ``MAX_UNDO_TOKENS`` bound is enforced — live writes and WAL replay
        (:meth:`redo`) both come through here.  Tokens leave the table
        through :meth:`consume_undo` (successful replay), :meth:`clear_undo`
        (instance swap) or the LRU eviction here, never by re-insertion, so
        the eviction order is exactly token-creation order.
        """
        self._undo_counter += 1
        token = f"undo-{self._undo_counter}"
        self._undo[token] = undo
        while len(self._undo) > MAX_UNDO_TOKENS:
            self._undo.popitem(last=False)
        self.undo_tokens_view = tuple(self._undo)
        return token

    def peek_undo(self, token: str) -> Changeset:
        """Read a stored undo changeset without consuming the token.

        The token keeps its position in the eviction order: a failed
        replay must not promote an old token over newer ones (that would
        change which token :meth:`remember_undo` evicts next).
        """
        try:
            return self._undo[token]
        except KeyError:
            raise ReproError(
                f"unknown or already-used undo token {token!r}"
            ) from None

    # repro: lock-held — the write methods call this under ``self.lock``
    def consume_undo(self, token: str) -> None:
        """Retire a token after its replay succeeded (tokens are
        single-use)."""
        self._undo.pop(token, None)
        self.undo_tokens_view = tuple(self._undo)

    # repro: lock-held — the write methods call this under ``self.lock``
    def clear_undo(self) -> None:
        """Drop every stored token — the instance they were recorded
        against has been replaced (``repair(adopt=True)``)."""
        self._undo.clear()
        self.undo_tokens_view = ()

    def undo_state(self) -> Tuple[List[Tuple[str, Changeset]], int]:
        """Copy of the token table (oldest first) + counter."""
        return list(self._undo.items()), self._undo_counter

    # repro: lock-held — the write methods roll back under ``self.lock``
    def restore_undo_state(
        self, state: Tuple[List[Tuple[str, Changeset]], int]
    ) -> None:
        """Put the token table back exactly as :meth:`undo_state` saw it."""
        items, counter = state
        self._undo.clear()
        self._undo.update(items)
        self._undo_counter = counter
        self.undo_tokens_view = tuple(self._undo)

    # -- the write verbs: mutate, mint or retire tokens, journal; a journal
    # failure rolls memory back (REP003 pins the shape) -----------------

    # repro: lock-held — the apply handler calls this under ``self.lock``
    def apply(self, changeset: Changeset) -> Tuple[ViolationDelta, str]:
        """Apply a changeset; returns its delta and the undo token."""
        saved = self.undo_state()
        with self.session.savepoint() as savepoint:
            try:
                # the engine rolls a failed edit or maintenance back
                # itself; this savepoint covers a failed journal write
                delta = self.session.apply(changeset)
                token = self.remember_undo(delta.undo)
                # the canonical changeset (not the request body) replays
                # deterministically
                self._journal(
                    lambda journal: journal.log_apply(changeset.to_dict(), token)
                )
            except BaseException:
                savepoint.rollback()
                self.restore_undo_state(saved)
                raise
        return delta, token

    # repro: lock-held — the undo handler calls this under ``self.lock``
    def undo(self, taken: str) -> Tuple[ViolationDelta, str]:
        """Replay the undo changeset stored under ``taken``; returns the
        delta and the token that undoes the undo."""
        # peek, don't pop: a failed apply rolls the database back
        # (delta-engine atomicity), so the token must stay valid — and in
        # its original eviction slot — instead of burning on the attempt
        changeset = self.peek_undo(taken)
        saved = self.undo_state()
        with self.session.savepoint() as savepoint:
            try:
                delta = self.session.apply(changeset)
                self.consume_undo(taken)
                token = self.remember_undo(delta.undo)
                self._journal(lambda journal: journal.log_undo(taken, token))
            except BaseException:
                savepoint.rollback()
                self.restore_undo_state(saved)
                raise
        return delta, token

    # repro: lock-held — the rules handlers call this under ``self.lock``
    def write_rules(self, rules: List[Dependency], replace: bool) -> None:
        """Replace the rule set (a PUT) or append to it (a POST)."""
        from repro.rules_json import rules_to_list

        session = self.session
        previous = list(session.rules)
        # fragments name rule objects this write is about to retire
        self.fragments.clear()
        if replace:
            session.replace_rules(rules)
        else:
            session.add_rules(*rules)
        try:
            self._journal(
                lambda journal: journal.log_rules(rules_to_list(rules), replace)
            )
        except BaseException:
            session.replace_rules(previous)
            raise

    # repro: lock-held — the repair handler calls this under ``self.lock``
    def repair(self, strategy: str, adopt: bool, **kwargs: Any) -> RepairReport:
        """Repair the instance; ``adopt`` swaps the session to the result,
        with a snapshot for its durability point (no changeset to log) and
        without the undo tokens, recorded against the instance it replaced."""
        if not adopt:
            return self.session.repair(strategy, **kwargs)
        previous = self.session.database
        saved = self.undo_state()
        report = self.session.repair(strategy, adopt=True, **kwargs)
        self.clear_undo()
        self.fragments.clear()
        try:
            self.persist_snapshot()
        except BaseException:
            self.session.swap_database(previous)
            self.restore_undo_state(saved)
            raise
        return report

    # repro: allow[REP003] — replays a record the WAL already holds
    # repro: lock-held — rehydration replays under ``self.lock``
    def redo(self, record: Mapping[str, Any]) -> None:
        """Replay one WAL record on a session being rehydrated.

        Off the delta engine: :meth:`Changeset.apply_to` needs no violation
        maintenance, and :meth:`Changeset.inverse_of` the effective ops is
        the undo the live write stored.  It is stored under the token
        :meth:`remember_undo` mints, which must be the one logged.
        """
        from repro.rules_json import rules_from_list

        kind = record.get("kind")
        if kind == "rules":
            parsed = rules_from_list(record.get("rules", []), self.session.schema)
            if record.get("replace", True):
                self.session.replace_rules(parsed)
            else:
                self.session.add_rules(*parsed)
            return
        if kind == "apply":
            changeset = Changeset.from_dict(record["changeset"])
        elif kind == "undo":
            changeset = self.peek_undo(record["taken"])
            self.consume_undo(record["taken"])
        else:
            raise ReproError(f"unknown WAL record kind {kind!r}")
        effective = changeset.apply_to(self.session.database)
        token = self.remember_undo(Changeset.inverse_of(effective))
        if token != record["token"]:
            raise ReproError(
                f"the record logged undo token {record['token']!r} where "
                f"replay mints {token!r}"
            )

    # -- durability (all called under ``lock``) --------------------------

    def persist_snapshot(self) -> None:
        """Capture full session state now, retiring the WAL generation."""
        if self.journal is not None:
            self.journal.write_snapshot(
                self.session, list(self._undo.items()), self._undo_counter
            )

    def _journal(self, append: Callable[[SessionJournal], None]) -> None:
        """Make one write durable: a WAL append, normally.

        The cadence snapshot is due once the WAL bytes since the last
        snapshot reach that snapshot's size, so snapshots cost a bounded
        share of the bytes written and a crash leaves at most one
        snapshot's bytes plus one record to replay.  A WAL cannot take an
        append while it is *blocked* (an earlier append left bytes it
        could not remove, or a snapshot failed) or already outweighs its
        snapshot (its cadence snapshot failed before a crash); a full
        snapshot then both captures this write — the in-memory mutation
        and its undo token land before this runs — and reopens a fresh
        WAL generation.  Either path raising means the write did not
        durably commit, and the caller rolls it back.
        """
        journal = self.journal
        if journal is None:
            return
        if journal.blocked is not None or journal.wal_bytes >= journal.snapshot_bytes:
            self.persist_snapshot()
            return
        append(journal)
        if journal.wal_bytes >= journal.snapshot_bytes:
            try:
                self.persist_snapshot()
            except Exception:
                # the write is already durable in the WAL, so a failed
                # cadence snapshot must not fail its request; the next
                # write retries (via the blocked fallback above)
                journal.store._count("snapshot_failures_total")

    # -- degraded gating (mutations under ``lock``) ----------------------

    @property
    def is_degraded(self) -> bool:
        return self.degraded_since is not None

    # repro: lock-held — the gated-verb path calls this under ``self.lock``
    def record_failure(self, message: str, threshold: int) -> bool:
        """Count one server-side (5xx-class) handler failure.

        Returns True exactly when this failure crossed ``threshold``
        consecutive failures and moved the session into the degraded
        state."""
        self.failures += 1
        self.last_error = message
        if self.degraded_since is None and self.failures >= threshold:
            self.degraded_since = time.time()
            self.degraded_total += 1
            return True
        return False

    # repro: lock-held — the gated-verb path calls this under ``self.lock``
    def record_success(self) -> bool:
        """Reset the failure counters after a verb succeeded.

        Returns True when this success was a recovery probe clearing a
        degraded session."""
        recovered = self.degraded_since is not None
        self.failures = 0
        self.degraded_since = None
        self.last_error = None
        return recovered

    def degraded_document(self) -> Dict[str, Any]:
        """The state document served under ``"degraded"`` in 503 bodies."""
        since = self.degraded_since
        return {
            "session": self.id,
            "degraded": since is not None,
            "consecutive_failures": self.failures,
            "degraded_seconds": (
                time.time() - since if since is not None else 0.0
            ),
            "last_error": self.last_error,
        }

    # repro: lock-held — the gated-verb path calls this right after acquiring
    def note_lock_wait(self, seconds: float) -> None:
        """Aggregate how long this request queued for the session: behind
        the transport's per-session lock, then for ``lock``."""
        self.lock_acquisitions += 1
        self.lock_wait_seconds_total += seconds
        if seconds > self.lock_wait_seconds_max:
            self.lock_wait_seconds_max = seconds
        if seconds >= _CONTENDED_LOCK_WAIT:
            self.lock_contended += 1

    def diagnostics(self) -> Dict[str, Any]:
        """The deep per-session document (``GET /sessions/{id}/diagnostics``):
        engine cache + delta stats, lock-wait aggregates, degraded state,
        durability generation and WAL depth."""
        with self.lock:
            session = self.session
            engine = session.warm_engine
            engine_doc: Dict[str, Any] = {
                "warm_delta_engine": engine is not None,
                "executor": EXECUTOR,
                "maintained_violations": None,
                "delta_stats": None,
            }
            if engine is not None:
                engine_doc["maintained_violations"] = engine.total_violations()
                engine_doc["delta_stats"] = {
                    field: getattr(engine.stats, field)
                    for field in DELTA_STAT_FIELDS
                }
            degraded = self.degraded_document()
            degraded["degraded_total"] = self.degraded_total
            last_edit = self.last_edit
            return {
                "session": self.id,
                "relations": {
                    rel.schema.name: len(rel) for rel in session.database
                },
                "rules": len(session.rules),
                "requests": self.requests,
                "age_seconds": time.time() - self.created,
                "idle_seconds": time.time() - self.last_used,
                "engine": engine_doc,
                "locks": {
                    "acquisitions": self.lock_acquisitions,
                    "wait_seconds_total": self.lock_wait_seconds_total,
                    "wait_seconds_max": self.lock_wait_seconds_max,
                    "contended": self.lock_contended,
                },
                "degraded": degraded,
                "last_edit": (
                    None
                    if last_edit is None
                    else {
                        "seconds": last_edit[0],
                        "path": "inline" if last_edit[1] else "pooled",
                    }
                ),
                "report_encoding": {
                    "fragments_cached": len(self.fragments),
                    "fragments_encoded_last": self.fragments.encoded_last,
                },
                "undo_tokens": list(self._undo),
                "durability": (
                    self.journal.status()
                    if self.journal is not None
                    else {"enabled": False}
                ),
            }

    def info(self) -> Dict[str, Any]:
        """The session info document — built *without* the session lock.

        ``GET /sessions`` enumerates every hosted session through this
        method; taking each session's lock here would let one wedged
        verb handler hang the whole listing (and, transitively, every
        client polling it).  Every field is safe to read dirty:

        * scalars (``requests``, degraded flags, journal
          generation) are single attribute reads — atomic in CPython;
        * ``undo_tokens`` reads the immutable ``undo_tokens_view`` tuple
          republished under the lock on every token-table mutation;
        * relation row counts are ``len()`` over containers that are
          mutated (never replaced mid-iteration) by write verbs — a
          listing racing an apply may be one batch stale, which is the
          documented read-snapshot semantics of the listing endpoints.
        """
        session = self.session
        return {
            "session": self.id,
            "relations": {
                rel.schema.name: len(rel) for rel in session.database
            },
            "rules": len(session.rules),
            "executor": EXECUTOR,
            "warm_engine": session.has_warm_engine,
            "degraded": self.is_degraded,
            "requests": self.requests,
            "age_seconds": time.time() - self.created,
            "idle_seconds": time.time() - self.last_used,
            "undo_tokens": list(self.undo_tokens_view),
            "durability": (
                self.journal.status()
                if self.journal is not None
                else {"enabled": False}
            ),
        }


class SessionManager:
    """The table of hosted sessions: create / resolve / evict.

    LRU order is maintained on every resolve; when the table grows past
    ``max_sessions`` the least-recently-used session is closed and dropped.
    All table mutations hold the manager lock; the per-session work itself
    runs under each :class:`HostedSession`'s own lock.
    """

    def __init__(
        self,
        max_sessions: int = 64,
        data_root: Optional[Path] = None,
        state_dir: Optional[Path] = None,
        fsync: bool = True,
    ) -> None:
        if max_sessions < 1:
            raise ReproError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.data_root = Path(data_root) if data_root is not None else Path.cwd()
        self._data_root_resolved = self.data_root.resolve()
        self.store: Optional[SessionStore] = (
            SessionStore(Path(state_dir), fsync=fsync)
            if state_dir is not None
            else None
        )
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, HostedSession]" = OrderedDict()
        #: session ids mid-rehydration → event the losers wait on; guarded
        #: by the manager lock (the recovery itself runs outside it)
        self._rehydrating: Dict[str, threading.Event] = {}
        #: session ids mid-eviction (popped from the table, the close still
        #: running outside the lock) → event.  The close waits on the
        #: victim's lock for an in-flight verb, which may still append to
        #: the WAL or cut a cadence snapshot; resolution must wait for that
        #: write to land before rehydrating, or it reads state missing it
        self._evicting: Dict[str, threading.Event] = {}
        self._auto_counter = 0
        self.created_total = 0
        self.evicted_total = 0
        self.closed_total = 0

    # -- resolution ------------------------------------------------------

    def get(self, session_id: str) -> HostedSession:
        while True:
            evicting: Optional[threading.Event] = None
            with self._lock:
                hosted = self._sessions.get(session_id)
                if hosted is not None:
                    self._sessions.move_to_end(session_id)
                    hosted.touch()
                    return hosted
                evicting = self._evicting.get(session_id)
            if evicting is not None:
                # the session was just popped by LRU pressure and its
                # close is still waiting out an in-flight verb; re-resolve
                # once that verb's WAL append or cadence snapshot landed
                # (rehydrating before it reads state missing that write)
                evicting.wait()
                continue
            with self._lock:
                hosted = self._sessions.get(session_id)
                if hosted is not None:
                    self._sessions.move_to_end(session_id)
                    hosted.touch()
                    return hosted
                if session_id in self._evicting:
                    continue
                if self.store is None or not self.store.exists(session_id):
                    raise UnknownSessionError(
                        f"no session {session_id!r}; open sessions: "
                        f"{list(self._sessions)}"
                    ) from None
                event = self._rehydrating.get(session_id)
                if event is None:
                    # claim the rehydration; recovery runs outside the lock
                    event = threading.Event()
                    self._rehydrating[session_id] = event
                    claimed = True
                else:
                    claimed = False
            if not claimed:
                # another request is recovering this session — wait for it
                # to land (or fail), then re-resolve from the table
                event.wait()
                continue
            try:
                hosted = self._rehydrate(session_id)
            finally:
                with self._lock:
                    self._rehydrating.pop(session_id, None)
                event.set()
            if hosted is not None:
                return hosted
            # lost a remove()/purge race after claiming — report 404

    def peek(self, session_id: str) -> Optional[HostedSession]:
        """The resident session under ``session_id``, if any — no LRU
        bump, no rehydration, no waiting on an eviction."""
        with self._lock:
            return self._sessions.get(session_id)

    def _rehydrate(self, session_id: str) -> Optional[HostedSession]:
        """Recover a cold durable session and publish it in the table.

        The newest snapshot is a create document's inline shape, so the
        create path builds the session; the WAL tail then replays through
        :meth:`HostedSession.redo`, record by record.
        """
        assert self.store is not None
        try:
            journal, snapshot, records = self.store.recover(session_id)
        except FileNotFoundError:
            return None
        hosted = HostedSession(session_id, self._build_session(snapshot), journal)
        evicted: List[HostedSession] = []
        with hosted.lock:
            undo = [
                (token, Changeset.from_dict(document))
                for token, document in snapshot.get("undo", [])
            ]
            hosted.restore_undo_state((undo, int(snapshot.get("undo_counter", 0))))
            for index, record in enumerate(records):
                try:
                    hosted.redo(record)
                except Exception as exc:
                    raise ReproError(
                        f"session {session_id!r}: WAL record #{index} "
                        f"({record.get('kind')!r}) failed to replay: {exc}"
                    ) from exc
            self.store._count("rehydrated_total")
            with self._lock:
                existing = self._sessions.get(session_id)
                if existing is not None:
                    # a concurrent create() won the id; its state superseded
                    # the on-disk copy we just read
                    journal.close()
                    hosted.session.close()
                    existing.touch()
                    return existing
                hosted.touch()
                evicted = self._admit(hosted)
        self._evict_all(evicted)
        return hosted

    # repro: lock-held — callers hold the manager lock
    def _admit(self, hosted: HostedSession) -> List[HostedSession]:
        """Publish ``hosted`` in the table; returns the least-recently-used
        sessions popped past ``max_sessions``, each under a tombstone, for
        :meth:`_evict_all` to close outside the lock."""
        self._sessions[hosted.id] = hosted
        evicted: List[HostedSession] = []
        while len(self._sessions) > self.max_sessions:
            _, lru = self._sessions.popitem(last=False)
            evicted.append(lru)
            self._evicting[lru.id] = threading.Event()
            self.evicted_total += 1
        return evicted

    def _evict_all(self, evicted: List[HostedSession]) -> None:
        """Close popped LRU victims, then release their eviction
        tombstones so waiting resolvers may rehydrate."""
        for lru in evicted:
            try:
                self._close(lru)
            finally:
                with self._lock:
                    event = self._evicting.pop(lru.id, None)
                if event is not None:
                    event.set()

    def list(self) -> List[HostedSession]:
        with self._lock:
            return list(self._sessions.values())

    def cold_session_ids(self) -> List[str]:
        """Durable sessions on disk but not currently resident."""
        if self.store is None:
            return []
        with self._lock:
            resident = set(self._sessions)
            pending = set(self._rehydrating)
        return [
            sid
            for sid in self.store.session_ids()
            if sid not in resident and sid not in pending
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- lifecycle -------------------------------------------------------

    def _resolve_path(self, path: str) -> Path:
        """Resolve a client-supplied server-side path inside ``data_root``.

        Clients name schema/rules/CSV files by path; the data root is the
        confinement boundary.  Absolute paths and ``..`` traversal are
        rejected *after* resolving symlinks, so a link pointing outside
        the root does not slip through either.
        """
        candidate = Path(path)
        if not candidate.is_absolute():
            candidate = self.data_root / candidate
        resolved = candidate.resolve()
        if not resolved.is_relative_to(self._data_root_resolved):
            raise ReproError(
                f"server-side path {path!r} escapes the data root "
                f"{str(self.data_root)!r}"
            )
        if not resolved.is_file():
            raise ReproError(
                f"server-side path {path!r} names no file under the data root "
                f"{str(self.data_root)!r}"
            )
        return resolved

    def _build_session(self, document: Mapping[str, Any]) -> Session:
        from repro.rules_json import (
            database_schema_from_dict,
            load_database_schema,
            load_rules,
            rules_from_list,
        )

        schema_doc = document.get("schema")
        if isinstance(schema_doc, str):
            db_schema = load_database_schema(self._resolve_path(schema_doc))
        elif isinstance(schema_doc, Mapping):
            db_schema = database_schema_from_dict(schema_doc)
        else:
            raise SchemaError(
                "session document needs a 'schema' (inline document or "
                "server-side path)"
            )

        rules_doc = document.get("rules")
        if rules_doc is None:
            rules: List[Any] = []
        elif isinstance(rules_doc, str):
            rules = load_rules(self._resolve_path(rules_doc), db_schema)
        elif isinstance(rules_doc, (list, tuple)):
            rules = rules_from_list(rules_doc, db_schema)
        else:
            raise DependencyError(
                "'rules' must be a rules list or a server-side path"
            )

        db = DatabaseInstance(db_schema)
        data = document.get("data") or {}
        if not isinstance(data, MutableMapping):
            raise SchemaError(
                "'data' must map relation names to row lists or CSV paths"
            )
        for rel_name in list(data):
            relation = db.relation(rel_name)
            if isinstance(data[rel_name], str):
                path = self._resolve_path(data[rel_name])
                db.adopt(rel_name, load_csv(relation.schema, path))
            elif isinstance(data[rel_name], (list, tuple)):
                # taken out of the document, the rows are the loader's
                # alone, and it lets them go once they are columns
                relation.extend_rows(data.pop(rel_name))
            else:
                raise SchemaError(
                    f"data for relation {rel_name!r} must be a row list or "
                    "a server-side CSV path"
                )
        return Session.from_instance(db, rules)

    def create(self, document: Mapping[str, Any]) -> HostedSession:
        """Build and register a session from a creation document.

        The session is built *outside* the manager lock (data upload and
        index construction can be slow); only the table insert and any
        LRU eviction hold it.  The document's inline row lists are
        consumed: each is popped from ``document["data"]`` as its relation
        loads, so the parsed rows are freed once they are columns — a
        caller that still needs them passes a copy.
        """
        session_id = document.get("id")
        if session_id is not None and not isinstance(session_id, str):
            raise ReproError(f"'id' must be a string, got {session_id!r}")
        if session_id == "":
            raise ReproError("'id' must be a non-empty string")
        if session_id is not None:
            unaddressable = _UNADDRESSABLE.search(session_id)
            if unaddressable is not None:
                raise ReproError(
                    f"'id' {session_id!r} holds {unaddressable.group()!r}, which "
                    "no request path can carry: a session id may not hold '/', "
                    "'?', '#', whitespace, a control character or a character "
                    "outside Latin-1"
                )
            # fail fast before paying the data upload / instance build;
            # the post-build check below still covers a create/create race
            with self._lock:
                if session_id in self._sessions:
                    raise DuplicateSessionError(
                        f"session {session_id!r} already exists; DELETE it "
                        "first or create under a fresh id"
                    )
            if self.store is not None and self.store.exists(session_id):
                raise DuplicateSessionError(
                    f"session {session_id!r} already exists (durable state "
                    "on disk); DELETE it first or create under a fresh id"
                )
        session = self._build_session(document)
        evicted: List[HostedSession] = []
        hosted: Optional[HostedSession] = None
        try:
            with self._lock:
                if session_id is None:
                    self._auto_counter += 1
                    session_id = f"s{self._auto_counter}"
                    while session_id in self._sessions or (
                        self.store is not None and self.store.exists(session_id)
                    ):
                        self._auto_counter += 1
                        session_id = f"s{self._auto_counter}"
                elif session_id in self._sessions:
                    raise DuplicateSessionError(
                        f"session {session_id!r} already exists; DELETE it "
                        "first or create under a fresh id"
                    )
                hosted = HostedSession(session_id, session)
                self.created_total += 1
                evicted = self._admit(hosted)
            if self.store is not None:
                # hold the session lock across the durable create so no
                # request can land on the published session before its
                # journal (and gen-0 snapshot) exists
                with hosted.lock:
                    try:
                        hosted.journal = self.store.create(session_id, session)
                    except FileExistsError:
                        raise DuplicateSessionError(
                            f"session {session_id!r} already exists (durable "
                            "state on disk); DELETE it first or create under "
                            "a fresh id"
                        ) from None
        except BaseException:
            if hosted is not None:
                with self._lock:
                    if self._sessions.get(session_id) is hosted:
                        del self._sessions[session_id]
                        self.created_total -= 1
            session.close()
            raise
        finally:
            # Close outside the manager lock: an in-flight request may hold
            # the session lock, and closing must wait for it, not block the
            # whole table.  Runs on the failure path too — the victims were
            # already popped, and resolvers are waiting on their tombstones.
            self._evict_all(evicted)
        return hosted

    def remove(self, session_id: str) -> str:
        """Close and drop a session; durable state on disk is purged too.

        Returns the removed session id — the session object itself may
        never have been resident (cold durable session)."""
        while True:
            with self._lock:
                hosted = self._sessions.pop(session_id, None)
                event = self._rehydrating.get(session_id)
                if event is None:
                    event = self._evicting.get(session_id)
                if hosted is None and event is None:
                    if self.store is None or not self.store.exists(session_id):
                        raise UnknownSessionError(
                            f"no session {session_id!r}; open sessions: "
                            f"{list(self._sessions)}"
                        ) from None
                if hosted is not None:
                    self.closed_total += 1
            if hosted is None and event is not None:
                # a rehydration or an eviction's close is in flight; let
                # it land, then remove whatever it produced
                event.wait()
                continue
            break
        if hosted is not None:
            self._close(hosted)
        if self.store is not None:
            self.store.purge(session_id)
            if hosted is None:
                with self._lock:
                    self.closed_total += 1
        return session_id

    def close_all(self) -> None:
        """Close every session (shutdown): the journals close as a crash
        would leave them, and recovery replays each WAL tail."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for hosted in sessions:
            self._close(hosted)

    @staticmethod
    def _close(hosted: HostedSession) -> None:
        """Close one session and its journal, writing no snapshot.

        Every acknowledged write is already durable in the WAL, so a
        durable session leaves memory as it is and the next request that
        names it rehydrates from snapshot + WAL tail.  A *blocked* journal
        is the exception: its WAL may hold a record memory rolled back
        (an append whose bytes could not be cut back out), so it snapshots
        memory first, and that record never replays."""
        with hosted.lock:
            hosted.closed = True
            hosted.fragments.clear()
            journal = hosted.journal
            if journal is not None:
                if journal.blocked is not None:
                    try:
                        hosted.persist_snapshot()
                    except Exception:
                        # nothing is left to retry it: the WAL stays as
                        # it is, stray record and all, for recovery
                        journal.store._count("snapshot_failures_total")
                journal.close()
            hosted.session.close()


class ServerMetrics:
    """Thread-safe request counters: totals, statuses, per-endpoint latency
    (with Prometheus-style histogram buckets), the transport's connection
    counts and named ops counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total = 0
        #: connections the transport accepted / has open right now — with
        #: keep-alive clients accepted stays far below ``requests_total``
        self.connections_accepted_total = 0
        self.connections_open = 0
        self.responses: Dict[str, int] = {}
        self.endpoints: Dict[str, Dict[str, float]] = {}
        #: per-endpoint latency observations, one slot per LATENCY_BUCKETS
        #: bound plus the trailing +Inf overflow slot
        self._buckets: Dict[str, List[int]] = {}
        #: named operational counters, the ones ``OPS_COUNTERS`` names: the
        #: degraded gating lifecycle, the transport's snapshot layer and
        #: where its edits ran
        self.counters: Dict[str, int] = {
            name: 0 for names in OPS_COUNTERS.values() for name in names
        }

    def record(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            self.requests_total += 1
            key = str(status)
            self.responses[key] = self.responses.get(key, 0) + 1
            stats = self.endpoints.get(endpoint)
            if stats is None:
                stats = self.endpoints[endpoint] = {
                    "count": 0, "seconds_total": 0.0, "seconds_max": 0.0
                }
                self._buckets[endpoint] = [0] * (len(LATENCY_BUCKETS) + 1)
            stats["count"] += 1
            stats["seconds_total"] += seconds
            if seconds > stats["seconds_max"]:
                stats["seconds_max"] = seconds
            # the first bound at or above ``seconds``; past the last, +Inf
            self._buckets[endpoint][bisect_left(LATENCY_BUCKETS, seconds)] += 1

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_accepted_total += 1
            self.connections_open += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_open -= 1

    def count(self, name: str) -> None:
        """Bump one named operational counter."""
        with self._lock:
            self.counters[name] += 1

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            labels = [f"{bound:g}" for bound in LATENCY_BUCKETS] + ["+Inf"]
            empty = [0] * (len(LATENCY_BUCKETS) + 1)
            endpoints: Dict[str, Dict[str, Any]] = {}
            for endpoint, stats in sorted(self.endpoints.items()):
                cumulative: Dict[str, int] = {}
                running = 0
                for label, observed in zip(
                    labels, self._buckets.get(endpoint, empty)
                ):
                    running += observed
                    cumulative[label] = running
                endpoints[endpoint] = {
                    "count": stats["count"],
                    "seconds_total": stats["seconds_total"],
                    "seconds_avg": stats["seconds_total"] / stats["count"],
                    "seconds_max": stats["seconds_max"],
                    "seconds_bucket": cumulative,
                }
            return {
                "requests_total": self.requests_total,
                "connections_accepted_total": self.connections_accepted_total,
                "connections_open": self.connections_open,
                "responses": dict(sorted(self.responses.items())),
                "endpoints": endpoints,
            }
