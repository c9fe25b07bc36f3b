"""``repro.server`` — a long-running JSON-over-HTTP constraint service.

The batch CLI pays a cold start on every invocation: parse schema + rules,
load the data, build the engine indexes, detect once, exit.  This package
keeps that work *warm*: a resident server hosts many named
:class:`~repro.session.Session` objects, each with its hash indexes,
cached layouts and delta engine alive across requests, so repeated
detect/edit traffic pays only the marginal work of each request.

There is one transport, the ``asyncio`` front end in
:mod:`repro.server.aio`, over a transport-neutral
:class:`~repro.server.core.ServiceCore` that makes every response byte:
read verbs run lock-free against versioned session snapshots, write
verbs serialize per session, and many idle keep-alive connections cost
one event loop instead of one thread each.

Requests against *one* session serialize on that session's lock (the
delta engine is single-writer); requests against *distinct* sessions run
concurrently.  When more than ``max_sessions`` sessions are open the
least-recently-used one is evicted through ``Session.close()``.

With ``--state-dir`` the server is *durable*
(:mod:`repro.server.durability`): every write verb appends a CRC-framed,
fsync'd record to a per-session changeset WAL before the response
commits, a snapshot retires the log once the WAL bytes since the last
snapshot reach that snapshot's size (the cadence snapshots, all but the
newest, then weigh no more than the WAL written, and a crash leaves at
most one snapshot's bytes plus one record to replay; the rule has no
option — it replaced a records-per-snapshot flag, now removed),
eviction and shutdown close the journals without a snapshot, and on
restart (or on first touch of an evicted session) the manager lazily
rehydrates the session from snapshot + WAL tail — undo tokens included.
Kill -9 the process at any byte boundary, restart on the same state dir,
and every session answers ``detect`` byte-identically to an
uninterrupted run.

The wire protocol is versioned (:mod:`repro.server.wire`): every
endpoint mounts under ``/v1/...`` and every JSON response carries
``"wire_version": 1`` as the first envelope key.  Any other prefix —
an unknown version or none at all — answers ``404`` with a document
naming ``/v1``.  Endpoints (see ``docs/server.md`` for the full wire
format):

==================================  =======================================
``GET  /v1/healthz``                liveness + open-session count
``GET  /v1/metrics``                request counts, latency, cache stats
``GET  /v1/metrics?format=prometheus``  the same document, text exposition
``GET  /v1/sessions``               list hosted sessions (lock-free)
``POST /v1/sessions``               create a session (inline docs or paths)
``GET  /v1/sessions/{id}``          one session's info document
``DELETE /v1/sessions/{id}``        close + evict a session
``POST /v1/sessions/{id}/detect``   run detection → the CLI's json doc
``POST /v1/sessions/{id}/apply``    apply a changeset via the delta engine
``POST /v1/sessions/{id}/undo``     replay a stored undo token
``POST /v1/sessions/{id}/repair``   repair (strategy u|x|s) → repair doc
``GET/PUT/POST /v1/sessions/{id}/rules``  registry round-trip of the rules
``GET  /v1/sessions/{id}/diagnostics``  engine/delta/lock/durability dive
==================================  =======================================

A session that fails ``degraded_after`` consecutive times server-side is
*degraded*: it answers 503 ``{"degraded": ...}`` while one request at a
time runs the verb as a recovery probe — the first success clears the
state (see ``docs/server.md`` § Ops).

Start one from Python (tests, benchmarks)::

    server = make_server(port=0)           # port 0: pick a free port
    server.start_background()
    ...                                    # drive it via repro.client
    server.shutdown()

or from the CLI: ``repro serve --port 8765 --max-sessions 64``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.server.aio import AsyncReproServer
from repro.server.core import ServiceCore
from repro.server.durability import SessionJournal, SessionStore
from repro.server.hosting import (
    DEFAULT_DEGRADED_AFTER,
    MAX_UNDO_TOKENS,
    DuplicateSessionError,
    HostedSession,
    ServerMetrics,
    SessionDegradedError,
    SessionManager,
    UnknownSessionError,
)
from repro.server.wire import WIRE_VERSION

__all__ = [
    "AsyncReproServer",
    "SessionManager",
    "HostedSession",
    "ServerMetrics",
    "ServiceCore",
    "UnknownSessionError",
    "DuplicateSessionError",
    "SessionDegradedError",
    "DEFAULT_DEGRADED_AFTER",
    "MAX_UNDO_TOKENS",
    "WIRE_VERSION",
    "SessionJournal",
    "SessionStore",
    "make_server",
    "serve",
]


def make_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    max_sessions: int = 64,
    data_root: Optional[Path] = None,
    state_dir: Optional[Path] = None,
    fsync: bool = True,
    degraded_after: int = DEFAULT_DEGRADED_AFTER,
) -> AsyncReproServer:
    """Build the server (not yet serving); ``port=0`` picks a free port.

    Lifecycle: ``base_url`` / ``start_background()`` / ``serve_forever()``
    / ``shutdown()``."""
    return AsyncReproServer(
        (host, port), max_sessions=max_sessions, data_root=data_root,
        state_dir=state_dir, fsync=fsync,
        degraded_after=degraded_after,
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    max_sessions: int = 64,
    data_root: Optional[Path] = None,
    state_dir: Optional[Path] = None,
    degraded_after: int = DEFAULT_DEGRADED_AFTER,
    quiet: bool = False,
) -> int:
    """Blocking entry point for ``repro serve``: Ctrl-C or SIGTERM stops
    it, draining the open connections, and it returns 0.

    Prints one line, the listening banner on stderr, unless ``quiet``."""
    import signal
    import sys

    server = make_server(
        host, port, max_sessions=max_sessions, data_root=data_root,
        state_dir=state_dir, degraded_after=degraded_after,
    )
    if not quiet:
        durable = ""
        if state_dir is not None:
            cold = len(server.manager.cold_session_ids())
            durable = f", durable state in {state_dir} ({cold} recoverable)"
        print(
            f"repro server listening on {server.base_url} "
            f"(max {max_sessions} sessions{durable})",
            file=sys.stderr,
            flush=True,
        )
    # a supervisor's stop is SIGTERM: end the loop the way shutdown() does
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: server._signal_stop()
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.manager.close_all()
        server.server_close()
    return 0
