"""The asyncio front end of the constraint service.

One event loop accepts every connection (256 idle keep-alive clients
cost file descriptors, not threads), and requests split by the row of
the core's route table they name (:class:`~repro.server.core.Route`,
``.verb``; this module lists no verb of its own):

* **snapshot reads** — the cached routes, ``detect`` and
  ``GET .../rules`` — answer *inline on the loop* from cached response
  bytes while the session still reports the report epoch they were
  published at (:meth:`repro.session.Session.report_epoch`).  No session
  lock, no thread handoff: a reader can never queue behind a writer.  The
  body is parsed once, here, for the snapshot key, and the core's handler
  reads that parse on a miss.
* **serialized routes** — the writes (``apply``/``undo``/``repair``/rules
  writes, ``DELETE``) and the cached reads that miss — serialize per
  session on an :class:`asyncio.Lock` and run the shared
  :class:`~repro.server.core.ServiceCore` handler on a worker thread.
  Once the write completed, still under that lock, the session's
  snapshot is dropped and the next read publishes one at the new epoch —
  except after an ``apply`` / ``undo`` the delta engine vouches changed
  no report (the session's ``report_epoch()`` still equals the
  snapshot's): that snapshot is *kept*, and the read after such a write
  is a snapshot read.  On mostly clean data that is most writes.
* **cheap edits** — an ``apply`` / ``undo`` on an in-memory (unjournaled),
  non-degraded session whose lock no worker holds, and whose previous
  edit's handler took less than ``sys.getswitchinterval()`` — run the
  same handler *on the loop*, still under the asyncio lock.  A CPU-bound
  handler on a worker holds the GIL until the interpreter's forced
  switch anyway, so one shorter than the switch interval delays loop
  callbacks no more inline than pooled, and inline it skips the thread
  hand-off both ways.  A misprediction blocks the loop for one edit; the
  time it records sends the session's next edit to the pool.  A
  session's first edit (nothing has timed one yet; with no detect before
  it, it builds the delta engine), journaled sessions (``fdatasync`` and
  the cadence snapshot stay off the loop) and recovery probes are always
  pooled.
* everything else (health, metrics, listings, creates) runs the core
  handler on a worker thread without session-level coordination — those
  paths are already lock-free or non-blocking by construction.

Durability, degraded gating, eviction tombstones and metrics are all the
core's — this module adds no response byte of its own (the differential
test replays one history against a served instance and an in-process
``ServiceCore.handle`` twin and compares every body).

Snapshot-correctness argument, in one place:

* every served report is the delta engine's — a session's first
  ``detect`` builds it (``ServiceCore._handle_detect``) — and a snapshot
  is published only while the session reports an epoch: a read with no
  engine answering for it (a rules ``GET`` before any detect) publishes
  nothing;
* a snapshot is published only *while holding the session's asyncio
  lock*, after the verb handler completed, with the epoch read under that
  lock — so the cached bytes and the epoch always agree;
* every mutating path on this server holds the same asyncio lock, so a
  published epoch can only be observed concurrently with *reads* (the
  lock is chosen from the :class:`~repro.server.core.Route` the core
  dispatches on — the same table row, built by the same parse — so no
  target reaches a write handler without it);
* a session reports an epoch only while its engine is current, and the
  engine moves ``report_epoch`` *before* its recorded relation versions
  catch up (``DeltaEngine._maintain`` and ``_build``), so a lock-free
  reader that sees the engine current after a report-changing write sees
  the new epoch.  Epochs come from one process-wide counter, never
  repeated by another engine or a rebuild, so an equal epoch means the
  cached list *is* the list a fresh executor run returns now (the
  engine's standing contract); the rule documents change only with a
  rules write, which drops the engine;
* hits additionally require the hosted session to be the manager's
  current, non-closed, non-degraded resident — degraded sessions answer
  through the gated (503-producing) path, and evicted/rehydrated
  sessions miss (different object).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import socket
import sys
import threading
import time
from pathlib import Path
from typing import AsyncIterator, Callable, Dict, Optional, Set, Tuple

from repro.server.core import (
    Response,
    Route,
    ServiceCore,
    Verb,
    body_reader,
    status_reason,
)
from repro.server.hosting import (
    DEFAULT_DEGRADED_AFTER,
    HostedSession,
    ServerMetrics,
    SessionManager,
    UnknownSessionError,
)
from repro.server.pool import VerbPool

__all__ = ["AsyncReproServer", "SessionSnapshot"]

#: how long a stop waits for requests already read to be answered
_DRAIN_SECONDS = 5.0

#: header lines one request head may carry (stdlib ``http.client``'s
#: ``_MAXHEADERS``); past it the head is refused unread
_MAX_HEADERS = 100


class _LockEntry:
    """A session's asyncio lock and how many requests hold or await it."""

    __slots__ = ("lock", "users")

    def __init__(self) -> None:
        self.lock = asyncio.Lock()
        self.users = 0


class SessionSnapshot:
    """Immutable read cache for one session at one report epoch.

    ``cache`` maps read keys (:meth:`Route.snapshot_key
    <repro.server.core.Route.snapshot_key>`) to fully rendered
    :class:`Response` objects, good while the session's
    ``report_epoch()`` equals ``epoch``, the one it had at publication.
    """

    __slots__ = ("hosted", "epoch", "cache")

    def __init__(self, hosted: HostedSession, epoch: int) -> None:
        self.hosted = hosted
        self.epoch = epoch
        self.cache: Dict[tuple, Response] = {}

    def answers_for(self, hosted: Optional[HostedSession]) -> bool:
        """Whether the cached bytes are ``hosted``'s answers now: the same
        resident, open and healthy, at the same report epoch."""
        return (
            hosted is self.hosted
            and not self.hosted.closed
            and not self.hosted.is_degraded
            and self.hosted.session.report_epoch() == self.epoch
        )


class AsyncReproServer:
    """The asyncio transport over the service core.

    The listening socket binds in ``__init__`` (``port=0`` resolves
    immediately), ``serve_forever()`` blocks, ``start_background()``
    serves from a daemon thread, and ``shutdown()`` stops the loop and
    closes every session.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        max_sessions: int = 64,
        data_root: Optional[Path] = None,
        state_dir: Optional[Path] = None,
        fsync: bool = True,
        degraded_after: int = DEFAULT_DEGRADED_AFTER,
    ) -> None:
        self.manager = SessionManager(
            max_sessions,
            data_root=data_root,
            state_dir=state_dir,
            fsync=fsync,
        )
        self.metrics = ServerMetrics()
        self.core = ServiceCore(self.manager, self.metrics, degraded_after)
        self.degraded_after = self.core.degraded_after
        self.started = self.core.started
        # bind eagerly so base_url is valid before the loop starts; a deep
        # listen backlog keeps benchmark-scale connection fan-in (hundreds
        # of clients connecting at once) from seeing resets
        self._socket = socket.create_server(
            address, backlog=256, reuse_port=False
        )
        self.server_address: Tuple[str, int] = self._socket.getsockname()[:2]
        # the core's verb handlers block (session locks, WAL fsync, CPU);
        # all but the cheap edits run here so the loop does not — sized for
        # many concurrent sessions, not for CPU parallelism.
        # Not ThreadPoolExecutor: see repro.server.pool for the race that
        # made its thread count, and so request cost, differ run to run
        self._executor = VerbPool(max_workers=32, thread_name_prefix="repro-verb")
        self._locks: Dict[str, _LockEntry] = {}
        self._snapshots: Dict[str, SessionSnapshot] = {}
        #: every open connection's handler task, and the writers of the
        #: ones parked between requests — what a stop has to wind down
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._parked: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def base_url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until shutdown."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket
        )
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await self._drain_connections()
            await server.wait_closed()

    async def _drain_connections(self) -> None:
        """Wind down the open connections before the loop goes away.

        Returning from :meth:`_main` with handlers still parked in
        ``readline`` makes ``asyncio.run`` *cancel* them: one traceback
        per idle keep-alive connection, and sockets nobody closed.  So a
        connection waiting for its next request is closed here — its
        handler reads EOF and leaves through its own ``finally`` — while a
        request already read keeps its connection until the response is
        written (``_handle_connection`` then closes it).  The wait is
        bounded: a verb still running after ``_DRAIN_SECONDS`` is left to
        the cancellation it would have met anyway.
        """
        self._draining = True
        # connections accepted this iteration start their handlers first
        await asyncio.sleep(0)
        for writer in self._parked:
            writer.close()
        if self._handlers:
            await asyncio.wait(self._handlers, timeout=_DRAIN_SECONDS)

    def start_background(self) -> threading.Thread:
        """Serve requests on a daemon thread (tests, benchmarks)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        self._thread = thread
        if not self._ready.wait(timeout=10):
            raise RuntimeError("async server failed to start within 10s")
        return thread

    def _signal_stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)

    def shutdown(self) -> None:
        """Stop serving, close every session, release the socket.

        Journals close without a snapshot, as after a SIGKILL — every
        acknowledged write is already fdatasync'd, so a server booted on
        the same ``state_dir`` recovers by replaying the WAL tails.
        """
        self._signal_stop()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.manager.close_all()
        self.server_close()

    def server_close(self) -> None:
        """Release the listening socket and the worker threads."""
        if self._closed:
            return
        self._closed = True
        self._signal_stop()
        self._executor.shutdown(wait=False, cancel_futures=True)
        try:
            self._socket.close()
        except OSError:
            pass

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self.metrics.connection_opened()
        try:
            while not self._draining:
                self._parked.add(writer)
                try:
                    request = await self._read_request(reader, writer)
                finally:
                    self._parked.discard(writer)
                if request is None:
                    return
                method, target, keep_alive, body = request
                response = await self._respond(method, target, body)
                keep_alive = keep_alive and not self._draining
                self._write_response(writer, response, keep_alive)
                await writer.drain()
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            return
        finally:
            self.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bool, bytes]]:
        """Parse one HTTP/1.1 request; ``None`` ends the connection."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, version = (
                request_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
            )
        except ValueError:
            await self._refuse(
                writer, "BAD", "/v1/__malformed__", "malformed request line"
            )
            return None
        headers: Dict[str, str] = {}
        # a body is framed by one Content-Length or not at all, and a head
        # that frames it two ways (RFC 9112 §5.1, §6.3) is no better: what
        # follows cannot be told from the next request, so it is answered
        # once and the connection closed with the rest unread
        unframed: Optional[str] = None
        lines = 0
        while True:
            line = await reader.readline()
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                break
            lines += 1
            if lines > _MAX_HEADERS:
                await self._refuse(
                    writer,
                    method.upper(),
                    target,
                    f"the request head has more than {_MAX_HEADERS} header lines",
                )
                return None
            name, colon, value = line.decode("latin-1").partition(":")
            field = name.lower()
            if unframed is not None:
                continue
            if not colon:
                unframed = "a header line has no ':' separator"
            elif name.split() != [name]:
                unframed = f"header field name {name!r} has whitespace in it"
            elif field == "content-length" and field in headers:
                unframed = "Content-Length is sent more than once"
            headers[field] = value.strip()
        declared = headers.get("content-length", "0")
        if unframed is None and "transfer-encoding" in headers:
            unframed = (
                "Transfer-Encoding is not supported; send the body with "
                "a Content-Length"
            )
        elif unframed is None and not (declared.isascii() and declared.isdigit()):
            unframed = (
                f"Content-Length must be a non-negative integer, "
                f"got {declared!r}"
            )
        if unframed is not None:
            await self._refuse(writer, method.upper(), target, unframed)
            return None
        length = int(declared)
        body = await reader.readexactly(length) if length > 0 else b""
        connection = headers.get("connection", "").lower()
        keep_alive = version.upper() != "HTTP/1.0" and connection != "close"
        return method.upper(), target, keep_alive, body

    async def _refuse(
        self, writer: asyncio.StreamWriter, method: str, target: str, message: str
    ) -> None:
        """Answer a request that cannot be framed with the core's 400, and
        leave the connection to close."""
        response = self.core.refuse(Route(method, target), message)
        self._write_response(writer, response, keep_alive=False)
        await writer.drain()

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        head = [
            f"HTTP/1.1 {response.status} {status_reason(response.status)}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        if not keep_alive:
            head.append("Connection: close")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
        )

    # -- dispatch --------------------------------------------------------

    async def _respond(self, method: str, target: str, body: bytes) -> Response:
        started = time.perf_counter()
        route = Route(method, target)
        read_body = body_reader(body)
        key = route.snapshot_key(read_body)
        if key is not None:
            cached = self._snapshot_read(route.session_id, key, started)
            if cached is not None:
                return cached
        call = functools.partial(self.core.handle, method, target, read_body)
        loop = asyncio.get_running_loop()
        verb = route.verb
        if verb is None or not verb.serialized:
            return await loop.run_in_executor(self._executor, call)
        session_id = route.session_id
        if verb.gated:
            rejected = self._reject_behind_probe(route)
            if rejected is not None:
                return rejected
        queued_from = time.perf_counter()
        async with self._session_lock(session_id):
            # the time spent queued here is the request's lock wait
            call = functools.partial(call, queued=time.perf_counter() - queued_from)
            if verb.edit:
                response = await self._edit(session_id, call)
            else:
                response = await loop.run_in_executor(self._executor, call)
            self._after_session_verb(session_id, verb, key, response)
        return response

    async def _edit(self, session_id: str, call: Callable[[], Response]) -> Response:
        """Run an ``apply`` / ``undo`` under the session's asyncio lock —
        on the loop itself when the session's previous edit showed it is
        cheap, on the pool otherwise (the module docstring has the rule)."""
        hosted = self.manager.peek(session_id)
        inline = hosted is not None and self._cheap_edit(hosted)
        if inline:
            response = call()
        else:
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(self._executor, call)
            if hosted is None:
                # a cold durable session: the edit rehydrated it
                hosted = self.manager.peek(session_id)
        self.metrics.count("edits_inline_total" if inline else "edits_pooled_total")
        if hosted is not None:
            hosted.last_edit = (response.seconds, inline)
        return response

    @staticmethod
    def _cheap_edit(hosted: HostedSession) -> bool:
        """Whether the next edit on ``hosted`` may run on the loop: an
        in-memory, healthy session whose lock no pool thread holds right
        now (a dirty read — at worst the loop waits out one short
        diagnostics read) and whose previous edit took less than one GIL
        switch interval."""
        last = hosted.last_edit
        return (
            last is not None
            and last[0] < sys.getswitchinterval()
            and hosted.journal is None
            and not hosted.is_degraded
            and not hosted.lock.locked()
        )

    def _reject_behind_probe(self, route: Route) -> Optional[Response]:
        """The degraded gate's fast 503 for a gated request that would
        otherwise queue on the asyncio lock behind an in-flight recovery
        probe.

        The gate itself sits behind that lock (``ServiceCore.gated_verb``
        runs inside the handler), so a contended request has to be turned
        away here or it waits out the probe.  Checked only when the lock is
        already held — an uncontended request goes straight to the gate —
        and it can only ever answer that 503: if the dirty read loses the
        race the request queues like any other, so no verb runs outside
        the lock.
        """
        entry = self._locks.get(route.session_id)
        if entry is None or not entry.lock.locked():
            return None
        hosted = self.manager.peek(route.session_id)
        if hosted is None:
            return None
        return self.core.reject_behind_probe(route, hosted)

    @contextlib.asynccontextmanager
    async def _session_lock(self, session_id: str) -> AsyncIterator[None]:
        """Hold the session's asyncio lock for one request.

        The table keeps an entry only while some request holds or awaits
        it — counted here, on the loop, because ``asyncio.Lock`` does not
        say who is waiting — so probing ids that 404 and deleting sessions
        leave nothing behind, and no waiter is ever orphaned on a lock the
        table has already replaced.
        """
        entry = self._locks.get(session_id)
        if entry is None:
            entry = self._locks[session_id] = _LockEntry()
        entry.users += 1
        try:
            async with entry.lock:
                yield
        finally:
            entry.users -= 1
            if not entry.users:
                del self._locks[session_id]

    # -- the snapshot layer ----------------------------------------------

    def _snapshot_read(
        self, session_id: str, key: tuple, started: float
    ) -> Optional[Response]:
        """Serve a read from cached bytes when provably still current.

        Runs inline on the event loop: the only synchronization it takes
        is the manager's table lock inside ``manager.get`` (LRU bump +
        request accounting, never held across verb handlers).  Returns
        ``None`` on any miss — the caller falls through to the full path.
        """
        snapshot = self._snapshots.get(session_id)
        if snapshot is None:
            return None
        if snapshot.hosted.closed:
            # evicted or removed: the snapshot must not pin the session
            del self._snapshots[session_id]
            return None
        cached = snapshot.cache.get(key)
        if cached is None:
            return None
        try:
            hosted = self.manager.get(session_id)
        except UnknownSessionError:
            return None
        if not snapshot.answers_for(hosted):
            return None
        self.metrics.count("snapshot_hits_total")
        self.metrics.record(
            cached.endpoint, cached.status, time.perf_counter() - started
        )
        return cached

    def _after_session_verb(
        self, session_id: str, verb: Verb, key: Optional[tuple], response: Response
    ) -> None:
        """Maintain the snapshot layer after a serialized verb completed.

        Called while still holding the session's asyncio lock, so the
        report epoch read here cannot race another writer on this server.
        ``key`` is the request's snapshot key, if any.
        """
        if verb.writes:
            # session deleted or mutated: whatever was cached is stale,
            # unless the engine vouches that this edit changed no report
            snapshot = self._snapshots.get(session_id)
            if snapshot is None:
                return
            if verb.edit and snapshot.answers_for(self.manager.peek(session_id)):
                self.metrics.count("snapshots_kept_total")
            else:
                del self._snapshots[session_id]
                self.metrics.count("snapshots_dropped_total")
            return
        if key is None or response.status != 200:
            return
        try:
            hosted = self.manager.get(session_id)
        except UnknownSessionError:
            return
        if hosted.closed or hosted.is_degraded:
            return
        epoch = hosted.session.report_epoch()
        if epoch is None:
            return  # no engine names the report yet (a rules read first)
        snapshot = self._snapshots.get(session_id)
        if snapshot is None or snapshot.hosted is not hosted or snapshot.epoch != epoch:
            snapshot = SessionSnapshot(hosted, epoch)
            self._snapshots[session_id] = snapshot
            # LRU eviction closes sessions without a request naming them:
            # sweep here, where the table grows, so it never holds more
            # than the resident sessions plus the ones closed since
            for stale in [
                sid for sid, kept in self._snapshots.items() if kept.hosted.closed
            ]:
                del self._snapshots[stale]
        snapshot.cache[key] = response
