"""Transport-agnostic request handling for the constraint service.

:class:`ServiceCore` owns everything between "a request line arrived"
and "these are the exact response bytes": /v1 wire versioning, routing,
the verb handlers with degraded gating and durability, error→status
mapping, the versioned response envelope, and per-endpoint metrics
recording.  The asyncio front end (:mod:`repro.server.aio`) is a thin
transport over the core and adds no byte of its own — the differential
test replays one history against a served instance and an in-process
:meth:`ServiceCore.handle` and byte-compares every body.  The bytes
themselves are made in one place, :func:`repro.server.wire.encode`; what
a served document owes an offline one is equality of the parsed
documents, not of their bytes.

A request flows::

    transport -> core.handle(method, target, read_body) -> Response
    transport writes Response.status / .content_type / .body

``read_body`` is a transport-supplied thunk returning the parsed JSON
body (or raising :class:`BadRequest`); the core calls it lazily so
unrouted requests never pay the parse.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.engine.config import engine_config_from_document
from repro.engine.delta import Changeset, StaleEngineError
from repro.errors import (
    DependencyError,
    DomainError,
    RepairError,
    ReproError,
    SchemaError,
)
from repro.server.hosting import (
    DuplicateSessionError,
    HostedSession,
    ServerMetrics,
    SessionDegradedError,
    SessionManager,
    UnknownSessionError,
)
from repro.server.metrics import DELTA_STAT_FIELDS, prometheus_text
from repro.server.wire import (
    SUPPORTED_WIRE_VERSIONS,
    encode,
    splice_array,
    split_target,
    unsupported_version_document,
)
from urllib.parse import parse_qs

__all__ = [
    "BadRequest",
    "PlainText",
    "Response",
    "ServiceCore",
]


class BadRequest(Exception):
    """Internal: malformed request envelope (not a library error)."""


#: (error class, HTTP status) in match order — first isinstance hit wins
_ERROR_STATUS = (
    (SessionDegradedError, 503),
    (UnknownSessionError, 404),
    (DuplicateSessionError, 409),
    (StaleEngineError, 409),
    (RepairError, 400),
    (DependencyError, 400),
    (SchemaError, 400),
    (DomainError, 400),
    (BadRequest, 400),
    (ReproError, 400),
    (KeyError, 400),
    (ValueError, 400),
)


def _status_for(exc: BaseException) -> int:
    """Map a handler exception to its HTTP status (500 when unclassified)."""
    for error_cls, error_status in _ERROR_STATUS:
        if isinstance(exc, error_cls):
            return error_status
    return 500


class PlainText:
    """Marker: a route resolved to a non-JSON payload."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


class Response:
    """The fully rendered response a transport writes to its socket."""

    __slots__ = ("status", "body", "content_type", "endpoint", "seconds")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str,
        endpoint: str = "",
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        #: the metrics key this response was recorded under
        self.endpoint = endpoint
        #: the handler time :meth:`ServiceCore.handle` recorded for it
        self.seconds = 0.0


#: a handler answers with a document, or with bytes it already encoded
VerbResult = Tuple[str, int, Union[Dict[str, Any], bytes]]
RouteResult = Tuple[str, int, Union[Dict[str, Any], bytes, PlainText]]
ReadBody = Callable[[], Any]


def parse_body_bytes(raw: bytes) -> Any:
    """Parse a request body (what a transport's ``read_body`` thunk calls)."""
    if not raw:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BadRequest(f"request body is not valid JSON: {exc}") from exc


class ServiceCore:
    """The service: sessions, metrics, routing and verb handlers."""

    def __init__(
        self,
        manager: SessionManager,
        metrics: ServerMetrics,
        degraded_after: int,
    ) -> None:
        self.manager = manager
        self.metrics = metrics
        #: consecutive handler failures before a session degrades (0 = off)
        self.degraded_after = max(0, degraded_after)
        self.started = time.time()

    # -- service documents -----------------------------------------------

    def health_document(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started,
            "sessions": len(self.manager),
            "max_sessions": self.manager.max_sessions,
        }

    def metrics_document(self) -> Dict[str, Any]:
        manager = self.manager
        warm_engines = 0
        delta_totals = {field: 0 for field in DELTA_STAT_FIELDS}
        maintained_violations = 0
        degraded_sessions = 0
        for hosted in manager.list():
            # per-session lock, but never *wait* for one: a scrape must
            # not hang behind a long (or wedged) verb handler.  Busy
            # sessions fall back to dirty single-attribute reads and
            # skip the engine totals — a momentary undercount in a
            # gauge, not a stalled /metrics endpoint.
            if hosted.lock.acquire(blocking=False):
                try:
                    session = hosted.session
                    engine = session.warm_engine
                    if engine is not None:
                        warm_engines += 1
                        maintained_violations += engine.total_violations()
                        for field in delta_totals:
                            delta_totals[field] += getattr(
                                engine.stats, field
                            )
                    if hosted.is_degraded:
                        degraded_sessions += 1
                finally:
                    hosted.lock.release()
            else:
                if hosted.session.warm_engine is not None:
                    warm_engines += 1
                if hosted.is_degraded:
                    degraded_sessions += 1
        document = self.metrics_document_base()
        ops_counters = self.metrics.counters_snapshot()
        document["degraded"] = {
            "threshold": self.degraded_after,
            "sessions_degraded": degraded_sessions,
            "degraded_total": ops_counters["degraded_total"],
            "handler_failures_total": ops_counters["handler_failures_total"],
            "probes_total": ops_counters["probes_total"],
            "recoveries_total": ops_counters["recoveries_total"],
            "rejected_total": ops_counters["rejected_total"],
        }
        document["snapshots"] = {
            name: ops_counters[name]
            for name in (
                "snapshot_hits_total",
                "snapshots_kept_total",
                "snapshots_dropped_total",
            )
        }
        document["edits"] = {
            name: ops_counters[name]
            for name in ("edits_inline_total", "edits_pooled_total")
        }
        document["sessions"] = {
            "open": len(manager),
            "max_sessions": manager.max_sessions,
            "created_total": manager.created_total,
            "evicted_total": manager.evicted_total,
            "closed_total": manager.closed_total,
        }
        document["engines"] = {
            "warm_delta_engines": warm_engines,
            "maintained_violations": maintained_violations,
            "delta_stats": delta_totals,
        }
        if manager.store is not None:
            durability: Dict[str, Any] = {"enabled": True}
            durability.update(manager.store.counters_snapshot())
            durability["cold_sessions"] = len(manager.cold_session_ids())
            document["durability"] = durability
        else:
            document["durability"] = {"enabled": False}
        return document

    def metrics_document_base(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "uptime_seconds": time.time() - self.started
        }
        document.update(self.metrics.snapshot())
        return document

    # -- response rendering ----------------------------------------------

    @staticmethod
    def render_json(document: Mapping[str, Any]) -> bytes:
        """The canonical wire bytes for a JSON document (enveloped)."""
        return encode(document)

    def _json_response(
        self, endpoint: str, status: int, document: Mapping[str, Any]
    ) -> Response:
        return Response(
            status,
            self.render_json(document),
            "application/json",
            endpoint=endpoint,
        )

    def _error_response(self, endpoint: str, exc: Exception) -> Response:
        """A handler exception as its JSON error document."""
        message = str(exc) if not isinstance(exc, KeyError) else repr(exc)
        body: Dict[str, Any] = {"error": message, "type": type(exc).__name__}
        if isinstance(exc, SessionDegradedError):
            body["degraded"] = exc.document
        return self._json_response(endpoint, _status_for(exc), body)

    # -- request handling --------------------------------------------------

    def handle(
        self, method: str, target: str, read_body: ReadBody, queued: float = 0.0
    ) -> Response:
        """Resolve one request end-to-end and record its metrics.

        ``queued`` is how long the transport already held the request in
        a per-session queue of its own (the asyncio front end's session
        lock); a gated verb counts it into the session's lock wait.

        Never raises: every handler exception renders as the matching
        JSON error document (transport-level I/O failures while *writing*
        the response are the transport's problem).
        """
        started = time.perf_counter()
        response = self._handle(method, target, read_body, queued)
        response.seconds = time.perf_counter() - started
        self.metrics.record(response.endpoint, response.status, response.seconds)
        return response

    def _handle(
        self, method: str, target: str, read_body: ReadBody, queued: float
    ) -> Response:
        version, rest, query = split_target(target)
        # the metrics key is the route *template* on the version-stripped
        # path (session ids → "{id}") whatever the outcome — raw paths or
        # per-version keys would grow the metrics table without bound
        # under probes against many distinct ids or /v999 prefixes
        endpoint = self._endpoint_template(method, rest)
        if version not in SUPPORTED_WIRE_VERSIONS:
            # an unknown prefix or (``None``) no prefix at all
            return self._json_response(
                endpoint, 404, unsupported_version_document(version)
            )
        try:
            if "#" in target:
                # origin form has no fragment (RFC 9112 §3.2.1)
                raise BadRequest("a request target carries no #fragment")
            endpoint, status, document = self._route(
                method, rest, query, read_body, queued
            )
            if isinstance(document, PlainText):
                return Response(
                    status,
                    document.text.encode("utf-8"),
                    document.content_type,
                    endpoint=endpoint,
                )
            if isinstance(document, bytes):
                return Response(status, document, "application/json", endpoint=endpoint)
            return self._json_response(endpoint, status, document)
        except BadRequest as exc:
            return self._json_response(
                endpoint, 400, {"error": str(exc), "type": "BadRequest"}
            )
        except Exception as exc:
            return self._error_response(endpoint, exc)

    def refuse(self, method: str, target: str, message: str) -> Response:
        """A recorded 400 ``BadRequest`` for a request the transport could
        not frame — no body was read, so no route or handler runs."""
        _version, rest, _query = split_target(target)
        endpoint = self._endpoint_template(method, rest)
        self.metrics.record(endpoint, 400, 0.0)
        return self._json_response(
            endpoint, 400, {"error": message, "type": "BadRequest"}
        )

    @staticmethod
    def _endpoint_template(method: str, path: str) -> str:
        parts = [p for p in path.split("/") if p]
        if parts and parts[0] == "sessions":
            if len(parts) == 2:
                parts = ["sessions", "{id}"]
            elif len(parts) >= 3:
                parts = ["sessions", "{id}", parts[2]]
        return f"{method} /" + "/".join(parts)

    # -- routing ---------------------------------------------------------

    def _route(
        self, method: str, path: str, query: str, read_body: ReadBody, queued: float
    ) -> RouteResult:
        """Resolve one request; returns (endpoint template, status, doc)."""
        parts = [p for p in path.split("/") if p]

        if parts == ["healthz"] and method == "GET":
            return "GET /healthz", 200, self.health_document()
        if parts == ["metrics"] and method == "GET":
            fmt = parse_qs(query).get("format", ["json"])[-1]
            if fmt not in ("json", "prometheus"):
                raise BadRequest(
                    f"unknown metrics format {fmt!r} (expected json or "
                    "prometheus)"
                )
            metrics_doc = self.metrics_document()
            if fmt == "prometheus":
                return (
                    "GET /metrics",
                    200,
                    PlainText(
                        prometheus_text(metrics_doc),
                        "text/plain; version=0.0.4; charset=utf-8",
                    ),
                )
            return "GET /metrics", 200, metrics_doc

        manager = self.manager
        if parts and parts[0] == "sessions":
            if len(parts) == 1:
                if method == "GET":
                    # lock-free by construction: ``info()`` reads dirty
                    # snapshots, so a wedged verb handler on one session
                    # cannot hang the whole enumeration
                    document: Dict[str, Any] = {
                        "sessions": [h.info() for h in manager.list()]
                    }
                    if manager.store is not None:
                        document["cold_sessions"] = manager.cold_session_ids()
                    return "GET /sessions", 200, document
                if method == "POST":
                    body = read_body() or {}
                    if not isinstance(body, Mapping):
                        raise BadRequest(
                            "session creation body must be a JSON object"
                        )
                    hosted = manager.create(body)
                    return "POST /sessions", 201, hosted.info()
            elif len(parts) == 2:
                session_id = parts[1]
                if method == "GET":
                    return (
                        "GET /sessions/{id}",
                        200,
                        manager.get(session_id).info(),
                    )
                if method == "DELETE":
                    removed = manager.remove(session_id)
                    return (
                        "DELETE /sessions/{id}",
                        200,
                        {"session": removed, "closed": True},
                    )
            elif len(parts) == 3:
                return self._route_session_verb(
                    method, parts[1], parts[2], read_body, queued
                )

        raise BadRequest(f"no route for {method} {path}")

    def _route_session_verb(
        self,
        method: str,
        session_id: str,
        verb: str,
        read_body: ReadBody,
        queued: float,
    ) -> VerbResult:
        manager = self.manager
        if verb == "diagnostics" and method == "GET":
            # ungated: diagnostics must stay readable while degraded
            while True:
                hosted = manager.get(session_id)
                try:
                    document = hosted.diagnostics()
                except Exception:
                    if hosted.closed:
                        continue  # read a dying session; re-resolve
                    raise
                if hosted.closed:
                    continue  # evicted under us; re-resolve
                return ("GET /sessions/{id}/diagnostics", 200, document)
        if verb == "rules" and method == "GET":
            # ungated read: serving the rule documents never runs the
            # engine, so it says nothing about (and needs nothing from)
            # the session's health
            while True:
                hosted = manager.get(session_id)
                with hosted.lock:
                    if hosted.closed:
                        continue  # evicted under us; re-resolve
                    return (
                        "GET /sessions/{id}/rules",
                        200,
                        {"rules": hosted.session.rules_documents()},
                    )
        if verb == "rules" and method in ("PUT", "POST"):
            body = read_body()
            return self._run_gated(
                session_id,
                lambda hosted: self._handle_rules_write(hosted, method, body),
                queued,
            )
        if method != "POST":
            raise BadRequest(
                f"no route for {method} /sessions/{{id}}/{verb}"
            )
        body = read_body()
        if verb == "detect":
            return self._run_gated(
                session_id, lambda hosted: self._handle_detect(hosted, body), queued
            )
        if verb == "apply":
            return self._run_gated(
                session_id, lambda hosted: self._handle_apply(hosted, body), queued
            )
        if verb == "undo":
            return self._run_gated(
                session_id, lambda hosted: self._handle_undo(hosted, body), queued
            )
        if verb == "repair":
            return self._run_gated(
                session_id, lambda hosted: self._handle_repair(hosted, body), queued
            )
        raise BadRequest(f"no route for POST /sessions/{{id}}/{verb}")

    # -- degraded gating ---------------------------------------------------

    def _run_gated(
        self,
        session_id: str,
        handler: Callable[[HostedSession], VerbResult],
        queued: float,
    ) -> VerbResult:
        """Resolve the session and run ``handler`` under degraded gating.

        Re-resolves when the resolved object was closed between lookup
        and lock acquisition (LRU eviction racing the request) — the
        retry lands on the rehydrated copy, or 404s if the session is
        truly gone."""
        while True:
            hosted = self.manager.get(session_id)
            result = self.gated_verb(hosted, handler, queued)
            if result is not None:
                return result

    def _probe_rejection(self, hosted: HostedSession) -> Optional[SessionDegradedError]:
        """The gate's fast 503 (counted) while a recovery probe is in
        flight, else ``None``.  Dirty read by design: the worst a race
        costs is one extra request queueing for the lock and becoming the
        next probe."""
        if not (self.degraded_after and hosted.is_degraded and hosted.probe_in_flight):
            return None
        self.metrics.count("rejected_total")
        return SessionDegradedError(
            f"session {hosted.id!r} is degraded and a recovery probe "
            "is already in flight; retry shortly",
            hosted.degraded_document(),
        )

    def reject_behind_probe(
        self, method: str, target: str, hosted: HostedSession
    ) -> Optional[Response]:
        """That 503 as a finished, recorded response — for a transport
        about to park a gated request on a lock of its own in front of
        :meth:`gated_verb`.  ``None`` means queue as usual; no verb ever
        runs from here."""
        started = time.perf_counter()
        rejection = self._probe_rejection(hosted)
        if rejection is None:
            return None
        _version, rest, _query = split_target(target)
        response = self._error_response(
            self._endpoint_template(method, rest), rejection
        )
        self.metrics.record(
            response.endpoint, response.status, time.perf_counter() - started
        )
        return response

    def gated_verb(
        self,
        hosted: HostedSession,
        handler: Callable[[HostedSession], VerbResult],
        queued: float,
    ) -> Optional[VerbResult]:
        """Run one verb handler under the session lock with degraded gating.

        A session that failed ``degraded_after`` consecutive times is
        *degraded*: the next request to reach its lock runs the verb as a
        recovery probe (a success clears the state and answers normally),
        while requests arriving during an in-flight probe are rejected
        with a fast 503 instead of queueing behind a likely-failing
        handler.  Failure accounting is 5xx-only — client errors (bad
        documents, unknown undo tokens) say nothing about session health.
        The lock is released on every path: a degraded session can never
        poison it.  The request's lock wait — ``queued`` in front of the
        core plus the wait for ``hosted.lock`` — is noted once.

        Returns ``None`` when the session object was closed before the
        lock was won — the caller (:meth:`_run_gated`) re-resolves.
        """
        threshold = self.degraded_after
        rejection = self._probe_rejection(hosted)
        if rejection is not None:
            raise rejection
        wait_from = time.perf_counter()
        with hosted.lock:
            if hosted.closed:
                return None
            hosted.note_lock_wait(queued + time.perf_counter() - wait_from)
            probing = bool(threshold) and hosted.is_degraded
            if probing:
                hosted.probe_in_flight = True
                self.metrics.count("probes_total")
            try:
                result = handler(hosted)
            except Exception as exc:
                if threshold and _status_for(exc) >= 500:
                    self.metrics.count("handler_failures_total")
                    if hosted.record_failure(str(exc), threshold):
                        self.metrics.count("degraded_total")
                    if hosted.is_degraded:
                        raise SessionDegradedError(
                            f"session {hosted.id!r} is degraded after "
                            f"{hosted.failures} consecutive failures; the "
                            f"next request probes for recovery (last "
                            f"error: {exc})",
                            hosted.degraded_document(),
                        ) from exc
                raise
            else:
                if threshold and hosted.record_success():
                    self.metrics.count("recoveries_total")
                return result
            finally:
                if probing:
                    hosted.probe_in_flight = False

    # -- verbs (all run under the hosted session's lock) -----------------

    @staticmethod
    def _handle_detect(hosted: HostedSession, body: Any) -> VerbResult:
        body = body or {}
        if not isinstance(body, Mapping):
            raise BadRequest("detect body must be a JSON object (or empty)")
        executor = engine_config_from_document(body)
        report = hosted.session.detect(executor=executor)
        endpoint = "POST /sessions/{id}/detect"
        summary = report.to_dict(include_violations=False)
        if not body.get("include_violations", True):
            return endpoint, 200, summary
        # the witness list is spliced from per-violation bytes: only the
        # violations the previous report did not have are encoded
        encoded = splice_array(
            ServiceCore.render_json(summary),
            "violations",
            hosted.fragments.encode(report.violations),
        )
        return endpoint, 200, encoded

    @staticmethod
    def _delta_document(hosted: HostedSession, delta: Any) -> Dict[str, Any]:
        from repro.session import ViolationReport

        return {
            "added": [
                ViolationReport._violation_to_dict(v) for v in delta.added
            ],
            "removed": [
                ViolationReport._violation_to_dict(v) for v in delta.removed
            ],
            "remaining": delta.remaining,
            "clean": delta.clean_after,
            "undo_token": hosted.remember_undo(delta.undo),
        }

    def _handle_apply(self, hosted: HostedSession, body: Any) -> VerbResult:
        if not isinstance(body, Mapping):
            raise BadRequest(
                "apply body must be a changeset document {\"ops\": [...]}"
            )
        changeset = Changeset.from_dict(body)
        saved_undo = hosted.undo_state()
        delta = hosted.session.apply(changeset)
        document = self._delta_document(hosted, delta)
        # WAL after the apply committed, before the response does: the
        # canonical changeset (not the raw body) replays deterministically
        try:
            hosted.persist_apply(changeset.to_dict(), document["undo_token"])
        except BaseException:
            # the record did not durably commit: roll the in-memory apply
            # back so memory, journal and the client's error response all
            # agree the write never happened (a retry is safe)
            hosted.session.apply(delta.undo)
            hosted.restore_undo_state(saved_undo)
            raise
        return "POST /sessions/{id}/apply", 200, document

    def _handle_undo(self, hosted: HostedSession, body: Any) -> VerbResult:
        if not isinstance(body, Mapping) or "token" not in body:
            raise BadRequest("undo body must be {\"token\": \"...\"}")
        token = body["token"]
        # peek, don't pop: a failed apply rolls the database back
        # (delta-engine atomicity), so the token must stay valid — and in
        # its original eviction slot — instead of burning on the attempt
        undo = hosted.peek_undo(token)
        saved_undo = hosted.undo_state()
        delta = hosted.session.apply(undo)
        hosted.consume_undo(token)
        document = self._delta_document(hosted, delta)
        try:
            hosted.persist_undo(token, document["undo_token"])
        except BaseException:
            # roll the replay back: the database reverts and the taken
            # token returns to its original eviction slot, still valid
            hosted.session.apply(delta.undo)
            hosted.restore_undo_state(saved_undo)
            raise
        return "POST /sessions/{id}/undo", 200, document

    @staticmethod
    def _handle_repair(hosted: HostedSession, body: Any) -> VerbResult:
        body = body or {}
        if not isinstance(body, Mapping):
            raise BadRequest("repair body must be a JSON object (or empty)")
        kwargs: Dict[str, Any] = {}
        if "max_passes" in body:
            kwargs["max_passes"] = int(body["max_passes"])
        if "limit" in body:
            kwargs["limit"] = int(body["limit"])
        adopt = bool(body.get("adopt", False))
        report = hosted.session.repair(
            strategy=body.get("strategy", "u"),
            adopt=adopt,
            **kwargs,
        )
        if adopt:
            # the instance the stored undo changesets were recorded
            # against is gone; replaying one on the repaired instance
            # would silently corrupt it
            hosted.clear_undo()
            hosted.fragments.clear()
            # wholesale instance swap: no changeset to WAL — capture the
            # adopted state as a fresh snapshot instead
            hosted.persist_snapshot()
        return "POST /sessions/{id}/repair", 200, report.to_dict()

    @staticmethod
    def _handle_rules_write(
        hosted: HostedSession, method: str, body: Any
    ) -> VerbResult:
        from repro.rules_json import rules_from_list, rules_to_list

        if isinstance(body, Mapping):
            documents = body.get("rules")
        else:
            documents = body
        if not isinstance(documents, (list, tuple)):
            raise BadRequest(
                "rules body must be a rules list (or {\"rules\": [...]})"
            )
        session = hosted.session
        parsed = rules_from_list(documents, session.schema)
        previous = list(session.rules)
        # fragments name rule objects this write is about to retire
        hosted.fragments.clear()
        if method == "PUT":
            session.replace_rules(parsed)
        else:
            session.add_rules(*parsed)
        try:
            hosted.persist_rules(
                rules_to_list(parsed), replace=method == "PUT"
            )
        except BaseException:
            # journal failure: put the previous rule set back so the
            # client's error response matches the session's state
            session.replace_rules(previous)
            raise
        return (
            f"{method} /sessions/{{id}}/rules",
            200,
            {"session": hosted.id, "rules": len(session.rules)},
        )


_STATUS_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def status_reason(status: int) -> str:
    """The reason phrase for a status line."""
    return _STATUS_REASONS.get(status, "Unknown")
