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
unrouted requests never pay the parse, and :func:`body_reader` makes one
that parses once however often it is called.

The core dispatches on a :class:`Route` — the target parsed once, and
its row of the one route table :data:`_ROUTES` — and a transport takes
its lock, probe and snapshot decisions off the same ``Route``.
"""

from __future__ import annotations

import time
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.engine.config import check_engine
from repro.engine.delta import Changeset, StaleEngineError
from repro.errors import (
    DependencyError,
    DomainError,
    RepairError,
    ReproError,
    SchemaError,
)
from repro.jsondecode import DecodeError, loads
from repro.server.hosting import (
    DuplicateSessionError,
    HostedSession,
    ServerMetrics,
    SessionDegradedError,
    SessionManager,
    UnknownSessionError,
)
from repro.server.metrics import DELTA_STAT_FIELDS, OPS_COUNTERS, prometheus_text
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
    "Route",
    "ServiceCore",
    "Verb",
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


#: a handler answers with a status and a document, or bytes it encoded
VerbResult = Tuple[int, Union[Dict[str, Any], bytes]]
RouteResult = Tuple[int, Union[Dict[str, Any], bytes, PlainText]]
ReadBody = Callable[[], Any]


def parse_body_bytes(raw: bytes) -> Any:
    """Parse a request body (what a transport's ``read_body`` thunk calls)."""
    if not raw:
        return None
    try:
        return loads(raw)
    except DecodeError as exc:  # not JSON, not UTF-8, or nested too deep
        raise BadRequest(f"request body is not valid JSON: {exc}") from exc


def body_reader(raw: bytes) -> ReadBody:
    """The ``read_body`` of one request: parses ``raw`` on its first call
    and hands back that document on every later one, so a request that is
    keyed, answered and cached parses its body once.  A body that does not
    parse raises on every call."""
    parsed: List[Any] = []

    def read_body() -> Any:
        if not parsed:
            parsed.append(parse_body_bytes(raw))
        return parsed[0]

    return read_body


def _strict_body(
    what: str, body: Any, fields: AbstractSet[str], flags: Tuple[str, ...] = ()
) -> Mapping[str, Any]:
    """``body`` read strictly: a JSON object (no body is ``{}``) with no
    key outside ``fields`` and a JSON boolean under every ``flags`` key,
    else a :class:`BadRequest` naming the field — an ignored key or a
    truthy string would let a typo change what the verb does.  An engine
    object is checked first, so a retired key is refused in its own words."""
    if body is None:
        body = {}
    if not isinstance(body, Mapping):
        raise BadRequest(f"{what} body must be a JSON object")
    if "engine" in fields:
        check_engine(body)
    unknown = sorted(set(body) - fields)
    if unknown:
        raise BadRequest(
            f"unknown {what} field(s) {unknown}; expected some of {sorted(fields)}"
        )
    for flag in flags:
        if not isinstance(body.get(flag, False), bool):
            raise BadRequest(
                f"{what} field {flag!r} must be true or false, got {body[flag]!r}"
            )
    return body


def _lists_violations(body: Any) -> bool:
    """Whether a detect body asks for the witness list: the one parse the
    snapshot key and the handler share."""
    fields = {"engine", "include_violations"}
    detect = _strict_body("detect", body, fields, ("include_violations",))
    return bool(detect.get("include_violations", True))


def _detect_key(read_body: ReadBody) -> Optional[tuple]:
    """A detect's cache key — whether it lists violations — or ``None``
    for a body the handler refuses (it answers that uncached)."""
    try:
        return ("detect", _lists_violations(read_body()))
    except Exception:
        return None


class Verb(NamedTuple):
    """One row of the route table: the handler, and what a transport does
    around it."""

    #: the :class:`ServiceCore` method answering it, looked up per request
    handler: str
    #: runs under the degraded gate, on the hosted session's lock
    gated: bool = False
    #: changes the session: its completion ends the session's snapshot
    writes: bool = False
    #: an ``apply`` / ``undo``: the delta engine can vouch that it left
    #: the report as it was, and the snapshot then outlives it
    edit: bool = False
    #: a read the snapshot layer answers from cached bytes: its key function
    cache: Optional[Callable[[ReadBody], Optional[tuple]]] = None

    @property
    def serialized(self) -> bool:
        """Whether a transport queues it on a lock of the session's own:
        every write, and every cached read (publication must be raceless)."""
        return self.writes or self.cache is not None


def _route_key(endpoint: str) -> Tuple[str, Tuple[str, ...]]:
    method, _, path = endpoint.partition(" /")
    return method, tuple(path.split("/"))


#: every route the service answers, by its metrics endpoint: the one list
#: the core dispatches on and a transport takes its decisions from
_ROUTES: Dict[Tuple[str, Tuple[str, ...]], Verb] = {
    _route_key(endpoint): verb
    for endpoint, verb in {
        "GET /healthz": Verb("_health"),
        "GET /metrics": Verb("_metrics"),
        "GET /sessions": Verb("_list_sessions"),
        "POST /sessions": Verb("_create_session"),
        "GET /sessions/{id}": Verb("_session_info"),
        "DELETE /sessions/{id}": Verb("_remove_session", writes=True),
        "GET /sessions/{id}/diagnostics": Verb("_diagnostics"),
        "GET /sessions/{id}/rules": Verb(
            "_rules", cache=lambda read_body: ("rules",)
        ),
        "PUT /sessions/{id}/rules": Verb(
            "_handle_rules_put", gated=True, writes=True
        ),
        "POST /sessions/{id}/rules": Verb(
            "_handle_rules_post", gated=True, writes=True
        ),
        "POST /sessions/{id}/detect": Verb(
            "_handle_detect", gated=True, cache=_detect_key
        ),
        "POST /sessions/{id}/apply": Verb(
            "_handle_apply", gated=True, writes=True, edit=True
        ),
        "POST /sessions/{id}/undo": Verb(
            "_handle_undo", gated=True, writes=True, edit=True
        ),
        "POST /sessions/{id}/repair": Verb(
            "_handle_repair", gated=True, writes=True
        ),
    }.items()
}


class Route:
    """One request, its target parsed once (:func:`split_target`).

    ``verb`` is the :data:`_ROUTES` row the request names — ``None`` for
    an unsupported version prefix, a target carrying a ``#fragment``, and
    any method and path the table lacks — and ``session_id`` the id of a
    ``/sessions/{id}/...`` path (``""`` for any other).  The core
    dispatches on ``verb``; a transport takes its lock, gate and snapshot
    decisions off the same row.  ``endpoint``, the metrics key, is built
    when read.
    """

    __slots__ = (
        "method",
        "version",
        "parts",
        "query",
        "fragment",
        "session_id",
        "template",
        "verb",
    )

    def __init__(self, method: str, target: str) -> None:
        version, parts, query = split_target(target)
        self.method = method
        self.version = version
        self.parts = parts
        self.query = query
        self.fragment = "#" in target
        if len(parts) > 1 and parts[0] == "sessions":
            self.session_id = parts[1]
            # session ids -> "{id}" and nothing past the verb: a key per
            # raw path would grow the metrics table without bound under
            # probes against many distinct ids
            template: Tuple[str, ...] = ("sessions", "{id}", *parts[2:3])
        else:
            self.session_id = ""
            template = tuple(parts)
        self.template = template
        routed = (
            version in SUPPORTED_WIRE_VERSIONS
            and not self.fragment
            and len(template) == len(parts)
        )
        self.verb = _ROUTES.get((method, template)) if routed else None

    @property
    def endpoint(self) -> str:
        """The metrics key: the route template on the version-stripped
        path, whatever the outcome (so an unknown ``/v999`` prefix adds no
        key of its own either)."""
        return f"{self.method} /" + "/".join(self.template)

    def snapshot_key(self, read_body: ReadBody) -> Optional[tuple]:
        """The snapshot-cache key of this request, or ``None`` when it may
        neither hit nor publish: not a cached read, a query string, or a
        body its key function turns down."""
        verb = self.verb
        if verb is None or verb.cache is None or self.query:
            return None
        return verb.cache(read_body)


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
        counters = self.metrics.counters_snapshot()
        sections = {
            section: {name: counters[name] for name in names}
            for section, names in OPS_COUNTERS.items()
        }
        document["degraded"] = {
            "threshold": self.degraded_after,
            "sessions_degraded": degraded_sessions,
            **sections["degraded"],
        }
        document["snapshots"] = sections["snapshots"]
        document["edits"] = sections["edits"]
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
        response = self._handle(Route(method, target), read_body, queued)
        response.seconds = time.perf_counter() - started
        self.metrics.record(response.endpoint, response.status, response.seconds)
        return response

    def _handle(self, route: Route, read_body: ReadBody, queued: float) -> Response:
        endpoint = route.endpoint
        if route.version not in SUPPORTED_WIRE_VERSIONS:
            # an unknown prefix or (``None``) no prefix at all
            return self._json_response(
                endpoint, 404, unsupported_version_document(route.version)
            )
        try:
            verb = route.verb
            if verb is None:
                raise BadRequest(self._no_route(route, read_body))
            handler = getattr(self, verb.handler)
            if verb.gated:
                body = read_body()
                status, document = self._run_gated(
                    route.session_id, lambda hosted: handler(hosted, body), queued
                )
            else:
                status, document = handler(route, read_body)
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
        except Exception as exc:
            return self._error_response(endpoint, exc)

    def refuse(self, route: Route, message: str) -> Response:
        """A recorded 400 ``BadRequest`` for a request the transport could
        not frame — no body was read, so no route or handler runs."""
        self.metrics.record(route.endpoint, 400, 0.0)
        return self._json_response(
            route.endpoint, 400, {"error": message, "type": "BadRequest"}
        )

    # -- routing: the ungated handlers take (route, read_body) ------------

    @staticmethod
    def _no_route(route: Route, read_body: ReadBody) -> str:
        """Why a request of a supported version names no route."""
        if route.fragment:
            # origin form has no fragment (RFC 9112 §3.2.1)
            return "a request target carries no #fragment"
        if route.session_id and len(route.parts) == 3:
            if route.method == "POST":
                read_body()  # a malformed body is named before the verb
            return f"no route for {route.endpoint}"
        return f"no route for {route.method} /" + "/".join(route.parts)

    def _health(self, route: Route, read_body: ReadBody) -> RouteResult:
        return 200, self.health_document()

    def _metrics(self, route: Route, read_body: ReadBody) -> RouteResult:
        fmt = parse_qs(route.query).get("format", ["json"])[-1]
        if fmt not in ("json", "prometheus"):
            raise BadRequest(
                f"unknown metrics format {fmt!r} (expected json or prometheus)"
            )
        document = self.metrics_document()
        if fmt == "prometheus":
            return 200, PlainText(
                prometheus_text(document),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        return 200, document

    def _list_sessions(self, route: Route, read_body: ReadBody) -> RouteResult:
        # lock-free by construction: ``info()`` reads dirty snapshots, so
        # a wedged verb handler on one session cannot hang the enumeration
        manager = self.manager
        document: Dict[str, Any] = {"sessions": [h.info() for h in manager.list()]}
        if manager.store is not None:
            document["cold_sessions"] = manager.cold_session_ids()
        return 200, document

    def _create_session(self, route: Route, read_body: ReadBody) -> RouteResult:
        body = _strict_body(
            "session creation", read_body(), {"id", "schema", "rules", "data", "engine"}
        )
        return 201, self.manager.create(body).info()

    def _session_info(self, route: Route, read_body: ReadBody) -> RouteResult:
        return 200, self.manager.get(route.session_id).info()

    def _remove_session(self, route: Route, read_body: ReadBody) -> RouteResult:
        removed = self.manager.remove(route.session_id)
        return 200, {"session": removed, "closed": True}

    def _diagnostics(self, route: Route, read_body: ReadBody) -> RouteResult:
        # ungated: diagnostics must stay readable while degraded
        while True:
            hosted = self.manager.get(route.session_id)
            try:
                document = hosted.diagnostics()
            except Exception:
                if hosted.closed:
                    continue  # read a dying session; re-resolve
                raise
            if hosted.closed:
                continue  # evicted under us; re-resolve
            return 200, document

    def _rules(self, route: Route, read_body: ReadBody) -> RouteResult:
        # ungated read: serving the rule documents never runs the engine,
        # so it says nothing about (and needs nothing from) the session's
        # health
        while True:
            hosted = self.manager.get(route.session_id)
            with hosted.lock:
                if hosted.closed:
                    continue  # evicted under us; re-resolve
                return 200, {"rules": hosted.session.rules_documents()}

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
        self, route: Route, hosted: HostedSession
    ) -> Optional[Response]:
        """That 503 as a finished, recorded response — for a transport
        about to park a gated request on a lock of its own in front of
        :meth:`gated_verb`.  ``None`` means queue as usual; no verb ever
        runs from here."""
        started = time.perf_counter()
        rejection = self._probe_rejection(hosted)
        if rejection is None:
            return None
        response = self._error_response(route.endpoint, rejection)
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
        lists_violations = _lists_violations(body)
        # every served report is the delta engine's: the first read builds
        # it, so the report epoch names whatever a snapshot caches
        hosted.session.engine
        report = hosted.session.detect()
        summary = report.to_dict(include_violations=False)
        if not lists_violations:
            return 200, summary
        # the witness list is spliced from per-violation bytes: only the
        # violations the previous report did not have are encoded
        encoded = splice_array(
            ServiceCore.render_json(summary),
            "violations",
            hosted.fragments.encode(report.violations),
        )
        return 200, encoded

    @staticmethod
    def _delta_document(delta: Any, token: str) -> Dict[str, Any]:
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
            "undo_token": token,
        }

    def _handle_apply(self, hosted: HostedSession, body: Any) -> VerbResult:
        changeset = Changeset.from_dict(_strict_body("apply", body, {"ops"}))
        return 200, self._delta_document(*hosted.apply(changeset))

    def _handle_undo(self, hosted: HostedSession, body: Any) -> VerbResult:
        body = _strict_body("undo", body, {"token"})
        if "token" not in body:
            raise BadRequest("undo body must be {\"token\": \"...\"}")
        return 200, self._delta_document(*hosted.undo(body["token"]))

    @staticmethod
    def _handle_repair(hosted: HostedSession, body: Any) -> VerbResult:
        body = _strict_body(
            "repair", body, {"strategy", "adopt", "max_passes", "limit"}, ("adopt",)
        )
        kwargs: Dict[str, Any] = {}
        if "max_passes" in body:
            kwargs["max_passes"] = int(body["max_passes"])
        if "limit" in body:
            kwargs["limit"] = int(body["limit"])
        report = hosted.repair(
            body.get("strategy", "u"), body.get("adopt", False), **kwargs
        )
        return 200, report.to_dict()

    def _handle_rules_put(self, hosted: HostedSession, body: Any) -> VerbResult:
        return self._handle_rules_write(hosted, body, replace=True)

    def _handle_rules_post(self, hosted: HostedSession, body: Any) -> VerbResult:
        return self._handle_rules_write(hosted, body, replace=False)

    @staticmethod
    def _handle_rules_write(
        hosted: HostedSession, body: Any, replace: bool
    ) -> VerbResult:
        from repro.rules_json import rules_from_list

        if isinstance(body, (list, tuple)):
            documents = body
        else:
            documents = _strict_body("rules", body, {"rules"}).get("rules")
        if not isinstance(documents, (list, tuple)):
            raise BadRequest(
                "rules body must be a rules list (or {\"rules\": [...]})"
            )
        hosted.write_rules(rules_from_list(documents, hosted.session.schema), replace)
        return 200, {"session": hosted.id, "rules": len(hosted.session.rules)}


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
