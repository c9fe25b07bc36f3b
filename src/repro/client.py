"""``repro.client`` — a thin stdlib client for the ``repro.server`` API.

One class, :class:`ServerClient`: every method maps to one ``/v1``
endpoint, takes the plain JSON documents described in ``docs/server.md``,
and raises :class:`ServerError` (with the HTTP status and the server's
error text) on any non-2xx response — so the registry's error messages
(unknown constraint tags, malformed changesets, schema mismatches)
surface verbatim on the client side.

The constructor is keyword-only::

    client = ServerClient(base_url="http://127.0.0.1:8765",
                          timeout=30.0, retries=2)
    client.create_session(schema={...}, rules=[...], data={"customer": rows},
                          session_id="crm")
    report = client.detect("crm")                    # the CLI's JSON doc
    delta = client.apply("crm", {"ops": [...]})      # delta + undo token
    client.undo("crm", delta.undo_token)
    client.delete_session("crm")

Every request is sent to the versioned ``/v1`` mount and every response
body arrives in the versioned envelope ``{"wire_version": 1, ...}``.  The
client strips the envelope: returned documents carry the payload keys
only (byte-compatible with the offline CLI's documents) and expose the
stripped version as a ``.wire_version`` attribute — returns are *typed*
:class:`WireDocument` subclasses (still plain ``dict`` subclasses, so
``json.dumps``/key access keep working) with properties for the fields
each endpoint guarantees.

**Transport.**  Plain HTTP/1.1, as the server speaks it (no TLS, so
``base_url`` is ``http://host[:port]``; no proxy, no redirects).  Every
request leaves through one function, :func:`urlopen`, as one
``sendall`` of a minimal head plus the body on the *calling thread's*
socket, parked between requests; a response body must be framed by
``Content-Length``, and any other framing is a transport failure.  A
session id the server would refuse at create — one holding ``/``,
``?``, ``#``, whitespace, a control character or a character outside
Latin-1 — is refused before anything is sent: it would address another
resource, or split the request line.  The socket belongs to the
thread, not to the :class:`ServerClient`, so a client object stays
stateless — it can be shared between threads, and there is nothing to
close: a thread that ends closes its socket with it.  A parked socket
the peer closed while it sat idle (a server stop, a SIGKILL), one to
another origin, or one whose last response said ``Connection: close``
is not reused.  A request whose send or read fails is **never sent a
second time** beneath :func:`urlopen` — ``apply`` is not idempotent —
it surfaces as a retriable :class:`ServerError` and the caller's
``retries=`` decides.

With ``retries=N`` the client retransmits a failed request up to ``N``
times when — and only when — the failure is *retriable*
(``ServerError.retriable``: transport failures and 502/503/504), sleeping
``backoff * 2**attempt`` between attempts.  The default is ``retries=0``:
verbs like ``apply`` are not idempotent, so opting into retransmission is
the caller's call.

Every JSON body is decoded by :func:`repro.jsondecode.loads`: orjson
where it returns exactly what ``json.loads`` does, ``json.loads`` for the
rest (integers past 64 bits, NaN, lone surrogates), and a 2xx body that
does not decode — not JSON, not UTF-8, nested too deep — is a retriable
:class:`ServerError`.  Request bodies are encoded by ``json.dumps``.
orjson is the one third-party dependency; nothing is imported from
:mod:`repro.server` or numpy.  Used by the test suite, the CI packaging
round-trip, ``benchmarks/e2e`` and ``repro soak``.
"""

from __future__ import annotations

import io
import json
import os
import re
import select
import socket
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union
from urllib.error import HTTPError, URLError
from urllib.parse import urlsplit
from urllib.request import Request

from repro.errors import ReproError
from repro.jsondecode import DecodeError, loads

__all__ = [
    "ServerClient",
    "ServerError",
    "WireDocument",
    "HealthDocument",
    "SessionInfoDocument",
    "DeltaDocument",
    "DetectDocument",
    "RepairDocument",
]

#: HTTP statuses that signal a transient server-side condition: the request
#: may well succeed if simply retried (503 is what degraded sessions answer).
_RETRIABLE_STATUSES = frozenset({502, 503, 504})

_JSON = "application/json"


class ServerError(ReproError):
    """A non-2xx response from the server (or no response at all).

    ``status`` is the HTTP status code (0 when the server was unreachable),
    ``kind`` the server-side exception class name when one was reported,
    ``document`` the parsed error body (``{}`` when there was none, with
    the envelope's ``wire_version`` stripped into the attribute of the
    same name), and ``retriable`` whether retrying the same request can
    plausibly succeed: transport failures (connection refused/reset, torn
    responses) and 502/503/504 responses are retriable, everything else
    is not.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        kind: str = "",
        retriable: Optional[bool] = None,
        document: Optional[Mapping[str, Any]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.document: Dict[str, Any] = dict(document or {})
        self.wire_version: Optional[int] = self.document.pop(
            "wire_version", None
        )
        if retriable is None:
            retriable = status == 0 or status in _RETRIABLE_STATUSES
        self.retriable = retriable


# --------------------------------------------------------------------------
# Transport: HTTP/1.1 over one parked socket per thread
# --------------------------------------------------------------------------

#: ``http.client``'s caps on a response head: header lines, bytes a line.
_MAX_HEADERS = 100
_MAX_LINE = 65536
#: A final status: no 1xx answer is ever asked for.
_STATUS_LINE = re.compile(r"HTTP/1\.[01] ([2-9][0-9][0-9])(?: (.*))?")


class _BadResponse(Exception):
    """A response that is not one framed HTTP/1.1 answer."""


class _Parked:
    """A socket to ``origin`` that closes with whoever held the last
    reference: the slot of a thread that ended, or a failed request."""

    def __init__(self, origin: str, sock: socket.socket) -> None:
        self.sock = sock
        self.origin = origin
        self.poller = select.poll()
        self.poller.register(sock, select.POLLIN)

    def __del__(self) -> None:
        self.sock.close()


def _read_response(
    sock: socket.socket,
) -> Tuple[int, str, Dict[str, str], bytes, bool]:
    """Status, reason, headers (lower-cased names), body, and whether the
    socket may carry the next request.  The body must be framed by
    ``Content-Length``, as every ``repro serve`` answer is; any other
    framing is refused."""
    buffer = bytearray()
    pos = 0

    def line() -> str:
        nonlocal pos
        while (end := buffer.find(b"\n", pos, pos + _MAX_LINE)) < 0:
            if len(buffer) - pos >= _MAX_LINE:
                raise _BadResponse(f"a head line is over {_MAX_LINE} bytes")
            chunk = sock.recv(65536)
            if not chunk:
                raise _BadResponse("the peer closed before the head ended")
            buffer.extend(chunk)
        start = pos
        pos = end + 1
        return buffer[start:end].rstrip(b"\r").decode("latin-1")

    status_line = line()
    status = _STATUS_LINE.fullmatch(status_line)
    if status is None:
        raise _BadResponse(f"malformed status line {status_line[:80]!r}")
    code, reason = status.groups()
    fields = []
    while field := line():
        if len(fields) == _MAX_HEADERS:
            raise _BadResponse(f"the head has more than {_MAX_HEADERS} header lines")
        fields.append(field.partition(":"))
    headers = {name.lower(): value.strip() for name, _, value in fields}
    if "transfer-encoding" in headers:
        raise _BadResponse("Transfer-Encoding is not supported")
    tokens = headers.get("connection", "").lower().split(",")
    close = "close" in map(str.strip, tokens)
    declared = headers.get("content-length", "")
    if not (declared.isascii() and declared.isdigit()):
        raise _BadResponse(f"the body has no Content-Length ({declared!r})")
    rest = buffer[pos:]
    missing = int(declared) - len(rest)
    close = close or missing < 0  # bytes past the body: keep it, not the socket
    chunks = [rest[: int(declared)]]
    while missing > 0:
        chunk = sock.recv(min(missing, 1 << 20))
        if not chunk:
            raise _BadResponse(
                f"the body ended {missing} bytes short of its Content-Length"
            )
        chunks.append(chunk)
        missing -= len(chunk)
    return int(code), reason or "", headers, b"".join(chunks), not close


#: The calling thread's parked socket, taken out for each request.
_slot = threading.local()


def _claim() -> Optional[_Parked]:
    parked: Optional[_Parked] = getattr(_slot, "parked", None)
    _slot.parked = None
    return parked


# A forked child holds a copy of the parent's socket, not its
# conversation: claiming the copy drops, and so closes, it (the parent's
# end is unaffected).
os.register_at_fork(after_in_child=_claim)


def _exchange(
    request: Request, timeout: float
) -> Tuple[int, str, Dict[str, str], bytes]:
    """One request written, one response read, on the calling thread's
    socket.  The socket is taken *out* of the thread's slot and put back
    only once a response was read whole and framed, so it is never
    shared, a failed exchange leaves nothing to reuse, and every request
    is written exactly once."""
    parked = _claim()
    # readable while parked: the peer closed it (a stop, a SIGKILL) or
    # sent bytes no request asked for; nothing may go out on it
    if parked is not None and (
        parked.origin != request.host or parked.poller.poll(0)
    ):
        parked.sock.close()
        parked = None
    if parked is None:
        address = urlsplit(request.full_url)
        try:
            sock = socket.create_connection(
                (address.hostname, address.port or 80), timeout
            )
        except OSError as err:  # refused, unresolvable, timed out
            raise URLError(err) from None
        parked = _Parked(request.host, sock)
    lines = [
        f"{request.get_method()} {request.selector} HTTP/1.1",
        f"Host: {request.host}",
        *(f"{name.title()}: {value}" for name, value in request.header_items()),
    ]
    if request.data is not None:  # a GET or a DELETE frames no body
        lines.append(f"Content-Length: {len(request.data)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    try:
        if parked.sock.gettimeout() != timeout:
            parked.sock.settimeout(timeout)
        parked.sock.sendall(head + (request.data or b""))
        status, reason, headers, body, reusable = _read_response(parked.sock)
    except BaseException:
        parked.sock.close()
        raise
    if reusable:
        _slot.parked = parked
    else:
        parked.sock.close()
    return status, reason, headers, body


def urlopen(request: Request, timeout: float) -> io.BytesIO:
    """The one function every request leaves through (and the seam a
    test substitutes): ``urllib.request.urlopen``'s contract for plain
    ``http`` — the body as a file on a 2xx, ``HTTPError`` on any other
    status, ``URLError`` when the connect fails.  The ``HTTPError`` is
    raised out of the frame that held the socket, so an error a caller
    keeps does not keep the socket open."""
    status, reason, headers, body = _exchange(request, timeout)
    if 200 <= status < 300:
        return io.BytesIO(body)
    raise HTTPError(request.full_url, status, reason, headers, io.BytesIO(body))


#: What a session id may not hold, as the server refuses it at create:
#: what ends a path segment ("/", "?", "#"), whitespace or a control
#: character (a space would cut the request target short, a CR/LF start a
#: second request on the socket), or what a Latin-1 request line cannot
#: carry.
_UNADDRESSABLE = re.compile(r"[/?#\s\x00-\x1f\x7f-\x9f]|[^\x00-\xff]")


def _addressable(session_id: str) -> str:
    """``session_id``, or a non-retriable :class:`ServerError` — raised
    before anything is sent — for an id no request path can carry."""
    found = _UNADDRESSABLE.search(str(session_id))
    if found is not None:
        raise ServerError(
            f"session id {session_id!r} holds {found.group()!r}: a session id, "
            "like any request path, may not hold spaces or control characters, "
            "nor '/', '?', '#' or a character outside Latin-1",
            retriable=False,
        )
    return session_id


def _session_path(session_id: str, verb: str = "") -> str:
    return f"/sessions/{_addressable(session_id)}{verb}"


# --------------------------------------------------------------------------
# Typed response documents
# --------------------------------------------------------------------------


class WireDocument(Dict[str, Any]):
    """A response payload: a plain ``dict`` of the document keys plus the
    envelope's ``wire_version`` as an attribute.

    Subclasses add read-only properties for the fields their endpoint
    guarantees; everything stays a ``dict`` so existing key-access call
    sites, ``json.dumps(..., default=str)`` round-trips and byte-compare
    harnesses keep working unchanged.
    """

    def __init__(
        self, document: Mapping[str, Any], wire_version: Optional[int] = None
    ) -> None:
        super().__init__(document)
        self.wire_version = wire_version


class HealthDocument(WireDocument):
    """``GET /v1/healthz``."""

    @property
    def status(self) -> str:
        return str(self["status"])

    @property
    def sessions(self) -> int:
        return int(self["sessions"])


class SessionInfoDocument(WireDocument):
    """A session info document (create / info / list entries)."""

    @property
    def session_id(self) -> str:
        return str(self["session"])

    @property
    def degraded(self) -> bool:
        return bool(self["degraded"])

    @property
    def undo_tokens(self) -> List[str]:
        return list(self.get("undo_tokens", []))


class DeltaDocument(WireDocument):
    """A violation delta (``apply`` / ``undo``):
    added/removed/remaining/clean plus the stored undo token."""

    @property
    def undo_token(self) -> str:
        return str(self["undo_token"])

    @property
    def clean(self) -> bool:
        return bool(self["clean"])

    @property
    def added(self) -> List[Dict[str, Any]]:
        return list(self["added"])

    @property
    def removed(self) -> List[Dict[str, Any]]:
        return list(self["removed"])

    @property
    def remaining(self) -> int:
        return int(self["remaining"])


class DetectDocument(WireDocument):
    """``POST /v1/sessions/{id}/detect`` — the CLI's ``--format json``
    detection document."""

    @property
    def clean(self) -> bool:
        # the detection document carries counts, not a "clean" flag
        return int(self["total"]) == 0

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return list(self.get("violations", []))


class RepairDocument(WireDocument):
    """``POST /v1/sessions/{id}/repair``."""

    @property
    def strategy(self) -> str:
        return str(self["strategy"])


class ServerClient:
    """Client for one ``repro.server`` instance at ``base_url``."""

    def __init__(
        self,
        *,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        address = urlsplit(self.base_url)
        address.port  # a malformed port is a ValueError here, not at a request
        if (
            self.base_url != f"http://{address.netloc}"
            or not address.hostname
            or "@" in address.netloc
        ):
            raise ValueError(
                f"base_url must be http://host[:port], got {base_url!r}: "
                "the server speaks plain HTTP, with no TLS (docs/server.md)"
            )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -- plumbing --------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        cls: Type[WireDocument] = WireDocument,
        accept: str = _JSON,
    ) -> Any:
        """One wire round-trip (plus opt-in retransmission).

        Prefixes the versioned mount, strips the response envelope into
        ``cls(..., wire_version=...)`` — or, for any ``accept`` but JSON,
        returns the body as text — and, when ``retries > 0``, retransmits
        retriable failures with exponential backoff.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, cls, accept)
            except ServerError as exc:
                if not exc.retriable or attempt >= self.retries:
                    raise
                time.sleep(self.backoff * (2**attempt))
                attempt += 1

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]],
        cls: Type[WireDocument],
        accept: str,
    ) -> Any:
        url = f"{self.base_url}/v1{path}"
        data = None
        headers = {"Accept": accept}
        if body is not None:
            data = json.dumps(body, default=str).encode("utf-8")
            headers["Content-Type"] = _JSON
        request = Request(url, data=data, headers=headers, method=method)
        try:
            with urlopen(request, timeout=self.timeout) as response:
                raw = response.read()
        except HTTPError as exc:
            raw = exc.read()
            try:
                error_doc = loads(raw)
            except DecodeError:
                error_doc = None
            document = error_doc if isinstance(error_doc, dict) else {}
            text = raw.decode("utf-8", "replace") or str(exc)
            raise ServerError(
                f"{method} {path} -> {exc.code}: {document.get('error', text)}",
                status=exc.code,
                kind=document.get("type", ""),
                document=document,
            ) from None
        except URLError as exc:
            raise ServerError(
                f"{method} {path}: server unreachable at {self.base_url} "
                f"({exc.reason})",
                retriable=True,
            ) from None
        except (_BadResponse, OSError) as exc:
            # a failure *after* the connection is up (a reset, a timeout,
            # a torn or unframed response) — same failure class as URLError
            raise ServerError(
                f"{method} {path}: transport failure talking to "
                f"{self.base_url} ({exc!r})",
                retriable=True,
            ) from None
        try:
            parsed = loads(raw) if accept == _JSON else raw.decode("utf-8")
        except ValueError as exc:  # DecodeError, or text that is not UTF-8
            # A 2xx body that does not decode (a peer that is not a repro
            # server) is a transport failure, not a client bug.
            raise ServerError(
                f"{method} {path}: undecodable response from "
                f"{self.base_url} ({exc})",
                retriable=True,
            ) from None
        if not isinstance(parsed, dict):
            return parsed
        wire_version = parsed.pop("wire_version", None)
        return cls(parsed, wire_version=wire_version)

    # -- service ---------------------------------------------------------

    def healthz(self) -> HealthDocument:
        return self._request("GET", "/healthz", cls=HealthDocument)

    def metrics(self) -> WireDocument:
        return self._request("GET", "/metrics")

    def prometheus_metrics(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — text exposition."""
        return self._request(
            "GET", "/metrics?format=prometheus", accept="text/plain"
        )

    def wait_ready(
        self, attempts: int = 50, delay: float = 0.1
    ) -> HealthDocument:
        """Poll ``/healthz`` until the server answers (boot synchronizer).

        Only *retriable* failures (connection refused while the listener
        boots, transient 503s) keep the poll going; a definitive error —
        say a 404 because the URL points at something else entirely — is
        raised immediately.
        """
        last: Optional[ServerError] = None
        for _ in range(attempts):
            try:
                return self.healthz()
            except ServerError as exc:
                if not exc.retriable:
                    raise
                last = exc
                time.sleep(delay)
        raise ServerError(
            f"server at {self.base_url} not ready after "
            f"{attempts * delay:.1f}s: {last}"
        )

    # -- session lifecycle -----------------------------------------------

    def list_sessions(self) -> List[SessionInfoDocument]:
        """Info documents for the *resident* (warm) sessions.

        On a durable server evicted sessions are not listed here — they
        are still recoverable; see :meth:`cold_sessions`."""
        listing = self._request("GET", "/sessions")
        return [
            SessionInfoDocument(entry, wire_version=listing.wire_version)
            for entry in listing["sessions"]
        ]

    def cold_sessions(self) -> List[str]:
        """Durable session ids on disk but not resident (durable servers
        only; empty when the server runs without ``--state-dir``).  Any
        verb against one of these ids rehydrates it transparently."""
        return self._request("GET", "/sessions").get("cold_sessions", [])

    def create_session(
        self,
        schema: Union[Mapping[str, Any], str],
        rules: Union[Sequence[Mapping[str, Any]], str, None] = None,
        data: Optional[Mapping[str, Any]] = None,
        session_id: Optional[str] = None,
    ) -> SessionInfoDocument:
        """Create a hosted session; returns its info document.

        ``schema``/``rules``/``data`` values may be inline documents (row
        lists for data) or server-side paths, exactly as the endpoint
        accepts them.  The body names the one detection path,
        ``{"engine": {"executor": "indexed"}}``, which selects nothing.
        """
        body: Dict[str, Any] = {"schema": schema, "engine": {"executor": "indexed"}}
        if rules is not None:
            body["rules"] = rules
        if data is not None:
            body["data"] = data
        if session_id is not None:
            body["id"] = _addressable(session_id)
        return self._request(
            "POST", "/sessions", body, cls=SessionInfoDocument
        )

    def session_info(self, session_id: str) -> SessionInfoDocument:
        return self._request(
            "GET", _session_path(session_id), cls=SessionInfoDocument
        )

    def diagnostics(self, session_id: str) -> WireDocument:
        """Per-session diagnostics: engine/delta stats, lock waits,
        durability generation and WAL depth, degraded state."""
        return self._request("GET", _session_path(session_id, "/diagnostics"))

    def delete_session(self, session_id: str) -> WireDocument:
        return self._request("DELETE", _session_path(session_id))

    # -- verbs -----------------------------------------------------------

    def detect(
        self,
        session_id: str,
        include_violations: bool = True,
    ) -> DetectDocument:
        """Run detection; returns the CLI's ``--format json`` document."""
        body = {"include_violations": include_violations}
        return self._request(
            "POST", _session_path(session_id, "/detect"), body, cls=DetectDocument
        )

    def apply(
        self, session_id: str, changeset: Mapping[str, Any]
    ) -> DeltaDocument:
        """Apply a changeset document; returns the violation delta document
        (``added``/``removed``/``remaining``/``clean``/``undo_token``)."""
        return self._request(
            "POST", _session_path(session_id, "/apply"), changeset,
            cls=DeltaDocument,
        )

    def undo(self, session_id: str, token: str) -> DeltaDocument:
        """Replay a stored undo token (single-use)."""
        return self._request(
            "POST", _session_path(session_id, "/undo"), {"token": token},
            cls=DeltaDocument,
        )

    def repair(
        self,
        session_id: str,
        strategy: str = "u",
        adopt: bool = False,
        **options: Any,
    ) -> RepairDocument:
        body: Dict[str, Any] = {"strategy": strategy, "adopt": adopt}
        body.update(options)
        return self._request(
            "POST", _session_path(session_id, "/repair"), body, cls=RepairDocument
        )

    def get_rules(self, session_id: str) -> List[Dict[str, Any]]:
        return self._request("GET", _session_path(session_id, "/rules"))["rules"]

    def set_rules(
        self, session_id: str, rules: Sequence[Mapping[str, Any]]
    ) -> WireDocument:
        """Replace the session's rule set with ``rules`` documents."""
        return self._request(
            "PUT", _session_path(session_id, "/rules"), {"rules": list(rules)}
        )

    def add_rules(
        self, session_id: str, rules: Sequence[Mapping[str, Any]]
    ) -> WireDocument:
        """Append ``rules`` documents to the session's rule set."""
        return self._request(
            "POST", _session_path(session_id, "/rules"), {"rules": list(rules)}
        )

    def __repr__(self) -> str:
        return f"ServerClient(base_url={self.base_url!r})"
