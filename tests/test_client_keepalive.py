"""The stock client's transport: one parked connection per calling thread.

Count guards, not timings.  What the server *accepted* is read from its
own ``connections_accepted_total`` (in process, off ``server.metrics`` —
a metrics request would itself ride a connection), and what a peer was
*sent* from a scripted stub listener, so "reused", "not reused" and
"sent exactly once" are each a number.  The stub also scripts the
answers the client's HTTP/1.1 reader must refuse: each is one retriable
transport error, never a hang and never a re-send.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Callable, List, Optional
from urllib.error import HTTPError
from urllib.request import Request

import pytest

from repro.client import ServerClient, ServerError, urlopen
from repro.server import make_server
from repro.workloads.soak import InProcessServer

SRC = Path(__file__).resolve().parents[1] / "src"

SCHEMA_DOC = {
    "name": "emp",
    "attributes": [
        {"name": "dept", "type": "string"},
        {"name": "floor", "type": "int"},
    ],
}
RULES_DOC = [
    {"type": "fd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"]}
]
INSERT = {"ops": [{"op": "insert", "relation": "emp",
                   "row": {"dept": "qa", "floor": 7}}]}


@pytest.fixture()
def server():
    server = make_server(port=0)
    server.start_background()
    yield server
    server.shutdown()


def _accepted(server) -> int:
    return server.metrics.snapshot()["connections_accepted_total"]


def _open_settles_at(server, expected: int) -> bool:
    """The server notices a closed peer on its loop, a moment later."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if server.metrics.snapshot()["connections_open"] == expected:
            return True
        time.sleep(0.01)
    return False


def _in_threads(*targets: Callable[[], None]) -> None:
    """Run each target on a thread of its own — nothing parked there
    beforehand, nothing left behind — and re-raise what one raised."""
    failures: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)
        return run

    threads = [threading.Thread(target=guarded(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]


# --------------------------------------------------------------------------
# Against the real server: what it accepted
# --------------------------------------------------------------------------


def test_sequential_verbs_from_one_thread_share_one_connection(server):
    def verbs() -> None:
        client = ServerClient(base_url=server.base_url)
        client.create_session(
            schema=SCHEMA_DOC, rules=RULES_DOC, data={"emp": []},
            session_id="k",
        )
        delta = client.apply("k", INSERT)
        assert client.detect("k").clean
        client.undo("k", delta.undo_token)
        client.get_rules("k")
        assert "repro_requests_total" in client.prometheus_metrics()
        client.delete_session("k")

    before = _accepted(server)
    _in_threads(verbs)
    assert _accepted(server) == before + 1


def test_the_connection_belongs_to_the_thread_not_to_the_client(server):
    """``repro soak`` shares one ``ServerClient`` between its driver and
    verifier threads: each gets a connection, and no answer is crossed."""
    client = ServerClient(base_url=server.base_url)
    rounds = 40
    ready = threading.Barrier(2)

    def tenant(name: str, floor: int) -> Callable[[], None]:
        def run() -> None:
            client.create_session(
                schema=SCHEMA_DOC, rules=RULES_DOC,
                data={"emp": [{"dept": name, "floor": floor}]},
                session_id=name,
            )
            ready.wait(timeout=10)
            for _ in range(rounds):
                info = client.session_info(name)
                assert info.session_id == name
                delta = client.apply(name, {"ops": [{
                    "op": "insert", "relation": "emp",
                    "row": {"dept": name, "floor": floor + 1},
                }]})
                (added,) = delta.added
                assert {t["values"]["dept"] for t in added["tuples"]} == {name}
                client.undo(name, delta.undo_token)
        return run

    before = _accepted(server)
    _in_threads(tenant("left", 1), tenant("right", 5))
    assert _accepted(server) == before + 2


def test_an_error_response_leaves_the_connection_reusable(server):
    def error_then_success() -> None:
        client = ServerClient(base_url=server.base_url)
        with pytest.raises(ServerError) as err:
            client.session_info("missing")
        # read off the HTTPError path: status, kind and the server's text
        assert err.value.status == 404
        assert err.value.kind == "UnknownSessionError"
        assert "missing" in str(err.value)
        assert client.healthz().status == "ok"

    before = _accepted(server)
    _in_threads(error_then_success)
    assert _accepted(server) == before + 1


def test_prometheus_metrics_has_every_endpoints_errors_and_retries():
    """It used to carry its own send + error mapping: ``retries`` ignored
    and the server's message dropped from an ``HTTPError``."""
    busy = b'{"wire_version": 1, "error": "warming up", "type": "Busy"}'
    text = b"# HELP up\n"
    with _StubPeer([_respond(503, busy),
                    _respond(200, text, content_type="text/plain"),
                    _respond(503, busy)]) as peer:
        client = ServerClient(base_url=peer.base_url, retries=1, backoff=0.0)
        assert client.prometheus_metrics() == text.decode()
        with pytest.raises(ServerError) as err:
            ServerClient(base_url=peer.base_url).prometheus_metrics()
    assert err.value.status == 503 and err.value.kind == "Busy"
    assert "warming up" in str(err.value)
    assert err.value.wire_version == 1
    assert [r.split(b" ", 2)[1] for r in peer.requests] == [
        b"/v1/metrics?format=prometheus"
    ] * 3
    assert all(b"Accept: text/plain" in r for r in peer.requests)


@pytest.mark.parametrize("durable", [True, False])
def test_a_stopped_servers_parked_connection_is_seen_stale(durable, tmp_path):
    """The stop closed the parked connection (PR 20's drain); the probe
    reads that EOF, so the next request dials the new server instead of
    failing once on a dead socket — ``retries=0`` throughout.  A durable
    server's stop closes its sessions' journals on the way, and the
    restarted one lists the session as cold over the same connection."""
    state_dir = tmp_path if durable else None
    first = make_server(port=0, state_dir=state_dir, fsync=False)
    first.start_background()
    port = first.server_address[1]
    client = ServerClient(base_url=first.base_url, retries=0)
    assert client.healthz().status == "ok"
    if durable:
        client.create_session(
            schema=SCHEMA_DOC, rules=RULES_DOC, data={"emp": []},
            session_id="s",
        )
        client.apply("s", INSERT)
    first.shutdown()
    second = make_server(port=port, state_dir=state_dir, fsync=False)
    second.start_background()
    try:
        assert client.healthz().status == "ok"
        assert _accepted(second) == 1
        assert client.healthz().status == "ok"
        assert _accepted(second) == 1
        if durable:
            assert client.cold_sessions() == ["s"]
            assert _accepted(second) == 1
    finally:
        second.shutdown()


def test_in_process_restart_then_wait_ready(tmp_path):
    hosted = InProcessServer(state_dir=tmp_path, fsync=False)
    try:
        client = ServerClient(base_url=hosted.base_url, retries=0)
        client.create_session(
            schema=SCHEMA_DOC, rules=RULES_DOC, data={"emp": []},
            session_id="r",
        )
        client.apply("r", INSERT)
        # restarted from elsewhere: this thread still holds the connection
        # the old server closed, and its first poll must see that
        _in_threads(hosted.restart)
        assert client.wait_ready(attempts=1).status == "ok"
        assert client.session_info("r")["relations"] == {"emp": 1}
    finally:
        hosted.close()


def test_a_finished_threads_connection_is_closed(server):
    resting = server.metrics.snapshot()["connections_open"]

    def one_request() -> None:
        assert ServerClient(base_url=server.base_url).healthz().status == "ok"
        assert server.metrics.snapshot()["connections_open"] == resting + 1

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _in_threads(one_request)
        gc.collect()
    assert [str(w.message) for w in caught] == []
    assert _open_settles_at(server, resting)


def test_a_forked_child_dials_its_own_connection(server):
    """The child holds a copy of the parent's socket; two processes
    writing requests down one connection would interleave them."""
    script = (
        "import os, sys\n"
        "from repro.client import ServerClient\n"
        "client = ServerClient(base_url=sys.argv[1])\n"
        "assert client.healthz().status == 'ok'\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    ok = client.healthz().status == 'ok'\n"
        "    os._exit(0 if ok else 1)\n"
        "_, status = os.waitpid(pid, 0)\n"
        "assert status == 0, status\n"
        "assert client.healthz().status == 'ok'\n"
    )
    before = _accepted(server)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", script, server.base_url],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    # the parent's one connection (used before and after) + the child's
    assert _accepted(server) == before + 2


# --------------------------------------------------------------------------
# Against a scripted peer: what was sent
# --------------------------------------------------------------------------


Answer = Callable[[socket.socket], None]


def _respond(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    close: bool = False,
) -> Answer:
    head = (
        f"HTTP/1.1 {status} Scripted\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    ).encode("latin-1")

    def answer(conn: socket.socket) -> None:
        conn.sendall(head + body)
        if close:
            raise _HangUp

    return answer


def _hang_up(conn: socket.socket) -> None:
    """Read the request, say nothing, close."""
    raise _HangUp


def _stall(seconds: float) -> Answer:
    def answer(conn: socket.socket) -> None:
        time.sleep(seconds)
        raise _HangUp
    return answer


class _HangUp(Exception):
    pass


class _StubPeer:
    """A listener that answers the requests it reads, in order, from a
    script — across however many connections the client opens — and
    records every request and every accept."""

    def __init__(self, script: List[Answer]) -> None:
        self._script = list(script)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self.requests: List[bytes] = []
        self.accepted = 0

    @property
    def base_url(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "_StubPeer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            with conn:
                conn.settimeout(0.05)
                try:
                    while True:
                        request = self._read_request(conn)
                        if request is None:
                            break
                        self.requests.append(request)
                        self._script.pop(0)(conn)
                except (_HangUp, ConnectionResetError):
                    # a client that refused an answer it did not read to
                    # the end closes on unread bytes: a reset
                    pass

    def _read_request(self, conn: socket.socket) -> Optional[bytes]:
        """One Content-Length-framed request; ``None`` at EOF or stop."""
        data = b""
        while True:
            head, separator, rest = data.partition(b"\r\n\r\n")
            if separator:
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                if len(rest) >= length:
                    return data
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                if self._stop.is_set():
                    return None
                continue
            if not chunk:
                return None
            data += chunk


def test_a_connection_close_response_is_not_parked():
    ok = b'{"wire_version": 1, "status": "ok", "sessions": 0}'
    with _StubPeer([_respond(200, ok, close=True), _respond(200, ok),
                    _respond(200, ok)]) as peer:
        client = ServerClient(base_url=peer.base_url)
        for _ in range(3):
            assert client.healthz().status == "ok"
        # the first was hung up on as announced; the next two share one
        assert peer.accepted == 2 and len(peer.requests) == 3


def test_an_unanswered_apply_is_sent_exactly_once():
    """On a *reused* connection too: a peer that hangs up mid-request is
    indistinguishable from one that applied the edit and died, so the
    transport must not re-send — ``retries=`` is the caller's decision."""
    ok = b'{"wire_version": 1, "status": "ok", "sessions": 0}'
    with _StubPeer([_respond(200, ok), _hang_up]) as peer:
        client = ServerClient(base_url=peer.base_url, retries=0)
        assert client.healthz().status == "ok"
        with pytest.raises(ServerError) as err:
            client.apply("s", INSERT)
        assert err.value.status == 0 and err.value.retriable
        time.sleep(0.2)  # a re-send would have arrived by now
        assert peer.accepted == 1
        applies = [r for r in peer.requests if r.startswith(b"POST ")]
        assert len(applies) == 1 and applies[0].endswith(b"}")


def test_timeout_is_per_request_on_a_reused_socket():
    ok = b'{"wire_version": 1, "status": "ok", "sessions": 0}'
    with _StubPeer([_respond(200, ok), _stall(2.0)]) as peer:
        patient = ServerClient(base_url=peer.base_url, timeout=30.0)
        hasty = ServerClient(base_url=peer.base_url, timeout=0.2)
        assert patient.healthz().status == "ok"
        started = time.monotonic()
        with pytest.raises(ServerError) as err:
            hasty.healthz()
        assert time.monotonic() - started < 1.5
        assert err.value.status == 0 and err.value.retriable
        assert peer.accepted == 1  # the stall met the parked connection


# --------------------------------------------------------------------------
# The response parser's unhappy paths, and what goes out on the wire
# --------------------------------------------------------------------------

OK = b'{"wire_version": 1, "status": "ok", "sessions": 0}'


def _raw(data: bytes, hang_up: bool = False, per_byte: bool = False) -> Answer:
    """Answer with exactly ``data`` — in one send, or one byte a send —
    then hang up or keep the connection."""
    def answer(conn: socket.socket) -> None:
        if per_byte:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in data:
                conn.sendall(bytes([byte]))
                time.sleep(0.0005)
        else:
            conn.sendall(data)
        if hang_up:
            raise _HangUp
    return answer


def _transport_error(client: ServerClient) -> ServerError:
    with pytest.raises(ServerError) as err:
        client.healthz()
    assert err.value.status == 0 and err.value.retriable
    assert "transport failure" in str(err.value)
    return err.value


def test_a_body_cut_short_is_a_transport_error_and_nothing_is_parked():
    short = b"HTTP/1.1 200 OK\r\nContent-Length: 400\r\n\r\n" + OK
    with _StubPeer([_raw(short, hang_up=True), _respond(200, OK)]) as peer:
        client = ServerClient(base_url=peer.base_url, retries=0)
        with pytest.raises(ServerError) as err:
            client.apply("s", INSERT)
        assert err.value.status == 0 and err.value.retriable
        assert "short of its Content-Length" in str(err.value)
        assert client.healthz().status == "ok"
        # the torn answer's socket was not reused, and nothing was re-sent
        assert peer.accepted == 2
        assert [r.split(b" ", 1)[0] for r in peer.requests] == [b"POST", b"GET"]


@pytest.mark.parametrize("head", [
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n",
], ids=["chunked", "unframed", "close-delimited"])
def test_a_body_framed_any_other_way_is_refused_at_once(head):
    """``repro serve`` frames every body with ``Content-Length``; any
    other framing is refused at the head, not waited out to the timeout."""
    body = hex(len(OK))[2:].encode() + b"\r\n" + OK + b"\r\n0\r\n\r\n"
    with _StubPeer([_raw(head + body)]) as peer:
        client = ServerClient(base_url=peer.base_url, timeout=5.0)
        started = time.monotonic()
        _transport_error(client)
        assert time.monotonic() - started < 2.5
        assert len(peer.requests) == 1


def test_a_response_sent_one_byte_at_a_time_parses_to_the_same_document():
    with _StubPeer([_respond(200, OK)]) as peer:
        expected = ServerClient(base_url=peer.base_url).healthz()
    head = (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(OK)}\r\n\r\n"
    ).encode()
    with _StubPeer([_raw(head + OK, per_byte=True), _respond(200, OK)]) as peer:
        client = ServerClient(base_url=peer.base_url)
        document = client.healthz()
        assert document == expected and document.wire_version == 1
        assert client.healthz() == expected
        assert peer.accepted == 1


def test_bytes_past_the_body_keep_the_answer_but_not_the_socket():
    framed = (
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(OK) + OK
    )
    with _StubPeer([_raw(framed + b"HTTP/1.1 200 OK\r\n"),
                    _respond(200, OK)]) as peer:
        client = ServerClient(base_url=peer.base_url)
        assert client.healthz().status == "ok"
        assert client.healthz().status == "ok"
        # the stray bytes belong to no request: the next one dialled afresh
        assert peer.accepted == 2 and len(peer.requests) == 2


@pytest.mark.parametrize("session_id", [
    "my session", "a\r\nDELETE /v1/sessions/b HTTP/1.1\r\n\r\n", "tab\tid",
], ids=["space", "crlf", "control"])
def test_a_path_that_would_split_the_request_line_is_never_sent(session_id):
    """A space ends the request target early (``my session`` would reach
    ``my``) and a CR/LF appends a second request: refused, not sent."""
    with _StubPeer([]) as peer:
        client = ServerClient(base_url=peer.base_url, retries=2)
        with pytest.raises(ServerError) as err:
            client.delete_session(session_id)
        assert err.value.status == 0 and not err.value.retriable
        assert "may not hold spaces or control characters" in str(err.value)
        time.sleep(0.1)
        assert peer.requests == [] and peer.accepted == 0


def test_the_head_is_capped_as_http_client_caps_it():
    def head(lines: int) -> bytes:
        return (
            b"HTTP/1.1 200 OK\r\n"
            + b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(lines - 1))
            + b"Content-Length: %d\r\n\r\n" % len(OK)
            + OK
        )

    long_status = b"HTTP/1.1 200 " + b"O" * 65536 + b"\r\n\r\n"
    with _StubPeer([_raw(head(100)), _raw(head(101)),
                    _raw(long_status)]) as peer:
        client = ServerClient(base_url=peer.base_url)
        assert client.healthz().status == "ok"
        assert "more than 100 header lines" in str(_transport_error(client))
        assert "over 65536 bytes" in str(_transport_error(client))
        # the 100-line answer's socket was parked; each refusal closed one
        assert peer.accepted == 2


def test_a_malformed_status_line_is_a_transport_error():
    with _StubPeer([_raw(b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n"),
                    _raw(b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n")]) as peer:
        client = ServerClient(base_url=peer.base_url)
        assert "malformed status line" in str(_transport_error(client))
        assert "malformed status line" in str(_transport_error(client))


def test_the_head_is_exactly_the_minimal_head():
    with _StubPeer([_respond(200, OK), _respond(200, OK)]) as peer:
        client = ServerClient(base_url=peer.base_url + "/")
        client.healthz()
        client.detect("s", include_violations=False)
        host = peer.base_url[len("http://"):]
        body = b'{"include_violations": false}'
        assert peer.requests == [
            b"GET /v1/healthz HTTP/1.1\r\n"
            b"Host: " + host.encode() + b"\r\n"
            b"Accept: application/json\r\n\r\n",
            b"POST /v1/sessions/s/detect HTTP/1.1\r\n"
            b"Host: " + host.encode() + b"\r\n"
            b"Accept: application/json\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        ]


def test_a_redirect_is_an_error_not_followed():
    moved = _raw(
        b"HTTP/1.1 307 Temporary Redirect\r\nLocation: /v1/elsewhere\r\n"
        b"Content-Length: 0\r\n\r\n"
    )
    with _StubPeer([moved]) as peer:
        with pytest.raises(ServerError) as err:
            ServerClient(base_url=peer.base_url).healthz()
        assert err.value.status == 307 and not err.value.retriable
        assert len(peer.requests) == 1


@pytest.mark.parametrize("base_url", [
    "https://127.0.0.1:8765", "ftp://127.0.0.1", "127.0.0.1:8765",
])
def test_only_plain_http_is_accepted_at_construction(base_url):
    with pytest.raises(ValueError, match="no TLS"):
        ServerClient(base_url=base_url)


@pytest.mark.parametrize("base_url", [
    "http://127.0.0.1:8765/v1", "http://user@127.0.0.1:8765",
    "http://127.0.0.1:8765/?q=1", "http://:8765",
])
def test_a_base_url_is_a_host_and_a_port_only(base_url):
    with pytest.raises(ValueError, match=r"http://host\[:port\]"):
        ServerClient(base_url=base_url)


def test_a_bracketed_ipv6_base_url_is_accepted():
    client = ServerClient(base_url="http://[::1]:8765/")
    assert client.base_url == "http://[::1]:8765"


def test_proxy_settings_are_not_read(monkeypatch):
    """The server is reached directly: a proxy named in the environment
    (a dead one here) must not divert loopback traffic."""
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    monkeypatch.delenv("no_proxy", raising=False)
    monkeypatch.delenv("NO_PROXY", raising=False)
    script = (
        "import sys\n"
        "from repro.client import ServerClient\n"
        "assert ServerClient(base_url=sys.argv[1]).healthz().status == 'ok'\n"
    )
    with _StubPeer([_respond(200, OK)]) as peer:
        # a fresh interpreter: the environment is read as a process starts
        result = subprocess.run(
            [sys.executable, "-c", script, peer.base_url],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert peer.accepted == 1


# --------------------------------------------------------------------------
# Bodies that do not decode, and ids no path can carry
# --------------------------------------------------------------------------


def test_a_2xx_body_that_is_not_utf8_is_a_retriable_server_error():
    """A peer that is not a repro server: one retriable transport-class
    error, as for any other body that is not JSON — not the codec's own
    ``UnicodeDecodeError``."""
    with _StubPeer([_respond(200, b"\x80not json"),
                    _respond(200, b"\x80not json")]) as peer:
        client = ServerClient(base_url=peer.base_url)
        for call in (client.healthz, lambda: client.session_info("s")):
            with pytest.raises(ServerError) as err:
                call()
            assert err.value.status == 0 and err.value.retriable
            assert "undecodable response" in str(err.value)


def test_an_error_body_that_is_not_utf8_keeps_its_status():
    with _StubPeer([_respond(500, b"\x80not json")]) as peer:
        client = ServerClient(base_url=peer.base_url)
        with pytest.raises(ServerError) as err:
            client.healthz()
        assert err.value.status == 500 and not err.value.retriable
        assert err.value.document == {} and err.value.kind == ""
        assert str(err.value).endswith("-> 500: �not json")


#: (id, the character named): what ends a path segment, whitespace (a
#: space, NBSP, an em space), control characters (C0, DEL, C1), and what
#: a Latin-1 request line cannot carry
_UNADDRESSABLE_IDS = [
    ("a#b", "#"), ("a?x", "?"), ("p/q", "/"), ("a b", " "), ("a\tb", "\t"),
    ("a\r\nb", "\r"), ("a\x00b", "\x00"), ("a\x7fb", "\x7f"),
    ("a\x85b", "\x85"), ("a\xa0b", "\xa0"), ("a\u2003b", "\u2003"),
    ("\u65e5\u672c", "\u65e5"),
]


@pytest.mark.parametrize("session_id, named", _UNADDRESSABLE_IDS)
def test_an_id_no_path_can_carry_is_refused_before_sending(session_id, named):
    with _StubPeer([]) as peer:
        client = ServerClient(base_url=peer.base_url, retries=2)
        for call in (
            lambda: client.create_session(schema=SCHEMA_DOC, session_id=session_id),
            lambda: client.detect(session_id),
            lambda: client.delete_session(session_id),
        ):
            with pytest.raises(ServerError) as err:
                call()
            assert err.value.status == 0 and not err.value.retriable
            assert f"holds {named!r}" in str(err.value)
        time.sleep(0.1)
        assert peer.requests == [] and peer.accepted == 0


@pytest.mark.parametrize("session_id, named", _UNADDRESSABLE_IDS)
def test_the_server_refuses_an_unaddressable_id_at_create(
    server, session_id, named
):
    """What the client refuses, the server refuses too: a 400 naming the
    character, for a peer that is not the stock client."""
    body = json.dumps({"schema": SCHEMA_DOC, "id": session_id}).encode()
    request = Request(server.base_url + "/v1/sessions", data=body, method="POST")
    with pytest.raises(HTTPError) as err:
        urlopen(request, timeout=10)
    assert err.value.code == 400
    assert f"holds {named!r}" in json.loads(err.value.read())["error"]
    assert ServerClient(base_url=server.base_url).list_sessions() == []


def test_a_survives_the_delete_of_a_hash_b(server):
    client = ServerClient(base_url=server.base_url)
    client.create_session(schema=SCHEMA_DOC, rules=RULES_DOC,
                          data={"emp": []}, session_id="a")
    with pytest.raises(ServerError) as err:
        client.delete_session("a#b")
    assert not err.value.retriable
    assert client.session_info("a").session_id == "a"
    assert [info.session_id for info in client.list_sessions()] == ["a"]
