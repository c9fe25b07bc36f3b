"""The asyncio front end, the /v1 wire versioning and the snapshot reads.

Three acceptance bars from the async-service redesign:

* **wire versioning** — every endpoint mounts under ``/v1`` and carries
  ``"wire_version": 1`` as the first envelope key; any other prefix —
  an unknown version or none — answers 404 with a supported-versions
  doc.
* **transport transparency** — the server adds no byte to what its
  :class:`~repro.server.core.ServiceCore` renders: the same request
  history must produce *byte-identical* response bodies served and from
  an in-process ``ServiceCore.handle``, error documents and undo-token
  flows included.
* **snapshot reads** — on the async server a warm ``detect`` against an
  unchanged engine is served from the session snapshot without entering
  the gated verb path; any write invalidates the snapshot.
* **edit dispatch** — an ``apply`` / ``undo`` runs on the event loop
  exactly when the session is in memory and healthy and its previous
  edit took less than one GIL switch interval; every other edit runs on
  the verb pool, and both paths answer the same bytes.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import socket
import sys
import threading
import time
import warnings
import weakref
from urllib.parse import urlsplit

import pytest

from repro.client import ServerClient, ServerError
from repro.server import DEFAULT_DEGRADED_AFTER, make_server
from repro.server.core import ServiceCore, parse_body_bytes
from repro.server.hosting import ServerMetrics, SessionManager

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
ROWS = [
    {"dept": "eng", "floor": 1},
    {"dept": "eng", "floor": 2},  # violates dept -> floor
    {"dept": "ops", "floor": 3},
]

EXTRA_RULE = {
    "type": "cfd",
    "relation": "emp",
    "name": "eng-first-floor",
    "lhs": ["dept"],
    "rhs": ["floor"],
    "tableau": [{"dept": "eng", "floor": 1}],
}


@pytest.fixture(scope="module")
def server():
    server = make_server(port=0)
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def client(server):
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    return client


def _fresh(client: ServerClient, session_id: str, **kwargs):
    try:
        client.delete_session(session_id)
    except ServerError:
        pass
    return client.create_session(
        schema=SCHEMA_DOC,
        rules=RULES_DOC,
        data={"emp": list(ROWS)},
        session_id=session_id,
        **kwargs,
    )


def _raw(base_url, method, path, body=None):
    """One raw request; returns ``(status, headers, body_bytes)``."""
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def _exchange(server, payload):
    """Send raw bytes, read until the server hangs up; returns the one
    response's head lines and its body (exactly Content-Length bytes)."""
    with socket.create_connection(server.server_address, timeout=10) as sock:
        sock.sendall(payload)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, document = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    (length,) = [
        int(line.split(":")[1]) for line in lines
        if line.startswith("Content-Length")
    ]
    assert len(document) == length, "more than one response"
    return lines, document


# --------------------------------------------------------------------------
# Bodies nested too deep
# --------------------------------------------------------------------------


@pytest.mark.parametrize("method, path", [
    ("POST", "/v1/sessions"),
    ("PUT", "/v1/sessions/deep/rules"),
    ("POST", "/v1/sessions/deep/rules"),
    ("POST", "/v1/sessions/deep/detect"),
    ("POST", "/v1/sessions/deep/apply"),
    ("POST", "/v1/sessions/deep/undo"),
    ("POST", "/v1/sessions/deep/repair"),
    ("POST", "/v1/sessions/deep/nope"),
])
@pytest.mark.parametrize("body", [
    b"[" * 100_000 + b"]" * 100_000, b"[" * 100_000, b'{"a":' * 100_000,
], ids=["nested", "unclosed", "objects"])
def test_a_body_nested_too_deep_is_a_4xx_on_every_verb(
    server, client, method, path, body
):
    """The decoder refuses what nests past ``MAX_DEPTH`` (or past the
    stack), so a verb answers a 400 — never a 500 — and the session and
    the connection carry on."""
    _fresh(client, "deep")
    parts = urlsplit(server.base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        error = json.loads(response.read())
        assert response.status == 400, error
        assert error["error"].startswith("request body is not valid JSON: ")
        conn.request("GET", "/v1/sessions/deep")
        after = conn.getresponse()
        assert after.status == 200
        after.read()
    finally:
        conn.close()


# --------------------------------------------------------------------------
# Wire versioning
# --------------------------------------------------------------------------


class TestWireVersioning:
    def test_envelope_carries_wire_version_first(self, server):
        status, _headers, raw = _raw(server.base_url, "GET", "/v1/healthz")
        assert status == 200
        document = json.loads(raw)
        assert document["wire_version"] == 1
        assert next(iter(document)) == "wire_version"

    def test_client_strips_the_envelope(self, client):
        doc = client.healthz()
        assert "wire_version" not in doc
        assert doc.wire_version == 1

    def test_unknown_version_is_404_with_supported_doc(self, server):
        status, _headers, raw = _raw(server.base_url, "GET", "/v999/healthz")
        assert status == 404
        document = json.loads(raw)
        assert document["supported_versions"] == [1]
        assert "999" in document["error"]

    def test_unversioned_path_is_404_naming_v1(self, client, server):
        status, headers, raw = _raw(
            server.base_url, "POST", "/sessions/probe-7/detect"
        )
        assert status == 404
        assert "Location" not in headers
        document = json.loads(raw)
        assert document["type"] == "UnsupportedWireVersion"
        assert document["requested_version"] is None
        assert document["supported_versions"] == [1]
        assert "/v1" in document["error"]
        # recorded under the route template: probes cannot grow the table
        endpoints = client.metrics()["endpoints"]
        assert "POST /sessions/{id}/detect" in endpoints
        assert not any("probe-7" in key for key in endpoints)

    def test_session_named_v1_stays_addressable(self, client, server):
        _fresh(client, "v1")
        status, _headers, raw = _raw(
            server.base_url, "GET", "/v1/sessions/v1"
        )
        assert status == 200
        assert json.loads(raw)["session"] == "v1"
        client.delete_session("v1")


# --------------------------------------------------------------------------
# The async transport end to end
# --------------------------------------------------------------------------


class TestAsyncVerbs:
    def test_full_verb_cycle(self, client):
        info = _fresh(client, "cycle")
        assert info["session"] == "cycle"
        report = client.detect("cycle")
        assert report["total"] == 1
        assert report.clean is False  # derived from "total": the detect
        # document carries counts, not a "clean" flag
        delta = client.apply(
            "cycle",
            {"ops": [{"op": "delete", "relation": "emp",
                      "row": {"dept": "eng", "floor": 2}}]},
        )
        assert delta.clean is True
        replay = client.undo("cycle", delta.undo_token)
        assert len(replay["added"]) == 1
        assert client.get_rules("cycle") == RULES_DOC
        client.add_rules("cycle", [EXTRA_RULE])
        assert len(client.get_rules("cycle")) == 2
        repair = client.repair("cycle", strategy="u")
        assert repair["strategy"] == "u"
        diag = client.diagnostics("cycle")
        assert diag["session"] == "cycle"
        assert "cycle" in {s["session"] for s in client.list_sessions()}
        assert client.delete_session("cycle") == {
            "session": "cycle",
            "closed": True,
        }
        with pytest.raises(ServerError) as err:
            client.detect("cycle")
        assert err.value.status == 404

    def test_malformed_json_body_is_400(self, server):
        parts = urlsplit(server.base_url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )
        try:
            conn.request(
                "POST",
                "/v1/sessions",
                body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 400
            assert "not valid JSON" in json.loads(raw)["error"]
            # keep-alive survives the parse error
            conn.request("GET", "/v1/healthz")
            second = conn.getresponse()
            assert second.status == 200
            second.read()
        finally:
            conn.close()

    def test_a_body_that_is_not_utf8_is_400_bad_request(self, server):
        """Bytes that do not decode as UTF-8 are not JSON either: the same
        ``BadRequest`` as ``{nope`` — it used to surface the codec's own
        ``UnicodeDecodeError`` — and the connection stays usable."""
        body = b'{"id": "\xff"}'
        payload = (
            b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body
            + b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(payload)
            received = b""
            responses = []
            while len(responses) < 2:
                chunk = sock.recv(65536)
                assert chunk, f"server hung up after {responses!r}"
                received += chunk
                while b"\r\n\r\n" in received:
                    head, _, rest = received.partition(b"\r\n\r\n")
                    lines = head.decode("latin-1").split("\r\n")
                    (length,) = [
                        int(line.split(":")[1]) for line in lines
                        if line.startswith("Content-Length")
                    ]
                    if len(rest) < length:
                        break
                    responses.append((lines, json.loads(rest[:length])))
                    received = rest[length:]
        (lines, error), (second, health) = responses
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" not in lines
        assert error["type"] == "BadRequest"
        assert error["error"].startswith("request body is not valid JSON: ")
        assert second[0] == "HTTP/1.1 200 OK"
        assert health["wire_version"] == 1

    @pytest.mark.parametrize(
        "framing, named",
        [
            (b"Transfer-Encoding: chunked", "Transfer-Encoding"),
            (b"Content-Length: -5", "Content-Length"),
            (b"Content-Length: abc", "Content-Length"),
            (b"Content-Length:", "Content-Length"),
            (b"Content-Length: 14\r\nTransfer-Encoding: chunked",
             "Transfer-Encoding"),
        ],
    )
    def test_a_body_not_framed_by_content_length_is_one_400_then_close(
        self, server, framing, named
    ):
        """Whatever follows such a head cannot be told from the next
        request: the server used to answer as if body-less and then parse
        the chunk framing / the body as a *second* request (or, for an
        unparseable length, hang up without a word)."""
        body = b'{"schema": {}}'
        chunked = b"e\r\n" + body + b"\r\n0\r\n\r\n"
        payload = (
            b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n" + framing
            + b"\r\n\r\n"
            + (chunked if framing.startswith(b"Transfer") else body)
            # a pipelined request the server must never get to
            + b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        before = server.metrics.snapshot()["requests_total"]
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(payload)
            received = b""
            while chunk := sock.recv(65536):  # until the server hangs up
                received += chunk
        head, _, document = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in lines
        # exactly one response: the declared length is all there is
        (length,) = [
            int(line.split(":")[1]) for line in lines
            if line.startswith("Content-Length")
        ]
        assert len(document) == length
        error = json.loads(document)
        assert error["type"] == "BadRequest" and named in error["error"]
        assert server.metrics.snapshot()["requests_total"] == before + 1

    @pytest.mark.parametrize(
        "head, smuggled",
        [
            # a front end honouring the first length sees one GET; the
            # server used to honour the last, answer the GET and then run
            # the body as a second request
            ("GET /v1/healthz HTTP/1.1\r\nHost: t\r\n"
             "Content-Length: {n}\r\nContent-Length: 0", "smuggled"),
            ("POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
             "Content-Length : {n}", "spaced"),
            ("POST /v1/sessions HTTP/1.1\r\nHost: t\r\nX-No-Colon\r\n"
             "Content-Length: {n}", "colonless"),
            ("POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
             " Content-Length: {n}", "folded"),
        ],
        ids=["repeated-length", "space-before-colon", "no-colon", "folded"],
    )
    def test_a_head_that_frames_two_ways_is_one_400_then_close(
        self, server, head, smuggled
    ):
        """RFC 9112 §5.1 / §6.3: a repeated Content-Length, whitespace
        before a colon or a line that is no field leaves the body's extent
        to whoever reads the head — each used to be answered (a 200 that
        created the body's session behind it, or a 201)."""
        create = json.dumps({
            "schema": SCHEMA_DOC, "rules": RULES_DOC,
            "data": {"emp": ROWS}, "id": smuggled,
        }).encode("utf-8")
        if smuggled == "smuggled":
            body = (
                b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(create)}\r\n\r\n".encode("latin-1")
                + create
            )
        else:
            body = create
        payload = (
            head.format(n=len(body)).encode("latin-1") + b"\r\n\r\n" + body
        )
        before = server.metrics.snapshot()["requests_total"]
        lines, document = _exchange(server, payload)
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in lines
        assert json.loads(document)["type"] == "BadRequest"
        # one request answered, and nothing after the head was run
        assert server.metrics.snapshot()["requests_total"] == before + 1
        assert server.manager.peek(smuggled) is None

    @pytest.mark.parametrize("count, status", [(100, 200), (101, 400)])
    def test_a_head_past_100_header_lines_is_one_400_then_close(
        self, server, count, status
    ):
        """A head may carry stdlib ``http.client``'s 100 header lines; the
        101st is refused with the cap named, the rest of the head unread,
        and the connection closed — the head used to grow without bound."""
        fillers = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(count - 2))
        payload = (
            "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n" + fillers
            + "Connection: close\r\n\r\n"
        ).encode("latin-1")
        lines, document = _exchange(server, payload)
        assert lines[0].split(" ")[1] == str(status)
        if status == 400:
            assert "Connection: close" in lines
            error = json.loads(document)
            assert error["type"] == "BadRequest"
            assert "100 header lines" in error["error"]

    def test_legacy_executor_keys_rejected_with_schema_hint(
        self, client, server
    ):
        _fresh(client, "legacy")
        status, _headers, raw = _raw(
            server.base_url,
            "POST",
            "/v1/sessions/legacy/detect",
            body={"executor": "indexed"},
        )
        assert status == 400
        assert '{"engine":' in json.loads(raw)["error"]
        client.delete_session("legacy")

    @pytest.mark.parametrize(
        "engine, named",
        [({"shards": 2}, "'shards'"), ({"executor": "parallel"}, "'parallel'")],
    )
    def test_sharded_engine_options_are_refused_by_name(
        self, client, engine, named
    ):
        """Not ignored: an old client learns its knob is gone, and what
        the engine object still takes, from the 400 itself."""
        surviving = '{"engine": {"executor": "indexed"}}'
        with pytest.raises(ServerError) as err:
            client._request(
                "POST",
                "/sessions",
                {"id": "gone", "schema": SCHEMA_DOC, "rules": RULES_DOC,
                 "data": {"emp": list(ROWS)}, "engine": engine},
            )
        assert err.value.status == 400
        assert named in str(err.value) and surviving in str(err.value)
        assert "gone" not in [doc.session_id for doc in client.list_sessions()]

        _fresh(client, "kept")
        report = client.detect("kept")
        hits = client.metrics()["snapshots"]["snapshot_hits_total"]
        with pytest.raises(ServerError) as err:
            client._request("POST", "/sessions/kept/detect", {"engine": engine})
        assert err.value.status == 400
        assert named in str(err.value) and surviving in str(err.value)
        # the refusal cost the session nothing: the next read is still a hit
        assert client.detect("kept") == report
        assert client.metrics()["snapshots"]["snapshot_hits_total"] == hits + 1
        client.delete_session("kept")

    def test_engine_error_text_matches_session_layer(self, client):
        from repro.errors import ReproError
        from repro.relational.instance import DatabaseInstance
        from repro.rules_json import database_schema_from_dict
        from repro.session import Session

        _fresh(client, "errs")
        for executor in ("warp-drive", "naive"):
            # the kwarg layer
            with pytest.raises(ReproError) as local:
                Session.from_instance(
                    DatabaseInstance(database_schema_from_dict(SCHEMA_DOC)),
                    [],
                    executor=executor,
                )
            # the wire layer
            with pytest.raises(ServerError) as served:
                client._request(
                    "POST", "/sessions/errs/detect",
                    {"engine": {"executor": executor}},
                )
            assert str(local.value) in str(served.value)
        client.delete_session("errs")

    def test_client_constructor_is_keyword_only(self, server):
        with pytest.raises(TypeError):
            ServerClient(server.base_url)
        with pytest.raises(TypeError):
            ServerClient()


class TestRequestTargets:
    """The transport picks a session's asyncio lock from the request target
    and the core picks the handler from it, so the two must parse it alike.
    They used to differ — the transport split on ``?``, the core ran
    ``urlsplit`` (which also drops a ``#fragment``, reads an absolute-form
    URL's path and deletes tabs) — and each target below ran a real
    ``apply`` outside the session's lock."""

    @pytest.mark.parametrize(
        "target, status",
        [
            ("/v1/sessions/{id}/apply#x", 400),
            ("http://localhost/v1/sessions/{id}/apply", 404),
            ("/v1/sessions/{id}/ap\tply", 400),
        ],
    )
    def test_no_target_edits_outside_the_session_lock(
        self, client, server, target, status
    ):
        _fresh(client, "target")
        body = json.dumps(
            {"ops": [{"op": "insert", "relation": "emp",
                      "row": {"dept": "qa", "floor": 7}}]}
        ).encode("utf-8")
        request = (
            f"POST {target.format(id='target')} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1") + body
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        head, _, document = received.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == str(status).encode()
        if status == 400:
            assert json.loads(document)["type"] == "BadRequest"
        # nothing was inserted, under the lock or outside it
        assert client.session_info("target")["relations"] == {"emp": 3}
        client.delete_session("target")

    #: every route that writes: (method, verb, body); "" is the session
    WRITES = [
        ("POST", "apply", {"ops": [{"op": "insert", "relation": "emp",
                                    "row": {"dept": "qa", "floor": 7}}]}),
        ("POST", "undo", {"token": "undo-1"}),
        ("POST", "repair", {"strategy": "u"}),
        ("PUT", "rules", {"rules": RULES_DOC + [EXTRA_RULE]}),
        ("POST", "rules", {"rules": [EXTRA_RULE]}),
        ("DELETE", "", None),
    ]

    #: spellings of one target, and whether the write handler runs
    SPELLINGS = {
        "plain": (lambda path: path, True),
        "query": (lambda path: path + "?q", True),
        "fragment": (lambda path: path + "#f", False),
        "absolute": (lambda path: "http://localhost" + path, False),
        # a tab in the last segment: a verb no route has, or another id
        "tab": (lambda path: path[:-1] + "\t" + path[-1], None),
        "v01": (lambda path: path.replace("/v1/", "/v01/"), True),
        "slashes": (lambda path: path.replace("/", "//") + "/", True),
        "fourth segment": (lambda path: path + "/extra", False),
        "wrong method": (lambda path: path, False),
    }

    #: the handlers that write, on the core, and the manager's remove
    HANDLERS = (
        "_handle_apply", "_handle_undo", "_handle_repair", "_handle_rules_write"
    )

    @pytest.mark.parametrize(
        "method, verb, body",
        WRITES,
        ids=["apply", "undo", "repair", "rules-put", "rules-post", "delete"],
    )
    def test_every_write_runs_under_the_session_lock_for_every_spelling(
        self, monkeypatch, method, verb, body
    ):
        """Whenever a write handler runs, the session's asyncio lock is
        held — whatever the spelling of the target that reached it — and
        every spelling answers what ``ServiceCore.handle`` answers on a
        twin that saw the same requests (a server of its own: a 404 names
        every open session)."""
        server = make_server(port=0)
        server.start_background()
        twin = ServiceCore(SessionManager(), ServerMetrics(), DEFAULT_DEGRADED_AFTER)
        ran = []

        def watched(name, original):
            def run(subject, *args, **kwargs):
                session_id = getattr(subject, "id", subject)
                entry = server._locks.get(session_id)
                ran.append((name, entry is not None and entry.lock.locked()))
                return original(subject, *args, **kwargs)
            return run

        for name in self.HANDLERS:
            monkeypatch.setattr(
                server.core, name, watched(name, getattr(server.core, name))
            )
        monkeypatch.setattr(
            server.manager, "remove", watched("remove", server.manager.remove)
        )

        def both(method, target, document=None):
            payload = b"" if document is None else json.dumps(document).encode()
            reference = twin.handle(
                method, target, lambda: parse_body_bytes(payload)
            )
            request = (
                f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1") + payload
            lines, served = _exchange(server, request)
            context = f"{method} {target!r}"
            assert lines[0].split(" ")[1] == str(reference.status), context
            _assert_same_bytes(context, reference.body, served)
            return reference.status

        path = "/v1/sessions/w" + (f"/{verb}" if verb else "")
        try:
            for spelling, (spell, runs) in self.SPELLINGS.items():
                both("DELETE", "/v1/sessions/w")
                assert both("POST", "/v1/sessions", {
                    "schema": SCHEMA_DOC, "rules": RULES_DOC,
                    "data": {"emp": ROWS}, "id": "w",
                }) == 201
                assert both("POST", "/v1/sessions/w/apply", self.WRITES[0][2]) == 200
                ran.clear()
                wrong = "PATCH" if spelling == "wrong method" else method
                both(wrong, spell(path), body)
                assert all(held for _, held in ran), (spelling, ran)
                if runs is None:
                    runs = not verb  # a tab in the id still names a session
                assert bool(ran) == runs, (spelling, ran)
        finally:
            server.shutdown()
            twin.manager.close_all()


# --------------------------------------------------------------------------
# Lock-free reads
# --------------------------------------------------------------------------


class TestLockFreeReads:
    def test_sessions_list_answers_while_a_session_is_wedged(
        self, client, server
    ):
        """GET /v1/sessions and GET /v1/sessions/{id} must not take
        session locks: a wedged (long-running or stuck) verb on one
        session cannot stall the listing."""
        _fresh(client, "wedged")
        _fresh(client, "bystander")
        hosted = server.manager.get("wedged")
        assert hosted.lock.acquire(timeout=5)
        try:
            done = threading.Event()
            result = {}

            def read():
                result["list"] = client.list_sessions()
                result["info"] = client.session_info("wedged")
                done.set()

            thread = threading.Thread(target=read, daemon=True)
            thread.start()
            assert done.wait(timeout=5), (
                "lock-free reads stalled behind a held session lock"
            )
            ids = {s["session"] for s in result["list"]}
            assert {"wedged", "bystander"} <= ids
            assert result["info"]["session"] == "wedged"
        finally:
            hosted.lock.release()
        client.delete_session("wedged")
        client.delete_session("bystander")


# --------------------------------------------------------------------------
# Snapshot reads
# --------------------------------------------------------------------------


class TestSnapshotReads:
    def test_warm_detect_skips_the_gated_verb_path(self, client, server):
        """Repeated detects on an unchanged engine are snapshot hits.

        Proof: sabotage the session's ``detect`` after the first call —
        a request that re-entered the verb path would blow up, a
        snapshot hit answers the cached bytes."""
        _fresh(client, "snap")
        first = client.detect("snap")
        hosted = server.manager.get("snap")
        real = hosted.session.detect

        def explode(**_kwargs):
            raise RuntimeError("detect re-ran on an unchanged engine")

        hosted.session.detect = explode
        try:
            for _ in range(3):
                assert client.detect("snap") == first
        finally:
            hosted.session.detect = real

    def test_writes_invalidate_the_snapshot(self, client, server):
        _fresh(client, "inval")
        before = client.detect("inval")
        assert client.detect("inval") == before  # snapshot hit
        delta = client.apply(
            "inval",
            {"ops": [{"op": "delete", "relation": "emp",
                      "row": {"dept": "eng", "floor": 2}}]},
        )
        after = client.detect("inval")  # must re-run: engine changed
        assert after["total"] == 0
        client.undo("inval", delta.undo_token)
        assert client.detect("inval") == before

    def test_a_detect_body_is_parsed_once(self, client, server, monkeypatch):
        """The snapshot key, the handler and the publication read one
        parse: a detect that misses, runs and publishes used to parse its
        body three times."""
        from repro.server import aio, core

        calls = []
        real = core.parse_body_bytes

        def counting(raw):
            calls.append(raw)
            return real(raw)

        for module in (aio, core):
            monkeypatch.setattr(module, "parse_body_bytes", counting, raising=False)
        _fresh(client, "once")
        hits = server.metrics.counters_snapshot()["snapshot_hits_total"]
        answers = []
        for _ in range(2):  # a miss that publishes, then a hit
            calls.clear()
            status, _headers, raw = _raw(
                server.base_url, "POST", "/v1/sessions/once/detect",
                {"include_violations": True},
            )
            assert status == 200 and len(calls) == 1
            answers.append(raw)
        assert answers[0] == answers[1]
        assert server.metrics.counters_snapshot()["snapshot_hits_total"] == hits + 1
        client.delete_session("once")

    def test_summary_and_full_detect_cache_separately(self, client):
        _fresh(client, "keys")
        full = client.detect("keys")
        summary = client.detect("keys", include_violations=False)
        assert "violations" in full
        assert "violations" not in summary
        assert client.detect("keys") == full
        assert client.detect("keys", include_violations=False) == summary


class TestBoundedTables:
    """The front end's per-session tables follow the session manager's:
    what LRU eviction drops, or what never existed, leaves nothing behind."""

    def test_evicted_sessions_are_released(self):
        server = make_server(port=0, max_sessions=2)
        server.start_background()
        try:
            client = ServerClient(base_url=server.base_url)
            sessions = []
            for index in range(6):
                _fresh(client, f"lru{index}")
                # HostedSession has no __weakref__ slot; it owns its Session
                sessions.append(
                    weakref.ref(server.manager.get(f"lru{index}").session)
                )
                assert client.detect(f"lru{index}")["total"] == 1
                assert len(server._snapshots) <= 2
            assert sorted(server._snapshots) == ["lru4", "lru5"]
            gc.collect()
            assert [ref() is None for ref in sessions] == [True] * 4 + [False] * 2
        finally:
            server.shutdown()

    def test_probing_unknown_ids_leaves_no_locks(self, server):
        parts = urlsplit(server.base_url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            for index in range(1000):
                conn.request("POST", f"/v1/sessions/ghost{index}/detect")
                response = conn.getresponse()
                response.read()
                assert response.status == 404
        finally:
            conn.close()
        assert server._locks == {}


# --------------------------------------------------------------------------
# Edit dispatch: on the loop or on the pool
# --------------------------------------------------------------------------


def _insert(floor):
    return {"ops": [{"op": "insert", "relation": "emp",
                     "row": {"dept": "qa", "floor": floor}}]}


def _edit_counts(server):
    counters = server.metrics.counters_snapshot()
    return counters["edits_inline_total"], counters["edits_pooled_total"]


def _path(server, session_id):
    """Where the session's last edit ran, as diagnostics names it."""
    _seconds, inline = server.manager.peek(session_id).last_edit
    return "inline" if inline else "pooled"


@contextlib.contextmanager
def _switch_interval(seconds):
    saved = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


class TestEditDispatch:
    """An edit runs on the loop when the session's previous edit fit in
    one switch interval; a first edit, a journaled session, a degraded
    one and an edit after a slow one go to the pool."""

    def test_a_warm_session_edits_inline_after_its_first(self, client, server):
        _fresh(client, "disp")
        client.detect("disp")
        before = _edit_counts(server)
        paths = []
        delta = None
        for floor in (7, 8, 9):
            delta = client.apply("disp", _insert(floor))
            paths.append(_path(server, "disp"))
        client.undo("disp", delta.undo_token)
        paths.append(_path(server, "disp"))
        assert paths == ["pooled", "inline", "inline", "inline"]
        inline, pooled = _edit_counts(server)
        assert (inline - before[0], pooled - before[1]) == (3, 1)
        last = client.diagnostics("disp")["last_edit"]
        assert last["path"] == "inline"
        assert 0.0 < last["seconds"] < sys.getswitchinterval()
        client.delete_session("disp")

    def test_a_state_dir_server_never_edits_inline(self, tmp_path):
        server = make_server(port=0, state_dir=tmp_path)
        server.start_background()
        try:
            client = ServerClient(base_url=server.base_url)
            _fresh(client, "durable")
            for floor in (7, 8, 9, 10):
                client.apply("durable", _insert(floor))
                assert _path(server, "durable") == "pooled"
            assert _edit_counts(server) == (0, 4)
            assert client.metrics()["edits"] == {
                "edits_inline_total": 0, "edits_pooled_total": 4,
            }
        finally:
            server.shutdown()

    def test_a_lowered_switch_interval_pools_every_edit(self, client, server):
        _fresh(client, "tight")
        with _switch_interval(1e-6):
            for floor in (7, 8, 9):
                client.apply("tight", _insert(floor))
                assert _path(server, "tight") == "pooled"
        client.delete_session("tight")

    def test_an_edit_over_the_interval_sends_the_next_to_the_pool(
        self, client, server
    ):
        _fresh(client, "slow")
        client.apply("slow", _insert(7))
        client.apply("slow", _insert(8))
        assert _path(server, "slow") == "inline"
        session = server.manager.peek("slow").session
        real = session.apply

        def slow_apply(changeset):
            time.sleep(4 * sys.getswitchinterval())
            return real(changeset)

        session.apply = slow_apply
        try:
            client.apply("slow", _insert(9))  # mispredicted: blocks the loop once
        finally:
            session.apply = real
        seconds, inline = server.manager.peek("slow").last_edit
        assert inline and seconds > sys.getswitchinterval()
        client.apply("slow", _insert(10))
        assert _path(server, "slow") == "pooled"
        client.apply("slow", _insert(11))
        assert _path(server, "slow") == "inline"
        client.delete_session("slow")

    def test_delete_and_recreate_starts_on_the_pool(self, client, server):
        _fresh(client, "again")
        client.apply("again", _insert(7))
        client.apply("again", _insert(8))
        assert _path(server, "again") == "inline"
        _fresh(client, "again")  # DELETE, then create under the same id
        client.apply("again", _insert(7))
        assert _path(server, "again") == "pooled"
        client.delete_session("again")

    def test_a_degraded_sessions_probe_is_pooled(self):
        server = make_server(port=0, degraded_after=2)
        server.start_background()
        try:
            client = ServerClient(base_url=server.base_url)
            _fresh(client, "sick")
            session = server.manager.peek("sick").session
            real = session.apply
            faults = {"left": 3}

            def flaky(changeset):
                if faults["left"]:
                    faults["left"] -= 1
                    raise RuntimeError("injected engine fault")
                return real(changeset)

            session.apply = flaky
            outcomes = []
            for floor in (7, 8, 9, 10, 11):
                try:
                    client.apply("sick", _insert(floor))
                    status = 200
                except ServerError as exc:
                    status = exc.status
                outcomes.append((status, _path(server, "sick")))
            assert outcomes == [
                (500, "pooled"),   # a first edit
                (503, "inline"),   # the failure that degrades the session
                (503, "pooled"),   # a failed recovery probe
                (200, "pooled"),   # the probe that recovers it
                (200, "inline"),
            ]
        finally:
            server.shutdown()


class TestLockDiagnostics:
    def test_requests_queued_on_the_session_count_their_wait(
        self, client, server
    ):
        """Concurrent writes queue on the session's asyncio lock, not on
        the core's lock; diagnostics' ``locks`` must still see the queue,
        counting each request once."""
        _fresh(client, "queue")
        session = server.manager.peek("queue").session
        real = session.apply
        handler_seconds = []

        def slow_apply(changeset):
            started = time.perf_counter()
            time.sleep(0.05)
            result = real(changeset)
            handler_seconds.append(time.perf_counter() - started)
            return result

        session.apply = slow_apply
        before = client.diagnostics("queue")["locks"]
        try:
            threads = [
                threading.Thread(target=client.apply, args=("queue", _insert(floor)))
                for floor in (7, 8, 9, 10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            session.apply = real
        locks = client.diagnostics("queue")["locks"]
        assert len(handler_seconds) == 4
        assert locks["acquisitions"] - before["acquisitions"] == 4
        assert locks["contended"] - before["contended"] >= 1
        # the last of the four waited out at least one whole handler
        assert locks["wait_seconds_max"] > max(handler_seconds)
        client.delete_session("queue")


# --------------------------------------------------------------------------
# Graceful stop
# --------------------------------------------------------------------------


class TestGracefulStop:
    """A stop winds the open connections down itself: returning from the
    loop with handlers parked in ``readline`` made ``asyncio.run`` cancel
    them — one ``Exception in callback … CancelledError`` traceback per
    idle keep-alive connection on stderr, and sockets nobody closed."""

    @staticmethod
    def _idle_connection(server) -> http.client.HTTPConnection:
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        return conn

    @pytest.mark.parametrize("durable", [True, False])
    def test_idle_keep_alive_connections_stop_quietly(
        self, durable, tmp_path, capfd, caplog
    ):
        """A durable server's stop also closes its sessions' journals; that
        must leave the connection wind-down just as quiet and quick."""
        server = make_server(
            port=0, state_dir=tmp_path if durable else None, fsync=False
        )
        server.start_background()
        conns = [self._idle_connection(server) for _ in range(3)]
        if durable:
            conns[0].request(
                "POST", "/v1/sessions",
                body=json.dumps({
                    "schema": SCHEMA_DOC, "rules": RULES_DOC,
                    "data": {"emp": ROWS}, "id": "idle",
                }).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conns[0].getresponse()
            response.read()
            assert response.status == 201
            hosted = server.manager.get("idle")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                started = time.perf_counter()
                server.shutdown()
                elapsed = time.perf_counter() - started
                gc.collect()
            assert elapsed < 1.0
            # the loop reports the cancelled handlers through ``logging``,
            # which reaches stderr only when pytest is not capturing it
            assert [r.getMessage() for r in caplog.records] == []
            assert capfd.readouterr().err == ""
            assert [str(w.message) for w in caught] == []
            assert not server._handlers and not server._parked
            if durable:
                assert hosted.closed and hosted.journal._wal_handle is None
            # the server hung up: each client reads EOF, not a timeout
            for conn in conns:
                assert conn.sock.recv(1) == b""
        finally:
            for conn in conns:
                conn.close()

    def test_a_request_already_read_still_gets_its_response(self, caplog):
        server = make_server(port=0)
        server.start_background()
        entered, release = threading.Event(), threading.Event()
        real = server.core.handle

        def slow_handle(method, target, read_body):
            entered.set()
            assert release.wait(timeout=10)
            return real(method, target, read_body)

        server.core.handle = slow_handle
        answer = {}

        def request():
            answer["raw"] = _raw(server.base_url, "GET", "/v1/healthz")

        requester = threading.Thread(target=request, daemon=True)
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        try:
            requester.start()
            assert entered.wait(timeout=10)
            stopper.start()
            deadline = time.monotonic() + 10
            while not server._draining and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server._draining
        finally:
            release.set()
        requester.join(timeout=10)
        stopper.join(timeout=10)
        assert not requester.is_alive() and not stopper.is_alive()
        status, headers, raw = answer["raw"]
        assert status == 200 and json.loads(raw)["status"] == "ok"
        assert headers["Connection"] == "close"
        assert [r.getMessage() for r in caplog.records] == []


# --------------------------------------------------------------------------
# Served vs in-process core: the transport adds no bytes
# --------------------------------------------------------------------------


def _history():
    """A scripted request history touching every verb, error paths and
    undo-token flows.  Tokens are deterministic (``undo-N``), so the raw
    response bytes must agree between any two instances."""
    ops = [{"op": "insert", "relation": "emp",
            "row": {"dept": "qa", "floor": 7}}]
    bad_ops = [{"op": "insert", "relation": "emp",
                "row": {"dept": "qa"}}]  # missing attribute -> 400
    return [
        ("POST", "/v1/sessions", {
            "schema": SCHEMA_DOC, "rules": RULES_DOC,
            "data": {"emp": ROWS}, "id": "t",
        }),
        ("POST", "/v1/sessions/t/detect", None),
        ("POST", "/v1/sessions/t/detect", {"include_violations": False}),
        ("POST", "/v1/sessions/t/detect",
         {"engine": {"executor": "naive"}}),
        ("POST", "/v1/sessions/t/apply", {"ops": ops}),
        ("POST", "/v1/sessions/t/detect", None),
        ("POST", "/v1/sessions/t/undo", {"token": "undo-1"}),
        ("POST", "/v1/sessions/t/undo", {"token": "undo-1"}),  # reused: 400
        ("POST", "/v1/sessions/t/apply", {"ops": bad_ops}),  # 400
        ("GET", "/v1/sessions/t/rules", None),
        ("PUT", "/v1/sessions/t/rules", {"rules": RULES_DOC + [EXTRA_RULE]}),
        ("POST", "/v1/sessions/t/rules", {"rules": [EXTRA_RULE]}),  # dup 400
        ("POST", "/v1/sessions/t/detect", None),
        ("POST", "/v1/sessions/t/repair", {"strategy": "u"}),
        ("POST", "/v1/sessions/t/detect",
         {"engine": {"executor": "warp-drive"}}),  # 400, canonical text
        ("POST", "/v1/sessions/t/detect", {"executor": "naive"}),  # legacy 400
        ("GET", "/v1/sessions/missing", None),  # 404
        ("POST", "/v1/sessions/missing/detect", None),  # 404
        ("GET", "/v1/teapot", None),  # 400
        ("GET", "/v999/healthz", None),  # 404 version doc
        ("GET", "/healthz", None),  # unversioned: the same 404, naming /v1
        ("DELETE", "/v1/sessions/t", None),
        ("DELETE", "/v1/sessions/t", None),  # already gone: 404
    ]


#: wall-clock fields — non-deterministic between any two server boots
#: (two runs of the same server disagree on them too)
_CLOCK_KEYS = frozenset({"age_seconds", "idle_seconds", "uptime_seconds"})


def _mask_clocks(value):
    if isinstance(value, dict):
        return {
            key: 0.0 if key in _CLOCK_KEYS else _mask_clocks(entry)
            for key, entry in value.items()
        }
    if isinstance(value, list):
        return [_mask_clocks(entry) for entry in value]
    return value


def _assert_same_bytes(context, core_raw, served_raw):
    if core_raw == served_raw:
        return
    # only wall-clock fields may diverge — and only in value, never in
    # key order or structure: masking them must restore byte equality
    core_masked = json.dumps(_mask_clocks(json.loads(core_raw)), indent=2)
    served_masked = json.dumps(_mask_clocks(json.loads(served_raw)), indent=2)
    assert core_masked == served_masked, (
        f"{context}: bodies diverge beyond clock fields\n"
        f"core:   {core_raw!r}\nserved: {served_raw!r}"
    )


def _assert_wire_contract(context, headers, raw):
    """Wire version 1 bodies: compact, enveloped, exactly one line."""
    assert headers.get("Content-Type") == "application/json", context
    assert int(headers["Content-Length"]) == len(raw), context
    assert raw.startswith(b'{"wire_version":1'), context
    assert raw.endswith(b"}\n") and raw.count(b"\n") == 1, context
    assert json.loads(raw)["wire_version"] == 1, context


def test_served_bytes_equal_the_in_process_core():
    """The reference is ``ServiceCore.handle`` on a twin manager — no
    socket, no snapshot layer, no lock table — so whatever the transport
    added, dropped or reordered would show as a byte."""
    core = ServiceCore(SessionManager(), ServerMetrics(), DEFAULT_DEGRADED_AFTER)
    server = make_server(port=0)
    server.start_background()
    try:
        # a switch interval no edit reaches: every edit after a session's
        # first runs inline, however slow the machine
        with _switch_interval(1.0):
            for index, (method, path, body) in enumerate(_history()):
                payload = b"" if body is None else json.dumps(body).encode("utf-8")
                reference = core.handle(
                    method, path, lambda: parse_body_bytes(payload)
                )
                status, headers, raw = _raw(server.base_url, method, path, body)
                context = f"step {index}: {method} {path}"
                assert status == reference.status, context
                _assert_same_bytes(context, reference.body, raw)
                _assert_wire_contract(context, headers, raw)
                assert headers.get("Content-Type") == reference.content_type, context
                # the core renders status, content type and body — nothing
                # else (the pre-/v1 redirect was the one response with more)
                assert "Location" not in headers, context
                assert "Deprecation" not in headers, context
        # the undo, the reused-token 400 and the bad-ops 400 ran on the
        # loop, the first apply on the pool: both paths matched the core
        inline, pooled = _edit_counts(server)
        assert inline >= 3 and pooled >= 1
    finally:
        server.shutdown()
        core.manager.close_all()
