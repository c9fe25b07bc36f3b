"""Degraded-session gating under fault injection, and client transport
error wrapping.

The gate's contract (``docs/server.md`` Ops section): failures count
only when the handler dies with a 5xx-class error; the request that
crosses ``degraded_after`` consecutive failures itself answers 503 with
a ``degraded`` document; the next request to reach the lock runs as a
recovery probe (success answers 200 and resets the counters); requests
arriving *during* an in-flight probe are rejected with a fast 503 that
never queues on the session lock (nor on the transport's asyncio lock in
front of it) — and the lock itself is released on every path, so a
degraded session can never poison it.
"""

from __future__ import annotations

import http.server
import threading

import pytest

from repro.client import ServerClient, ServerError
from repro.server import DEFAULT_DEGRADED_AFTER, make_server

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
    {"dept": "eng", "floor": 2},
    {"dept": "ops", "floor": 3},
]

THRESHOLD = 3


@pytest.fixture(scope="module")
def server():
    server = make_server(port=0, degraded_after=THRESHOLD)
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def client(server):
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    return client


def _fresh(client: ServerClient, session_id: str):
    try:
        client.delete_session(session_id)
    except ServerError:
        pass
    return client.create_session(
        schema=SCHEMA_DOC,
        rules=RULES_DOC,
        data={"emp": list(ROWS)},
        session_id=session_id,
    )


def _inject_failures(server, session_id: str, failures: int):
    """Monkeypatch the hosted session's detect to fail ``failures`` times
    (a 5xx-class engine explosion), then behave normally again."""
    hosted = server.manager.get(session_id)
    real = hosted.session.detect
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] <= failures:
            raise RuntimeError(f"injected engine fault #{calls['n']}")
        return real(*args, **kwargs)

    hosted.session.detect = flaky
    return hosted, calls


class TestDegradedLifecycle:
    def test_default_threshold_exported(self):
        assert DEFAULT_DEGRADED_AFTER == 5

    def test_failure_degrade_probe_recover_sequence(self, server, client):
        """Threshold 3, four injected faults: two plain 500s, the
        threshold-crossing 503, one failed probe (503), then a probe
        that succeeds and answers 200."""
        _fresh(client, "deg-seq")
        hosted, _ = _inject_failures(server, "deg-seq", failures=THRESHOLD + 1)
        statuses = []
        bodies = []
        for _ in range(THRESHOLD + 2):
            try:
                client.detect("deg-seq")
                statuses.append(200)
            except ServerError as exc:
                statuses.append(exc.status)
                bodies.append(exc.document)
        assert statuses == [500, 500, 503, 503, 200]
        # both 503s carried the degraded document
        for body in bodies[-2:]:
            degraded = body.get("degraded", {})
            assert degraded.get("session") == "deg-seq"
            assert degraded.get("degraded") is True
            assert degraded.get("consecutive_failures", 0) >= THRESHOLD
            assert "injected engine fault" in degraded.get("last_error", "")
        # recovery reset the counters: healthy in info and diagnostics
        assert client.session_info("deg-seq")["degraded"] is False
        diag = client.diagnostics("deg-seq")
        assert diag["degraded"]["degraded"] is False
        assert diag["degraded"]["consecutive_failures"] == 0
        assert diag["degraded"]["degraded_total"] == 1
        assert hosted.failures == 0
        client.delete_session("deg-seq")

    def test_counters_reach_metrics(self, server, client):
        before = client.metrics()["degraded"]
        _fresh(client, "deg-count")
        _inject_failures(server, "deg-count", failures=THRESHOLD + 1)
        for _ in range(THRESHOLD + 2):
            try:
                client.detect("deg-count")
            except ServerError:
                pass
        after = client.metrics()["degraded"]
        assert after["threshold"] == THRESHOLD
        assert (
            after["handler_failures_total"]
            == before["handler_failures_total"] + THRESHOLD + 1
        )
        assert after["degraded_total"] == before["degraded_total"] + 1
        assert after["probes_total"] == before["probes_total"] + 2
        assert after["recoveries_total"] == before["recoveries_total"] + 1
        client.delete_session("deg-count")

    def test_client_errors_do_not_degrade(self, client):
        """4xx-class failures say nothing about session health."""
        _fresh(client, "deg-4xx")
        for _ in range(THRESHOLD + 2):
            with pytest.raises(ServerError) as err:
                client.undo("deg-4xx", "undo-999")
            assert err.value.status == 400
        # still healthy: detect answers normally
        assert client.detect("deg-4xx")["total"] == 1
        assert client.session_info("deg-4xx")["degraded"] is False
        client.delete_session("deg-4xx")

    def test_a_handler_raised_bad_request_does_not_degrade(self, client):
        """A malformed body refused *inside* a gated handler is the
        client's 400 like any other: ``BadRequest`` used to be missing
        from the status table, read as a 500 there, and the request that
        crossed the threshold answered 503 and gated a healthy session.
        The refusals of the removed sharding options are such 400s."""
        _fresh(client, "deg-400")
        before = client.metrics()["degraded"]
        for verb, body, error_type in (
            ("undo", {}, "BadRequest"),
            ("detect", {"engine": {"shards": 2}}, "ReproError"),
            ("detect", {"engine": {"executor": "parallel"}}, "ReproError"),
        ):
            for _ in range(THRESHOLD + 2):
                with pytest.raises(ServerError) as err:
                    client._request("POST", f"/sessions/deg-400/{verb}", body)
                assert err.value.status == 400
                assert err.value.document["type"] == error_type
        after = client.metrics()["degraded"]
        assert after["handler_failures_total"] == before["handler_failures_total"]
        assert after["degraded_total"] == before["degraded_total"]
        # the next request is served normally
        assert client.detect("deg-400")["total"] == 1
        assert client.session_info("deg-400")["degraded"] is False
        client.delete_session("deg-400")

    def test_degraded_session_keeps_serving_diagnostics(self, server, client):
        _fresh(client, "deg-diag")
        _inject_failures(server, "deg-diag", failures=THRESHOLD)
        for _ in range(THRESHOLD):
            with pytest.raises(ServerError):
                client.detect("deg-diag")
        # gated verbs 503 (as probes that keep failing would), but the
        # ungated reads still answer
        diag = client.diagnostics("deg-diag")
        assert diag["degraded"]["degraded"] is True
        assert client.get_rules("deg-diag") == RULES_DOC
        client.delete_session("deg-diag")


class TestFastPathRejection:
    def test_concurrent_request_rejected_while_probe_in_flight(
        self, server, client
    ):
        _fresh(client, "deg-fast")
        hosted = server.manager.get("deg-fast")
        real = hosted.session.detect
        probe_entered = threading.Event()
        release_probe = threading.Event()
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= THRESHOLD:
                raise RuntimeError("injected engine fault")
            probe_entered.set()
            assert release_probe.wait(timeout=30)
            return real(*args, **kwargs)

        hosted.session.detect = flaky
        for _ in range(THRESHOLD):
            with pytest.raises(ServerError):
                client.detect("deg-fast")
        assert hosted.is_degraded

        probe_result = {}

        def run_probe():
            probe_result["doc"] = client.detect("deg-fast")

        probe = threading.Thread(target=run_probe)
        probe.start()
        try:
            assert probe_entered.wait(timeout=30)
            # the probe holds the lock inside the handler; a concurrent
            # request must be rejected instantly, without queueing
            rejected_before = client.metrics()["degraded"]["rejected_total"]
            with pytest.raises(ServerError) as err:
                client.detect("deg-fast")
            assert err.value.status == 503
            assert "probe" in str(err.value)
            assert (
                client.metrics()["degraded"]["rejected_total"]
                == rejected_before + 1
            )
        finally:
            release_probe.set()
            probe.join(timeout=30)
        # the probe succeeded: session recovered, answers normally
        assert probe_result["doc"]["total"] == 1
        # the reject never joined the transport's lock table, and the
        # probe left it: nothing holds or awaits this session's lock
        assert server._locks == {}
        assert client.session_info("deg-fast")["degraded"] is False
        client.delete_session("deg-fast")

    def test_lock_never_poisoned(self, server, client):
        """After the whole degrade/probe/recover cycle the per-session
        lock is free and later verbs run normally."""
        _fresh(client, "deg-lock")
        hosted, _ = _inject_failures(
            server, "deg-lock", failures=THRESHOLD + 1
        )
        for _ in range(THRESHOLD + 2):
            try:
                client.detect("deg-lock")
            except ServerError:
                pass
        assert not hosted.lock.locked()
        assert hosted.probe_in_flight is False
        delta = client.apply(
            "deg-lock",
            {"ops": [{"op": "insert", "relation": "emp",
                      "row": {"dept": "qa", "floor": 9}}]},
        )
        assert "undo_token" in delta
        client.delete_session("deg-lock")


class TestClientTransportErrors:
    def test_connection_refused_is_retriable_server_error(self):
        dead = ServerClient(base_url="http://127.0.0.1:9", timeout=1.0)
        with pytest.raises(ServerError) as err:
            dead.healthz()
        assert err.value.status == 0
        assert err.value.retriable is True

    def test_http_404_is_not_retriable(self, client):
        with pytest.raises(ServerError) as err:
            client.session_info("never-created")
        assert err.value.status == 404
        assert err.value.retriable is False
        assert "error" in err.value.document

    def test_503_is_retriable(self, server, client):
        _fresh(client, "deg-retry")
        _inject_failures(server, "deg-retry", failures=THRESHOLD)
        statuses = []
        for _ in range(THRESHOLD):
            with pytest.raises(ServerError) as err:
                client.detect("deg-retry")
            statuses.append((err.value.status, err.value.retriable))
        assert statuses == [(500, False), (500, False), (503, True)]
        client.delete_session("deg-retry")

    def test_wait_ready_gives_up_on_non_retriable(self):
        # a 404 from a live server that is not a repro server (the URL
        # points at something else entirely) must not be polled through
        paths = []

        class NotRepro(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                paths.append(self.path)
                self.send_error(404)

            def log_message(self, *args):
                pass

        other = http.server.ThreadingHTTPServer(("127.0.0.1", 0), NotRepro)
        threading.Thread(target=other.serve_forever, daemon=True).start()
        try:
            host, port = other.server_address[:2]
            bogus = ServerClient(base_url=f"http://{host}:{port}")
            with pytest.raises(ServerError) as err:
                bogus.wait_ready(attempts=50, delay=0.01)
        finally:
            other.shutdown()
            other.server_close()
        assert err.value.status == 404
        assert err.value.retriable is False
        assert paths == ["/v1/healthz"]
