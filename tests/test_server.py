"""The HTTP/JSON constraint service: wire protocol, locking, eviction.

The acceptance bar mirrors the packaging job: a served detect must be
*byte-identical* to the offline CLI detect on the shipped fixtures, the
changeset wire format must ride the delta engine exactly as a local
``Session.apply`` does, and concurrent clients must never tear a
session's maintained state — one session serializes, distinct sessions
run in parallel.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.client import ServerClient, ServerError
from repro.engine.delta import Changeset
from repro.registry import changeset_from_dict, changeset_to_dict
from repro.server import make_server
from repro.session import Session

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "examples" / "fixtures"

#: a small single-relation session document used by most tests
SCHEMA_DOC = {
    "name": "emp",
    "attributes": [
        {"name": "dept", "type": "string"},
        {"name": "floor", "type": "int"},
    ],
}
RULES_DOC = [{"type": "fd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"]}]
ROWS = [
    {"dept": "eng", "floor": 1},
    {"dept": "eng", "floor": 2},  # violates dept -> floor
    {"dept": "ops", "floor": 3},
]
#: a 2-row tableau (a wildcard row and a constant row) over four rows:
#: the batch executor lists its violations partition by partition, the
#: per-dependency loop row by row of the tableau — one multiset, two lists
PROBE_RULES = [{
    "type": "cfd", "relation": "emp", "lhs": ["dept"], "rhs": ["floor"],
    "tableau": [{"dept": "_", "floor": "_"}, {"dept": "eng", "floor": 1}],
}]
PROBE_ROWS = [
    {"dept": "eng", "floor": 1},
    {"dept": "ops", "floor": 3},
    {"dept": "eng", "floor": 2},
    {"dept": "ops", "floor": 4},
]


@pytest.fixture(scope="module")
def server():
    server = make_server(port=0, data_root=REPO_ROOT)
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def client(server):
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    return client


def _fresh(client: ServerClient, session_id: str, rows=ROWS, **kwargs):
    """Create (or recreate) the small emp session under ``session_id``."""
    try:
        client.delete_session(session_id)
    except ServerError:
        pass
    return client.create_session(
        schema=SCHEMA_DOC,
        rules=RULES_DOC,
        data={"emp": list(rows)},
        session_id=session_id,
        **kwargs,
    )


class TestLifecycle:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["max_sessions"] == 64
        assert doc["uptime_seconds"] >= 0

    def test_create_info_list_delete(self, client):
        info = _fresh(client, "life")
        assert info["session"] == "life"
        assert info["relations"] == {"emp": 3}
        assert info["rules"] == 1
        assert info["executor"] == "indexed"
        assert not info["warm_engine"]
        assert "life" in {s["session"] for s in client.list_sessions()}
        assert client.session_info("life")["relations"] == {"emp": 3}
        assert client.delete_session("life") == {
            "session": "life",
            "closed": True,
        }
        with pytest.raises(ServerError) as err:
            client.session_info("life")
        assert err.value.status == 404

    def test_auto_ids_are_fresh(self, client):
        a = client.create_session(schema=SCHEMA_DOC, data={"emp": ROWS})
        b = client.create_session(schema=SCHEMA_DOC, data={"emp": ROWS})
        assert a["session"] != b["session"]
        client.delete_session(a["session"])
        client.delete_session(b["session"])

    def test_duplicate_id_conflicts(self, client):
        _fresh(client, "dup")
        with pytest.raises(ServerError) as err:
            client.create_session(schema=SCHEMA_DOC, session_id="dup")
        assert err.value.status == 409
        assert "already exists" in str(err.value)
        client.delete_session("dup")

    def test_server_side_paths(self, client):
        info = client.create_session(
            schema="examples/fixtures/schema.json",
            rules="examples/fixtures/rules.json",
            data={
                "customer": "examples/fixtures/customer.csv",
                "orders": "examples/fixtures/orders.csv",
            },
            session_id="paths",
        )
        assert info["relations"] == {"customer": 7, "orders": 5}
        assert info["rules"] == 6
        client.delete_session("paths")


class TestDetect:
    def test_detect_matches_offline_byte_for_byte(self, client):
        """The packaging-job invariant: served detect == CLI detect JSON."""
        data = {
            "customer": "examples/fixtures/customer.csv",
            "orders": "examples/fixtures/orders.csv",
        }
        client.create_session(
            schema="examples/fixtures/schema.json",
            rules="examples/fixtures/rules.json",
            data=data,
            session_id="bytes",
        )
        served = client.detect("bytes")
        offline = Session.from_files(
            FIXTURES / "schema.json",
            FIXTURES / "rules.json",
            {name: FIXTURES / Path(path).name for name, path in data.items()},
        ).detect().to_dict()
        dump = lambda doc: json.dumps(doc, indent=2, default=str)  # noqa: E731
        assert dump(served) == dump(offline)
        client.delete_session("bytes")

    def test_detect_summary_only(self, client):
        _fresh(client, "sum")
        doc = client.detect("sum", include_violations=False)
        assert doc["total"] == 1
        assert "violations" not in doc
        assert list(doc["per_dependency"].values()) == [1]

    def test_detect_warm_repeats_agree(self, client):
        _fresh(client, "warm")
        first = client.detect("warm")
        for _ in range(3):
            assert client.detect("warm") == first

    def test_detect_executor_override(self, client):
        """Detection has one path: a detect body may name it, and any other
        executor is a 400 that names the removal."""
        _fresh(client, "exec")
        indexed = client.detect("exec")
        engine = {"engine": {"executor": "indexed"}}
        assert client._request("POST", "/sessions/exec/detect", engine) == indexed
        for executor, named in (
            ("naive", "executor 'naive' was removed"),
            ("warp-drive", "executor 'warp-drive' is unknown"),
        ):
            with pytest.raises(ServerError) as err:
                client._request(
                    "POST", "/sessions/exec/detect",
                    {"engine": {"executor": executor}},
                )
            assert err.value.status == 400 and named in str(err.value)

    def test_every_accepted_detect_body_answers_one_list(self, client):
        """Whatever detect body the server accepts, the 2-row-tableau probe
        answers one violation list: no body selects another order."""
        try:
            client.delete_session("probe")
        except ServerError:
            pass
        client.create_session(
            schema=SCHEMA_DOC, rules=PROBE_RULES,
            data={"emp": PROBE_ROWS}, session_id="probe",
        )
        lists = set()
        for body in (
            None,
            {},
            {"include_violations": True},
            {"engine": {}},
            {"engine": {"executor": "indexed"}},
            {"engine": {"executor": "naive"}},
            {"engine": {"executor": "naive"}, "include_violations": True},
        ):
            try:
                document = client._request("POST", "/sessions/probe/detect", body)
            except ServerError as err:
                assert err.status == 400
                continue
            lists.add(json.dumps(document["violations"]))
        assert len(lists) == 1
        assert len(json.loads(lists.pop())) == 4


class TestApplyUndo:
    def test_apply_matches_local_session(self, client):
        _fresh(client, "app")
        changeset = {
            "ops": [
                {
                    "op": "insert",
                    "relation": "emp",
                    "row": {"dept": "ops", "floor": 9},
                },
                {
                    "op": "update",
                    "relation": "emp",
                    "row": {"dept": "eng", "floor": 2},
                    "cells": {"floor": 1},
                },
            ]
        }
        served = client.apply("app", changeset)

        local = Session.from_instance(_local_db(), _local_rules())
        delta = local.apply(Changeset.from_dict(changeset))
        assert len(served["added"]) == len(delta.added)
        assert len(served["removed"]) == len(delta.removed)
        assert served["remaining"] == delta.remaining
        assert served["clean"] == delta.clean_after

    def test_undo_restores_and_tokens_are_single_use(self, client):
        _fresh(client, "undo")
        before = client.detect("undo")
        delta = client.apply(
            "undo",
            {
                "ops": [
                    {
                        "op": "delete",
                        "relation": "emp",
                        "row": {"dept": "eng", "floor": 2},
                    }
                ]
            },
        )
        assert delta["remaining"] == 0 and delta["clean"]
        restored = client.undo("undo", delta["undo_token"])
        assert restored["remaining"] == before["total"]
        assert client.detect("undo") == before
        with pytest.raises(ServerError) as err:
            client.undo("undo", delta["undo_token"])
        assert err.value.status == 400
        assert "already-used" in str(err.value)

    def test_adopt_invalidates_stored_undo_tokens(self, client):
        """repair(adopt=True) swaps the instance; replaying a pre-repair
        undo against the repaired data must be refused, not applied."""
        _fresh(client, "adopt-undo")
        delta = client.apply(
            "adopt-undo",
            {"ops": [
                {
                    "op": "insert",
                    "relation": "emp",
                    "row": {"dept": "qa", "floor": 5},
                }
            ]},
        )
        client.repair("adopt-undo", strategy="x", adopt=True)
        with pytest.raises(ServerError) as err:
            client.undo("adopt-undo", delta["undo_token"])
        assert err.value.status == 400
        assert "unknown or already-used" in str(err.value)

    def test_apply_failure_is_atomic(self, client):
        """An update on an absent tuple 400s and leaves the session intact."""
        _fresh(client, "atomic")
        before = client.detect("atomic")
        with pytest.raises(ServerError) as err:
            client.apply(
                "atomic",
                {
                    "ops": [
                        {
                            "op": "insert",
                            "relation": "emp",
                            "row": {"dept": "qa", "floor": 4},
                        },
                        {
                            "op": "update",
                            "relation": "emp",
                            "row": {"dept": "ghost", "floor": 0},
                            "cells": {"floor": 1},
                        },
                    ]
                },
            )
        assert err.value.status == 400
        assert client.detect("atomic") == before
        assert client.session_info("atomic")["relations"] == {"emp": 3}


class TestErrorPaths:
    @pytest.mark.parametrize(
        "verb, body, field",
        [
            ("repair", {"strategy": "x", "adopt": "false"}, "adopt"),
            ("detect", {"include_violation": False}, "include_violation"),
            ("detect", {"include_violations": "false"}, "include_violations"),
            ("apply", {"ops": [{"op": "delete", "relation": "emp",
                                "row": {"dept": "ops", "floor": 3}}],
                       "dry_run": True}, "dry_run"),
            ("undo", {"force": True}, "force"),
            ("rules", {"rules": RULES_DOC, "mode": "append"}, "mode"),
            ("create", {"schema": SCHEMA_DOC, "engines": {}}, "engines"),
        ],
    )
    def test_verb_bodies_are_read_strictly(self, client, verb, body, field):
        """An unknown top-level key or a non-boolean flag is a 400 that
        names the field — never ignored, never read as truthy — and the
        session is left as it was."""
        _fresh(client, "strict")
        token = client.apply(
            "strict",
            {"ops": [{"op": "insert", "relation": "emp",
                      "row": {"dept": "qa", "floor": 5}}]},
        )["undo_token"]
        before = client.session_info("strict")
        sessions = len(client.list_sessions())
        if verb == "undo":  # a live token: only the extra key is wrong
            body = dict(body, token=token)
        method, path = {
            "rules": ("PUT", "/sessions/strict/rules"),
            "create": ("POST", "/sessions"),
        }.get(verb, ("POST", f"/sessions/strict/{verb}"))
        with pytest.raises(ServerError) as err:
            client._request(method, path, body)
        assert err.value.status == 400 and err.value.kind == "BadRequest"
        assert repr(field) in str(err.value)
        after = client.session_info("strict")
        for key in ("relations", "rules", "undo_tokens"):
            assert after[key] == before[key]
        assert len(client.list_sessions()) == sessions
    def test_error_metrics_use_route_templates(self, client, server):
        """404s/400s against arbitrary session ids must aggregate under the
        '{id}' template, not mint one metrics entry per probed path."""
        for probe in ("probe-a", "probe-b", "probe-c"):
            with pytest.raises(ServerError):
                client.detect(probe)
        endpoints = client.metrics()["endpoints"]
        assert "POST /sessions/{id}/detect" in endpoints
        assert not any("probe-" in key for key in endpoints)

    def test_unknown_session_404_on_every_verb(self, client):
        for call in (
            lambda: client.detect("ghost"),
            lambda: client.apply("ghost", {"ops": []}),
            lambda: client.repair("ghost"),
            lambda: client.get_rules("ghost"),
            lambda: client.session_info("ghost"),
            lambda: client.delete_session("ghost"),
        ):
            with pytest.raises(ServerError) as err:
                call()
            assert err.value.status == 404
            assert err.value.kind == "UnknownSessionError"
            assert "no session 'ghost'" in str(err.value)

    def test_malformed_changeset_400_with_registry_text(self, client):
        _fresh(client, "bad")
        cases = [
            ({"ops": [{"op": "frobnicate", "relation": "emp", "row": {}}]},
             "unknown op"),
            ({"ops": [{"op": "insert", "row": {}}]}, "'relation'"),
            ({"ops": [{"op": "update", "relation": "emp",
                       "row": {"dept": "eng", "floor": 1}}]}, "'cells'"),
            ({"ops": "nope"}, "'ops' list"),
        ]
        for body, fragment in cases:
            with pytest.raises(ServerError) as err:
                client.apply("bad", body)
            assert err.value.status == 400, body
            assert err.value.kind == "DependencyError"
            assert fragment in str(err.value)

    def test_changeset_op_keys_read_strictly(self, client):
        """An op key its kind does not read — ``cells`` on an insert or a
        delete, a typo — is a 400 naming the op and the key, and the
        batch is not applied (it used to be dropped, and the WAL record
        then lost it)."""
        _fresh(client, "strict-ops")
        row = {"dept": "eng", "floor": 1}
        valid = {"op": "insert", "relation": "emp",
                 "row": {"dept": "new", "floor": 9}}
        cases = [
            ({"op": "insert", "relation": "emp",
              "row": {"dept": "qa", "floor": 4}, "cells": {"floor": 5}},
             "#1 (insert) has unknown key(s) ['cells']"),
            ({"op": "delete", "relation": "emp", "row": row,
              "cells": {"floor": 5}},
             "#1 (delete) has unknown key(s) ['cells']"),
            ({"op": "update", "relation": "emp", "row": row,
              "cells": {"floor": 5}, "cell": {"floor": 6}},
             "#1 (update) has unknown key(s) ['cell']"),
            ({"op": "delete", "relation": "emp", "row": row, "dry_run": True},
             "#1 (delete) has unknown key(s) ['dry_run']"),
        ]
        before = client.detect("strict-ops")
        for op, fragment in cases:
            with pytest.raises(ServerError) as err:
                client.apply("strict-ops", {"ops": [valid, op]})
            assert err.value.status == 400, op
            assert err.value.kind == "DependencyError"
            assert fragment in str(err.value)
        assert client.session_info("strict-ops")["relations"] == {"emp": 3}
        assert client.detect("strict-ops") == before

    def test_unknown_rule_type_400_lists_registered_tags(self, client):
        _fresh(client, "tags")
        with pytest.raises(ServerError) as err:
            client.set_rules("tags", [{"type": "mystery"}])
        assert err.value.status == 400
        assert "registered types" in str(err.value)
        assert "cfd" in str(err.value)

    def test_invalid_json_body_400(self, client, server):
        import urllib.request

        request = urllib.request.Request(
            f"{server.base_url}/v1/sessions/whatever/detect",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert json.loads(err.value.read())["type"] == "BadRequest"

    def test_keep_alive_survives_unrouted_request_with_body(self, server):
        """A body POSTed to an unroutable path must be drained before the
        400, or the next request on the kept-alive socket reads garbage."""
        import http.client

        host, port = server.server_address[0], server.server_address[1]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # /teapot never reaches _read_body, so without the drain the
            # body bytes would be parsed as the next request line
            body = json.dumps({"ops": [{"op": "insert"}] * 50})
            conn.request(
                "POST",
                "/v1/teapot",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 400
            first.read()
            # same socket: the follow-up must parse cleanly
            conn.request("GET", "/v1/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            conn.close()

    def test_unrouted_paths_400(self, client):
        with pytest.raises(ServerError) as err:
            client._request("GET", "/teapot")
        assert err.value.status == 400
        with pytest.raises(ServerError) as err:
            client._request("POST", "/sessions/x/brew")
        assert err.value.status in (400, 404)  # 404: session checked first

    def test_bad_session_document_400(self, client):
        with pytest.raises(ServerError) as err:
            client._request("POST", "/sessions", {"rules": []})
        assert err.value.status == 400
        assert "schema" in str(err.value)


class TestRulesRoundTrip:
    def test_get_put_post(self, client):
        _fresh(client, "rules")
        docs = client.get_rules("rules")
        assert docs == [
            {
                "type": "fd",
                "relation": "emp",
                "lhs": ["dept"],
                "rhs": ["floor"],
            }
        ]
        extra = {
            "type": "cfd",
            "relation": "emp",
            "name": "eng-first-floor",
            "lhs": ["dept"],
            "rhs": ["floor"],
            "tableau": [{"dept": "eng", "floor": 1}],
        }
        assert client.add_rules("rules", [extra])["rules"] == 2
        assert client.get_rules("rules")[1]["name"] == "eng-first-floor"
        # served detection now includes the CFD's violations
        assert client.detect("rules")["per_dependency"]["eng-first-floor"] >= 1
        assert client.set_rules("rules", docs)["rules"] == 1
        assert client.get_rules("rules") == docs


class TestRepair:
    def test_repair_x_and_adopt(self, client):
        _fresh(client, "fix")
        report = client.repair("fix", strategy="x")
        assert report["strategy"] == "x"
        assert report["resolved"] is True
        # adopt=False: the hosted session is untouched
        assert client.detect("fix")["total"] == 1
        adopted = client.repair("fix", strategy="x", adopt=True)
        assert adopted["resolved"] is True
        assert client.detect("fix")["total"] == 0

    def test_repair_u_reports_passes(self, client):
        _fresh(client, "upass")
        report = client.repair("upass", strategy="u")
        assert report["strategy"] == "u"
        assert report["passes"] >= 1

    def test_unknown_strategy_400(self, client):
        _fresh(client, "strat")
        with pytest.raises(ServerError) as err:
            client.repair("strat", strategy="q")
        assert err.value.status == 400
        assert err.value.kind == "RepairError"


class TestConcurrency:
    N_THREADS = 8
    N_ROUNDS = 6

    def test_one_session_serializes_no_torn_state(self, client):
        """Threads hammer one session with apply+undo; the maintained
        violation set must land exactly where it started."""
        _fresh(client, "hammer")
        before = client.detect("hammer")
        failures: list = []

        def worker(thread_id: int) -> None:
            # insert-then-delete rather than insert-then-undo: with 8
            # threads interleaving, the 32-token LRU undo cache may evict
            # a token before its owner replays it (documented capacity
            # behavior) — explicit inverse edits keep the hammer about
            # delta-state integrity, not token retention
            try:
                for round_no in range(self.N_ROUNDS):
                    row = {
                        "dept": f"t{thread_id}",
                        "floor": 100 + thread_id * self.N_ROUNDS + round_no,
                    }
                    delta = client.apply(
                        "hammer",
                        {"ops": [
                            {"op": "insert", "relation": "emp", "row": row}
                        ]},
                    )
                    assert delta["remaining"] >= before["total"]
                    back = client.apply(
                        "hammer",
                        {"ops": [
                            {"op": "delete", "relation": "emp", "row": row}
                        ]},
                    )
                    assert back["remaining"] >= before["total"]
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        after = client.detect("hammer")
        assert after == before
        assert client.session_info("hammer")["relations"] == {"emp": 3}
        assert (
            client.session_info("hammer")["requests"]
            >= self.N_THREADS * self.N_ROUNDS * 2
        )

    def test_distinct_sessions_run_in_parallel(self, client):
        """Concurrent traffic against distinct sessions stays isolated:
        every session's detect sees only its own edits."""
        ids = [f"iso-{i}" for i in range(self.N_THREADS)]
        for i, session_id in enumerate(ids):
            rows = ROWS + [
                {"dept": f"only-{i}", "floor": 50 + i},
            ]
            _fresh(client, session_id, rows=rows)
        results: dict = {}
        failures: list = []

        def worker(i: int) -> None:
            try:
                session_id = ids[i]
                for _ in range(self.N_ROUNDS):
                    client.apply(
                        session_id,
                        {"ops": [
                            {
                                "op": "insert",
                                "relation": "emp",
                                "row": {"dept": f"only-{i}", "floor": 999},
                            }
                        ]},
                    )
                    client.apply(
                        session_id,
                        {"ops": [
                            {
                                "op": "delete",
                                "relation": "emp",
                                "row": {"dept": f"only-{i}", "floor": 999},
                            }
                        ]},
                    )
                results[i] = client.detect(ids[i])
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        for i in range(self.N_THREADS):
            # each session still has exactly its own FD violation; the
            # per-session "only-i" dept never leaked anywhere else
            assert results[i]["total"] == 1
            info = client.session_info(ids[i])
            assert info["relations"] == {"emp": 4}
        for session_id in ids:
            client.delete_session(session_id)


class TestEvictionAndMetrics:
    def test_lru_eviction_closes_oldest(self):
        server = make_server(port=0, max_sessions=2)
        server.start_background()
        try:
            client = ServerClient(base_url=server.base_url)
            client.wait_ready()
            for session_id in ("a", "b", "c"):
                client.create_session(
                    schema=SCHEMA_DOC,
                    rules=RULES_DOC,
                    data={"emp": ROWS},
                    session_id=session_id,
                )
            open_ids = {s["session"] for s in client.list_sessions()}
            assert open_ids == {"b", "c"}
            with pytest.raises(ServerError) as err:
                client.detect("a")
            assert err.value.status == 404
            # touching "b" makes "c" the LRU victim of the next create
            client.detect("b")
            client.create_session(
                schema=SCHEMA_DOC, rules=RULES_DOC,
                data={"emp": ROWS}, session_id="d",
            )
            open_ids = {s["session"] for s in client.list_sessions()}
            assert open_ids == {"b", "d"}
            assert client.metrics()["sessions"]["evicted_total"] == 2
        finally:
            server.shutdown()

    def test_metrics_track_requests_and_warm_engines(self):
        server = make_server(port=0)
        server.start_background()
        try:
            client = ServerClient(base_url=server.base_url)
            client.wait_ready()
            client.create_session(
                schema=SCHEMA_DOC, rules=RULES_DOC,
                data={"emp": ROWS}, session_id="m",
            )
            client.detect("m")
            # the first read built the engine it was answered from
            assert client.session_info("m")["warm_engine"] is True
            client.apply(
                "m",
                {"ops": [
                    {
                        "op": "insert",
                        "relation": "emp",
                        "row": {"dept": "qa", "floor": 7},
                    }
                ]},
            )
            # the /metrics request itself is recorded only after it responds
            metrics = client.metrics()
            assert metrics["requests_total"] >= 3
            detect_stats = metrics["endpoints"]["POST /sessions/{id}/detect"]
            assert detect_stats["count"] == 1
            assert detect_stats["seconds_total"] > 0
            assert detect_stats["seconds_max"] >= detect_stats["seconds_avg"]
            assert metrics["responses"]["200"] >= 2
            assert metrics["responses"]["201"] == 1
            engines = metrics["engines"]
            assert engines["warm_delta_engines"] == 1
            assert engines["delta_stats"]["batches"] == 1
            assert engines["delta_stats"]["ops_applied"] == 1
            assert engines["delta_stats"]["reports_served"] == 1
            assert metrics["sessions"]["open"] == 1
        finally:
            server.shutdown()

    def test_eviction_drops_warm_engine_state(self, client):
        """DELETE closes the session: Session.close() released the engine."""
        _fresh(client, "evict")
        client.apply(
            "evict",
            {"ops": [
                {
                    "op": "insert",
                    "relation": "emp",
                    "row": {"dept": "qa", "floor": 8},
                }
            ]},
        )
        assert client.session_info("evict")["warm_engine"] is True
        client.delete_session("evict")
        with pytest.raises(ServerError):
            client.session_info("evict")


class TestChangesetWireFormat:
    def test_round_trip_through_registry(self):
        changeset = (
            Changeset()
            .insert("emp", {"dept": "a", "floor": 1})
            .delete("emp", {"dept": "b", "floor": 2})
            .update("emp", {"dept": "c", "floor": 3}, floor=4)
        )
        document = changeset_to_dict(changeset)
        assert [op["op"] for op in document["ops"]] == [
            "insert",
            "delete",
            "update",
        ]
        assert document["ops"][2]["cells"] == {"floor": 4}
        rebuilt = changeset_from_dict(json.loads(json.dumps(document)))
        assert changeset_to_dict(rebuilt) == document

    def test_update_cells_may_shadow_parameter_names(self):
        """Attributes literally named 'relation' or 't' must survive the
        wire format (no **kwargs collision with Changeset.update)."""
        document = {
            "ops": [
                {
                    "op": "update",
                    "relation": "r",
                    "row": {"relation": "a", "t": 1},
                    "cells": {"relation": "b", "t": 2},
                }
            ]
        }
        rebuilt = changeset_from_dict(document)
        assert changeset_to_dict(rebuilt) == document

    def test_undo_changesets_serialize_from_tuples(self):
        db = _local_db()
        session = Session.from_instance(db, _local_rules())
        delta = session.apply(
            Changeset().insert("emp", {"dept": "qa", "floor": 9})
        )
        document = changeset_to_dict(delta.undo)
        assert document == {
            "ops": [
                {
                    "op": "delete",
                    "relation": "emp",
                    "row": {"dept": "qa", "floor": 9},
                }
            ]
        }


class TestDataRootConfinement:
    """Server-side paths (schema/rules/CSV) must stay inside --data-root:
    neither `..` traversal, absolute paths, nor symlinks may escape it."""

    @pytest.fixture()
    def confined(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (root / "schema.json").write_text(json.dumps(SCHEMA_DOC))
        (root / "rules.json").write_text(json.dumps(RULES_DOC))
        (root / "emp.csv").write_text(
            "dept,floor\n" + "\n".join(f"{r['dept']},{r['floor']}" for r in ROWS)
        )
        # a perfectly readable file one level above the root — the attack
        # target; any test that manages to load it has found the bug
        (tmp_path / "outside.json").write_text(json.dumps(SCHEMA_DOC))
        server = make_server(port=0, data_root=root)
        server.start_background()
        client = ServerClient(base_url=server.base_url)
        client.wait_ready()
        yield client, root, tmp_path
        server.shutdown()

    def test_inside_paths_resolve(self, confined):
        client, _, _ = confined
        info = client.create_session(
            schema="schema.json",
            rules="rules.json",
            data={"emp": "emp.csv"},
            session_id="inside",
        )
        assert info["relations"] == {"emp": 3}

    def test_relative_traversal_rejected(self, confined):
        client, _, _ = confined
        with pytest.raises(ServerError) as err:
            client.create_session(schema="../outside.json", session_id="esc")
        assert err.value.status == 400
        assert "../outside.json" in str(err.value)
        assert "escapes the data root" in str(err.value)

    def test_deep_traversal_in_data_rejected(self, confined):
        client, _, _ = confined
        with pytest.raises(ServerError) as err:
            client.create_session(
                schema="schema.json",
                data={"emp": "sub/../../outside.json"},
                session_id="esc2",
            )
        assert err.value.status == 400
        assert "escapes the data root" in str(err.value)

    def test_absolute_path_rejected(self, confined):
        client, _, tmp_path = confined
        for target in ("/etc/passwd", str(tmp_path / "outside.json")):
            with pytest.raises(ServerError) as err:
                client.create_session(schema=target, session_id="abs")
            assert err.value.status == 400
            assert "escapes the data root" in str(err.value)

    def test_symlink_escape_rejected(self, confined):
        client, root, tmp_path = confined
        link = root / "innocent.json"
        try:
            link.symlink_to(tmp_path / "outside.json")
        except OSError:
            pytest.skip("filesystem does not support symlinks")
        with pytest.raises(ServerError) as err:
            client.create_session(schema="innocent.json", session_id="sym")
        assert err.value.status == 400
        assert "escapes the data root" in str(err.value)

    def test_absolute_path_inside_root_still_works(self, confined):
        client, root, _ = confined
        info = client.create_session(
            schema=str(root / "schema.json"), session_id="absin"
        )
        assert info["relations"] == {"emp": 0}


class TestUndoTokenTable:
    """The undo-token OrderedDict is an LRU keyed by *creation* order; a
    failed replay must not promote its token to the MRU end (that would
    silently change which token the capacity bound evicts next)."""

    def _hosted(self, n_tokens: int = 3):
        from repro.server import HostedSession

        session = Session.from_instance(_local_db(), _local_rules())
        hosted = HostedSession("t", session)
        tokens = []
        for i in range(n_tokens):
            delta = session.apply(
                Changeset().insert("emp", {"dept": f"u{i}", "floor": 300 + i})
            )
            tokens.append(hosted.remember_undo(delta.undo))
        return hosted, tokens

    def test_peek_does_not_reorder(self):
        hosted, tokens = self._hosted()
        hosted.peek_undo(tokens[0])
        hosted.peek_undo(tokens[1])
        assert list(hosted._undo) == tokens

    def test_consume_retires_token(self):
        from repro.errors import ReproError

        hosted, tokens = self._hosted()
        hosted.peek_undo(tokens[1])
        hosted.consume_undo(tokens[1])
        with pytest.raises(ReproError):
            hosted.peek_undo(tokens[1])
        assert list(hosted._undo) == [tokens[0], tokens[2]]

    def test_capacity_evicts_in_creation_order_after_peek(self):
        """Regression: peeking (a failed replay) must leave the oldest
        token as the next capacity victim."""
        from repro.server import MAX_UNDO_TOKENS

        hosted, tokens = self._hosted(MAX_UNDO_TOKENS)
        hosted.peek_undo(tokens[0])  # pre-fix this promoted tokens[0]
        delta = hosted.session.apply(
            Changeset().insert("emp", {"dept": "over", "floor": 999})
        )
        hosted.remember_undo(delta.undo)
        assert tokens[0] not in hosted._undo  # oldest evicted, not tokens[1]
        assert tokens[1] in hosted._undo

    def test_failed_undo_over_http_keeps_token_and_order(
        self, client, server, monkeypatch
    ):
        from repro.errors import ReproError

        _fresh(client, "ord")
        tokens = []
        for i in range(3):
            delta = client.apply(
                "ord",
                {"ops": [
                    {
                        "op": "insert",
                        "relation": "emp",
                        "row": {"dept": f"o{i}", "floor": 200 + i},
                    }
                ]},
            )
            tokens.append(delta["undo_token"])

        def boom(self, changeset):
            raise ReproError("induced replay failure")

        with monkeypatch.context() as patch:
            patch.setattr(Session, "apply", boom)
            with pytest.raises(ServerError) as err:
                client.undo("ord", tokens[0])
            assert err.value.status == 400
            assert "induced replay failure" in str(err.value)
        # the failed replay burned nothing and reordered nothing
        assert client.session_info("ord")["undo_tokens"] == tokens
        # and the token is still replayable once the failure clears
        replay = client.undo("ord", tokens[0])
        assert "undo_token" in replay


def _local_db():
    from repro.relational.instance import DatabaseInstance
    from repro.rules_json import database_schema_from_dict

    db = DatabaseInstance(database_schema_from_dict(SCHEMA_DOC))
    for row in ROWS:
        db.relation("emp").add(row)
    return db


def _local_rules():
    from repro.rules_json import rules_from_list

    return rules_from_list(RULES_DOC)
