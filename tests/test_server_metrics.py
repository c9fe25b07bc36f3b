"""Prometheus exposition regression and the diagnostics endpoint.

The exposition contract: every leaf metric in the ``/metrics`` JSON
document appears in the text format (``seconds_avg`` is represented by
the ``_sum``/``_count`` pair per Prometheus convention), every family
declares HELP and TYPE before its samples, and two scrapes of the same
server are structurally identical (same families, same label sets, same
order) — only counter/gauge values may move between them.  The test
parser below is deliberately minimal: if it can round-trip the output,
so can a real scraper.
"""

from __future__ import annotations

import urllib.request

import pytest

from repro.client import ServerClient, ServerError
from repro.server import make_server
from repro.server.metrics import (
    _DURABILITY_COUNTERS,
    _SCALARS,
    DELTA_STAT_FIELDS,
    LATENCY_BUCKETS,
    prometheus_text,
)

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


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = make_server(port=0, state_dir=tmp_path_factory.mktemp("state"))
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def client(server):
    client = ServerClient(base_url=server.base_url)
    client.wait_ready()
    # some traffic so every metric section is populated
    try:
        client.delete_session("mx")
    except ServerError:
        pass
    client.create_session(
        schema=SCHEMA_DOC,
        rules=RULES_DOC,
        data={"emp": list(ROWS)},
        session_id="mx",
    )
    delta = client.apply(
        "mx",
        {"ops": [{"op": "insert", "relation": "emp",
                  "row": {"dept": "qa", "floor": 9}}]},
    )
    client.detect("mx")
    client.undo("mx", delta["undo_token"])
    return client


def parse_prometheus(text: str):
    """Minimal text-format (0.0.4) parser.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels, value)]}}`` and *enforces* the format rules the scraper
    relies on: HELP/TYPE precede samples, sample names belong to a
    declared family (modulo histogram suffixes), values parse as floats.
    """
    families: dict = {}
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"type": None, "help": help_text, "samples": []}
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name in families, f"TYPE before HELP for {name}"
            assert families[name]["type"] is None, f"duplicate TYPE {name}"
            assert kind in ("counter", "gauge", "histogram")
            families[name]["type"] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        sample, _, value_text = line.rpartition(" ")
        name, _, label_text = sample.partition("{")
        labels = {}
        if label_text:
            assert label_text.endswith("}")
            for pair in label_text[:-1].split(","):
                key, _, raw = pair.partition("=")
                assert raw.startswith('"') and raw.endswith('"'), pair
                labels[key] = raw[1:-1]
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)]
            if name.endswith(suffix) and base in families:
                if families[base]["type"] == "histogram":
                    family = base
                break
        assert family in families, f"sample before TYPE/HELP: {line!r}"
        assert families[family]["type"] is not None
        value = float(value_text)  # must parse
        families[family]["samples"].append((name, labels, value))
    for name, fam in families.items():
        assert fam["samples"], f"family {name} declared but empty"
    return families


class TestPrometheusExposition:
    def test_content_type_and_status(self, client):
        request = urllib.request.Request(
            f"{client.base_url}/v1/metrics?format=prometheus"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert (
                response.headers["Content-Type"]
                == "text/plain; version=0.0.4; charset=utf-8"
            )
            body = response.read().decode("utf-8")
        assert body.endswith("\n")
        parse_prometheus(body)

    def test_unknown_format_is_rejected(self, client):
        with pytest.raises(ServerError) as err:
            client._request("GET", "/metrics?format=xml")
        assert err.value.status == 400

    def test_every_json_scalar_is_exposed(self, client):
        # render from one JSON document (prometheus_text is pure), so
        # values compare exactly instead of skewing between two scrapes
        document = client.metrics()
        families = parse_prometheus(prometheus_text(document))
        assert set(families) == set(
            parse_prometheus(client.prometheus_metrics())
        )
        for section, json_key, name, kind, _ in _SCALARS:
            source = document.get(section, {}) if section else document
            if json_key not in source:
                continue
            assert name in families, f"{name} missing from exposition"
            assert families[name]["type"] == kind
            (sample,) = families[name]["samples"]
            assert sample[2] == pytest.approx(float(source[json_key]))

    def test_every_scalar_section_leaf_is_in_the_table(self, client):
        """A counter added to a section ``_SCALARS`` renders must be added
        to the table too, or it would reach JSON and never the text."""
        document = client.metrics()
        tabled: dict = {}
        for section, json_key, *_ in _SCALARS:
            tabled.setdefault(section, set()).add(json_key)
        for section, keys in tabled.items():
            source = document[section] if section else document
            leaves = {k for k, v in source.items() if not isinstance(v, dict)}
            assert leaves == keys, section or "top level"

    def test_edit_counters_exposed(self, client):
        document = client.metrics()
        edits = document["edits"]
        # a --state-dir server journals every edit, so none ran inline
        assert edits["edits_inline_total"] == 0
        assert edits["edits_pooled_total"] >= 2  # the fixture's apply + undo
        families = parse_prometheus(prometheus_text(document))
        for key in ("edits_inline_total", "edits_pooled_total"):
            family = families[f"repro_{key}"]
            assert family["type"] == "counter"
            assert family["samples"][0][2] == edits[key]

    def test_connection_counters_show_keep_alive_working(self, client):
        document = client.metrics()
        families = parse_prometheus(prometheus_text(document))
        accepted = families["repro_http_connections_accepted_total"]
        assert accepted["type"] == "counter"
        assert accepted["samples"][0][2] == document["connections_accepted_total"]
        is_open = families["repro_http_connections_open"]
        assert is_open["type"] == "gauge"
        assert is_open["samples"][0][2] == document["connections_open"] >= 1
        # the fixture's traffic rode one parked connection, not one each
        assert (
            1 <= document["connections_accepted_total"]
            < document["requests_total"] / 2
        )

    def test_responses_and_delta_and_durability_exposed(self, client):
        document = client.metrics()
        families = parse_prometheus(prometheus_text(document))

        responses = families["repro_responses_total"]
        statuses = {s[1]["status"] for s in responses["samples"]}
        assert statuses == {str(k) for k in document["responses"]}

        delta_stats = document["engines"]["delta_stats"]
        for field in DELTA_STAT_FIELDS:
            fam = families[f"repro_delta_{field}_total"]
            assert fam["samples"][0][2] == pytest.approx(
                float(delta_stats[field])
            )

        durability = document["durability"]
        assert families["repro_durability_enabled"]["samples"][0][2] == 1.0
        for counter in _DURABILITY_COUNTERS:
            fam = families[f"repro_durability_{counter}"]
            assert fam["samples"][0][2] == pytest.approx(
                float(durability[counter])
            )

    def test_latency_histogram_shape(self, client):
        document = client.metrics()
        families = parse_prometheus(prometheus_text(document))
        histogram = families["repro_request_duration_seconds"]
        assert histogram["type"] == "histogram"
        by_endpoint: dict = {}
        for name, labels, value in histogram["samples"]:
            by_endpoint.setdefault(labels["endpoint"], {})[
                (name, labels.get("le"))
            ] = value
        assert set(by_endpoint) == set(document["endpoints"])
        bounds = [f"{b:g}" for b in LATENCY_BUCKETS] + ["+Inf"]
        for endpoint, samples in by_endpoint.items():
            stats = document["endpoints"][endpoint]
            cumulative = [
                samples[("repro_request_duration_seconds_bucket", bound)]
                for bound in bounds
            ]
            assert cumulative == sorted(cumulative), "buckets not cumulative"
            count = samples[("repro_request_duration_seconds_count", None)]
            assert cumulative[-1] == count == stats["count"]
            total = samples[("repro_request_duration_seconds_sum", None)]
            assert total == pytest.approx(stats["seconds_total"])

    def test_structurally_deterministic_across_scrapes(self, client):
        def structure(text: str):
            families = parse_prometheus(text)
            return [
                (
                    name,
                    fam["type"],
                    fam["help"],
                    [(s[0], tuple(sorted(s[1].items())))
                     for s in fam["samples"]],
                )
                for name, fam in families.items()
            ]

        first = client.prometheus_metrics()
        client.detect("mx")  # move some counters between scrapes
        second = client.prometheus_metrics()
        assert structure(first) == structure(second)

    def test_renderer_is_pure(self, client):
        document = client.metrics()
        assert prometheus_text(document) == prometheus_text(document)

    def test_delta_counters_survive_an_engine_rebuild(self, client):
        """``repro_delta_*_total`` are counters: a failed apply — a client
        error that makes the engine rebuild its state — may not reset them.
        The insert ahead of the failing update moves a row, so its rollback
        puts one back under the engine, which is what rebuilds it."""

        def delta_totals():
            families = parse_prometheus(client.prometheus_metrics())
            return {
                field: families[f"repro_delta_{field}_total"]["samples"][0][2]
                for field in DELTA_STAT_FIELDS
            }

        client.create_session(
            schema=SCHEMA_DOC,
            rules=RULES_DOC,
            data={"emp": list(ROWS)},
            session_id="counters",
        )
        for floor in (7, 8):
            client.apply(
                "counters",
                {"ops": [{"op": "insert", "relation": "emp",
                          "row": {"dept": "eng", "floor": floor}}]},
            )
        before = delta_totals()
        assert before["batches"] >= 2 and before["keys_patched"] >= 2
        with pytest.raises(ServerError) as err:
            client.apply(
                "counters",
                {"ops": [{"op": "insert", "relation": "emp",
                          "row": {"dept": "eng", "floor": 9}},
                         {"op": "update", "relation": "emp",
                          "row": {"dept": "nobody", "floor": 0},
                          "cells": {"floor": 1}}]},
            )
        assert 400 <= err.value.status < 500
        after = delta_totals()
        assert all(after[field] >= before[field] for field in DELTA_STAT_FIELDS)
        assert after["rebuilds"] == before["rebuilds"] + 1


class TestDiagnostics:
    def test_diagnostics_document(self, client):
        client.detect("mx")
        doc = client.diagnostics("mx")
        assert doc["session"] == "mx"
        assert doc["relations"] == {"emp": 3}
        assert doc["rules"] == 1
        assert doc["requests"] >= 3
        assert doc["age_seconds"] >= doc["idle_seconds"] >= 0

        engine = doc["engine"]
        assert engine["warm_delta_engine"] is True
        assert set(engine["delta_stats"]) >= {"batches", "ops_applied"}

        locks = doc["locks"]
        assert locks["acquisitions"] >= 1
        assert locks["wait_seconds_total"] >= 0.0
        assert locks["wait_seconds_max"] >= 0.0

        degraded = doc["degraded"]
        assert degraded["degraded"] is False
        assert degraded["consecutive_failures"] == 0

        durability = doc["durability"]
        assert durability["enabled"] is True
        assert durability["generation"] >= 0

        assert isinstance(doc["undo_tokens"], list)

        # the fixture's undo, on the pool: the session is journaled
        last_edit = doc["last_edit"]
        assert last_edit["path"] == "pooled"
        assert last_edit["seconds"] > 0.0

    def test_unknown_session_404(self, client):
        with pytest.raises(ServerError) as err:
            client.diagnostics("missing")
        assert err.value.status == 404
