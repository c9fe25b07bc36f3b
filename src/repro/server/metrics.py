"""Prometheus text exposition for the server's JSON metrics document.

``GET /metrics`` serves a nested JSON document (``ServiceCore.
metrics_document``); ``GET /metrics?format=prometheus`` feeds the same
document through :func:`prometheus_text` to produce the standard text
format (version 0.0.4) that a Prometheus scraper — or the regression
test's minimal parser — consumes.  The mapping is total: every leaf
metric in the JSON document appears as a sample here (``seconds_avg`` is
the one derived exception — Prometheus convention is to expose the
``_sum``/``_count`` pair and let the query layer divide).

Everything is rendered deterministically: family order is fixed by the
tables below, label values are sorted, floats go through ``repr`` — two
scrapes of the same document are byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.engine.delta import DeltaStats

__all__ = ["DELTA_STAT_FIELDS", "LATENCY_BUCKETS", "OPS_COUNTERS", "prometheus_text"]

#: upper bounds (seconds) of the request-latency histogram buckets; the
#: implicit ``+Inf`` bucket is appended by the recorder.
LATENCY_BUCKETS: Tuple[float, ...] = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5)

#: JSON section -> (json key, prometheus family, type, help) per scalar.
_SCALARS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("", "uptime_seconds", "repro_uptime_seconds", "gauge",
     "Seconds since the server started."),
    ("", "requests_total", "repro_requests_total", "counter",
     "HTTP requests handled, any endpoint, any status."),
    ("", "connections_accepted_total", "repro_http_connections_accepted_total",
     "counter", "Connections accepted; far below requests when kept alive."),
    ("", "connections_open", "repro_http_connections_open", "gauge",
     "Connections open now, parked between requests or mid-request."),
    ("sessions", "open", "repro_sessions_open", "gauge",
     "Resident (warm) hosted sessions."),
    ("sessions", "max_sessions", "repro_sessions_max", "gauge",
     "LRU eviction threshold for resident sessions."),
    ("sessions", "created_total", "repro_sessions_created_total", "counter",
     "Sessions created over the server lifetime."),
    ("sessions", "evicted_total", "repro_sessions_evicted_total", "counter",
     "Sessions evicted by LRU pressure."),
    ("sessions", "closed_total", "repro_sessions_closed_total", "counter",
     "Sessions closed by DELETE."),
    ("engines", "warm_delta_engines", "repro_warm_delta_engines", "gauge",
     "Hosted sessions with a built delta engine."),
    ("engines", "maintained_violations", "repro_maintained_violations",
     "gauge", "Violations currently maintained across warm delta engines."),
    ("degraded", "threshold", "repro_degraded_threshold", "gauge",
     "Consecutive handler failures that degrade a session (0 = disabled)."),
    ("degraded", "sessions_degraded", "repro_sessions_degraded", "gauge",
     "Resident sessions currently in the degraded state."),
    ("degraded", "degraded_total", "repro_sessions_degraded_total", "counter",
     "Times any session entered the degraded state."),
    ("degraded", "handler_failures_total", "repro_handler_failures_total",
     "counter", "Server-side (5xx-class) verb handler failures."),
    ("degraded", "probes_total", "repro_degraded_probes_total", "counter",
     "Recovery probes run against degraded sessions."),
    ("degraded", "recoveries_total", "repro_degraded_recoveries_total",
     "counter", "Degraded sessions recovered by a successful probe."),
    ("degraded", "rejected_total", "repro_degraded_rejected_total", "counter",
     "Requests fast-rejected (503) while a recovery probe was in flight."),
    ("snapshots", "snapshot_hits_total", "repro_snapshot_hits_total", "counter",
     "Reads answered from a session snapshot's cached bytes."),
    ("snapshots", "snapshots_kept_total", "repro_snapshots_kept_total",
     "counter", "Writes that changed no report and left the snapshot standing."),
    ("snapshots", "snapshots_dropped_total", "repro_snapshots_dropped_total",
     "counter", "Writes (and deletes) that ended the session's snapshot."),
    ("edits", "edits_inline_total", "repro_edits_inline_total", "counter",
     "Edits (apply / undo) whose handler ran on the event loop."),
    ("edits", "edits_pooled_total", "repro_edits_pooled_total", "counter",
     "Edits (apply / undo) whose handler ran on a verb-pool thread."),
)

#: ServerMetrics' named counters by /metrics section — the degraded gate's
#: lifecycle, the transport's snapshot layer and where its edits ran — in
#: ``_SCALARS`` order: a counter is named once, in the table above
OPS_COUNTERS: Dict[str, Tuple[str, ...]] = {
    section: tuple(
        key
        for where, key, _, kind, _ in _SCALARS
        if where == section and kind == "counter"
    )
    for section in ("degraded", "snapshots", "edits")
}

#: the DeltaStats counters the server reports: summed into /metrics
#: ``engines.delta_stats``, listed per session in diagnostics, and rendered
#: here as repro_delta_<field>_total.
DELTA_STAT_FIELDS: Tuple[str, ...] = DeltaStats.__slots__

#: durability counters from SessionStore.counters_snapshot().
_DURABILITY_COUNTERS: Tuple[str, ...] = (
    "snapshots_total",
    "snapshot_bytes_total",
    "snapshot_failures_total",
    "wal_records_total",
    "wal_bytes_total",
    "rehydrated_total",
)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(name: str, labels: Mapping[str, str], value: Any) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(labels[key]))}"'
            for key in sorted(labels)
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Family:
    """One metric family: the TYPE/HELP header plus its samples."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: List[str] = []

    def add(self, value: Any, labels: Mapping[str, str] | None = None,
            suffix: str = "") -> None:
        self.samples.append(_sample(self.name + suffix, labels or {}, value))

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        lines.extend(self.samples)
        return lines


def prometheus_text(document: Mapping[str, Any]) -> str:
    """Render the ``/metrics`` JSON document as Prometheus text format."""
    families: List[_Family] = []

    def family(name: str, kind: str, help_text: str) -> _Family:
        fam = _Family(name, kind, help_text)
        families.append(fam)
        return fam

    sections: Dict[str, Mapping[str, Any]] = {}
    for key in (
        "sessions", "engines", "degraded", "snapshots", "edits", "durability"
    ):
        value = document.get(key)
        sections[key] = value if isinstance(value, Mapping) else {}

    for section, json_key, name, kind, help_text in _SCALARS:
        source: Mapping[str, Any] = sections[section] if section else document
        if json_key not in source:
            continue
        family(name, kind, help_text).add(source[json_key])

    responses = document.get("responses")
    if isinstance(responses, Mapping):
        fam = family("repro_responses_total", "counter",
                     "HTTP responses by status code.")
        for status in sorted(responses):
            fam.add(responses[status], {"status": str(status)})

    endpoints = document.get("endpoints")
    if isinstance(endpoints, Mapping):
        histogram = family(
            "repro_request_duration_seconds", "histogram",
            "Request latency per endpoint template.")
        maxima = family(
            "repro_request_duration_seconds_max", "gauge",
            "Worst observed request latency per endpoint template.")
        for endpoint in sorted(endpoints):
            stats = endpoints[endpoint]
            if not isinstance(stats, Mapping):
                continue
            labels = {"endpoint": str(endpoint)}
            buckets = stats.get("seconds_bucket")
            if isinstance(buckets, Mapping):
                for bound in [f"{b:g}" for b in LATENCY_BUCKETS] + ["+Inf"]:
                    if bound in buckets:
                        histogram.add(
                            buckets[bound],
                            {**labels, "le": bound},
                            suffix="_bucket",
                        )
            histogram.add(
                stats.get("seconds_total", 0.0), labels, suffix="_sum")
            histogram.add(stats.get("count", 0), labels, suffix="_count")
            maxima.add(stats.get("seconds_max", 0.0), labels)

    delta = sections["engines"].get("delta_stats")
    if isinstance(delta, Mapping):
        for field in DELTA_STAT_FIELDS:
            if field not in delta:
                continue
            family(
                f"repro_delta_{field}_total", "counter",
                f"DeltaStats.{field} summed over warm delta engines.",
            ).add(delta[field])

    durability = sections["durability"]
    if durability:
        family(
            "repro_durability_enabled", "gauge",
            "1 when the server runs with a --state-dir, else 0.",
        ).add(bool(durability.get("enabled")))
        for counter in _DURABILITY_COUNTERS:
            if counter not in durability:
                continue
            family(
                f"repro_durability_{counter}", "counter",
                f"Durability store counter {counter}.",
            ).add(durability[counter])
        if "cold_sessions" in durability:
            family(
                "repro_durability_cold_sessions", "gauge",
                "Durable sessions on disk but not resident.",
            ).add(durability["cold_sessions"])

    lines: List[str] = []
    for fam in families:
        lines.extend(fam.render())
    return "\n".join(lines) + "\n"
