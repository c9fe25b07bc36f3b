"""SERVER — snapshot-hit throughput under N keep-alive clients.

The server (:mod:`repro.server.aio`) answers read verbs against
versioned session snapshots: a warm ``detect`` on an unchanged engine is
served straight from the snapshot cache on the event loop, without
queueing on the session's write lock or re-running detection.  This
driver measures that path under concurrency, over real HTTP round-trips:

* **scaling series** — N keep-alive clients (1 → 256) hammer warm
  ``POST /v1/sessions/{id}/detect``; each point records req/s and
  p50/p99 latency.  Every request after the first is a snapshot hit, so
  this is the cost of the event loop, the socket and the client — not of
  detection (``benchmarks/e2e``'s ``read_after_write`` times that).
* **read-p99-under-writers** — a write mix (apply/undo cycles) runs
  beside the readers; the figure of merit is the *reader* p99, which the
  server bounds by answering snapshot hits between invalidations.

Nothing is gated here: ``check_bench_regression.py`` holds each client
count's req/s to the committed ``BENCH_concurrency.json`` within its
tolerance band, on hosts with >=4 CPUs — below that, clients and server
share the cores and the numbers say nothing about a code regression.

    python benchmarks/bench_server_concurrency.py [--out BENCH_concurrency.json]
    python benchmarks/bench_server_concurrency.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import urlsplit

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.client import ServerClient
from repro.registry import encode
from repro.rules_json import database_schema_to_dict
from repro.server import make_server
from repro.workloads.customer import CustomerConfig, generate_customers

MIN_CPUS = 4
CLIENT_COUNTS = [1, 4, 16, 64, 256]
SMOKE_CLIENT_COUNTS = [1, 8]


def _workload(n_tuples: int) -> Dict[str, Any]:
    workload = generate_customers(CustomerConfig(n_tuples=n_tuples, seed=11))
    relation = workload.db.relation("customer")
    return {
        "schema": database_schema_to_dict(workload.db.schema),
        "rules": [encode(rule) for rule in workload.cfds()],
        "rows": [t.as_dict() for t in relation],
    }


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


class _Worker(threading.Thread):
    """One keep-alive HTTP client issuing a fixed request loop."""

    def __init__(
        self,
        base_url: str,
        request: Callable[[http.client.HTTPConnection], int],
        requests: int,
        barrier: threading.Barrier,
    ) -> None:
        super().__init__(daemon=True)
        parts = urlsplit(base_url)
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._request = request
        self._requests = requests
        self._barrier = barrier
        self.latencies: List[float] = []
        self.error: Optional[str] = None

    def run(self) -> None:
        try:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=120
            )
            # connect before the barrier, with retries: hundreds of
            # simultaneous connects can transiently overflow the accept
            # queue even with a deep backlog
            for attempt in range(50):
                try:
                    conn.connect()
                    break
                except OSError:
                    time.sleep(0.01 * (attempt + 1))
            else:
                conn.connect()
            self._barrier.wait()
            for _ in range(self._requests):
                started = time.perf_counter()
                status = self._request(conn)
                self.latencies.append(time.perf_counter() - started)
                if status != 200:
                    self.error = f"unexpected status {status}"
                    return
            conn.close()
        except Exception as exc:  # surfaced by the driver below
            self.error = repr(exc)


def _detect_request(session_id: str) -> Callable[..., int]:
    body = json.dumps({"include_violations": True})
    path = f"/v1/sessions/{session_id}/detect"
    headers = {"Content-Type": "application/json"}

    def issue(conn: http.client.HTTPConnection) -> int:
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        response.read()
        return response.status

    return issue


def _write_cycle_request(session_id: str) -> Callable[..., int]:
    """One apply+undo pair per call — a pure write load that invalidates
    any read snapshot on every cycle."""
    apply_path = f"/v1/sessions/{session_id}/apply"
    undo_path = f"/v1/sessions/{session_id}/undo"
    headers = {"Content-Type": "application/json"}
    changeset = json.dumps(
        {
            "ops": [
                {
                    "op": "insert",
                    "relation": "customer",
                    "row": None,  # patched below per workload
                }
            ]
        }
    )

    def issue(conn: http.client.HTTPConnection) -> int:
        conn.request("POST", apply_path, body=issue.changeset, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.status != 200:
            return response.status
        token = json.loads(raw)["undo_token"]
        conn.request(
            "POST",
            undo_path,
            body=json.dumps({"token": token}),
            headers=headers,
        )
        response = conn.getresponse()
        response.read()
        return response.status

    issue.changeset = changeset  # type: ignore[attr-defined]
    return issue


def _drive(
    base_url: str,
    request: Callable[..., int],
    clients: int,
    requests_per_client: int,
    writers: int = 0,
    writer_request: Optional[Callable[..., int]] = None,
) -> Dict[str, Any]:
    """Run ``clients`` readers (plus optional writers) to completion and
    aggregate reader latency."""
    barrier = threading.Barrier(clients + writers)
    readers = [
        _Worker(base_url, request, requests_per_client, barrier)
        for _ in range(clients)
    ]
    write_workers = [
        _Worker(base_url, writer_request, requests_per_client, barrier)
        for _ in range(writers)
    ]
    started = time.perf_counter()
    for worker in readers + write_workers:
        worker.start()
    for worker in readers:
        worker.join()
    elapsed = time.perf_counter() - started
    for worker in write_workers:
        worker.join()
    for worker in readers + write_workers:
        if worker.error is not None:
            raise RuntimeError(f"client worker failed: {worker.error}")
    latencies = sorted(
        latency for worker in readers for latency in worker.latencies
    )
    total = clients * requests_per_client
    return {
        "requests": total,
        "seconds": elapsed,
        "requests_per_second": total / elapsed if elapsed > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "p99_ms": _percentile(latencies, 0.99) * 1000.0,
    }


def _boot(documents: Dict[str, Any], session_id: str) -> Any:
    """A server hosting one warm session."""
    server = make_server(port=0, max_sessions=8)
    server.start_background()
    client = ServerClient(base_url=server.base_url, timeout=300.0)
    client.wait_ready()
    client.create_session(
        schema=documents["schema"],
        rules=documents["rules"],
        data={"customer": documents["rows"]},
        session_id=session_id,
    )
    client.detect(session_id)  # warm the engine outside the clock
    return server


def run(
    n_tuples: int,
    client_counts: List[int],
    total_requests: int,
    writer_requests: int,
) -> Dict[str, Any]:
    documents = _workload(n_tuples)
    sample_row = dict(documents["rows"][0])
    sample_row["phn"] = 9_999_999  # a fresh row: no clash with the workload
    write_request = _write_cycle_request("bench")
    write_request.changeset = json.dumps(  # type: ignore[attr-defined]
        {"ops": [{"op": "insert", "relation": "customer", "row": sample_row}]}
    )

    server = _boot(documents, "bench")
    series: List[Dict[str, Any]] = []
    try:
        detect = _detect_request("bench")
        for clients in client_counts:
            per_client = max(1, total_requests // clients)
            entry: Dict[str, Any] = {
                "clients": clients,
                "requests_per_client": per_client,
            }
            entry.update(_drive(server.base_url, detect, clients, per_client))
            series.append(entry)

        readers = min(16, max(client_counts))
        read_under_writers: Dict[str, Any] = {"writers": 2, "readers": readers}
        read_under_writers.update(
            _drive(
                server.base_url,
                detect,
                readers,
                max(1, writer_requests),
                writers=2,
                writer_request=write_request,
            )
        )
    finally:
        server.shutdown()

    return {
        "benchmark": "snapshot_hit_throughput",
        "workload": (
            "customer detect over HTTP: snapshot-hit throughput under N "
            "keep-alive clients"
        ),
        "n_tuples": n_tuples,
        "cpu_count": os.cpu_count() or 1,
        "min_cpus": MIN_CPUS,
        "series": series,
        "read_under_writers": read_under_writers,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_concurrency.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="few clients / few requests (CI smoke)",
    )
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args(argv)

    client_counts = SMOKE_CLIENT_COUNTS if args.smoke else CLIENT_COUNTS
    n_tuples = args.tuples or (500 if args.smoke else 2_000)
    total_requests = args.requests or (64 if args.smoke else 512)
    writer_requests = 4 if args.smoke else 32

    document = run(n_tuples, client_counts, total_requests, writer_requests)
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    for entry in document["series"]:
        print(
            f"{entry['clients']:>4} clients: "
            f"{entry['requests_per_second']:8.1f} req/s "
            f"(p50 {entry['p50_ms']:7.2f} ms, p99 {entry['p99_ms']:7.2f} ms)"
        )
    rw = document["read_under_writers"]
    print(
        f"read p99 under {rw['writers']} writers, {rw['readers']} readers: "
        f"{rw['p99_ms']:.2f} ms"
    )
    if document["cpu_count"] < MIN_CPUS:
        print(
            f"host has {document['cpu_count']} CPUs (regression gate needs "
            f">={MIN_CPUS}): clients and server share the cores"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
