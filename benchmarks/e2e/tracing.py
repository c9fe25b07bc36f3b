"""The traced run: where a request's time goes, layer by layer.

Because every cycle returns to the row set it began with, the same block
of requests is replayed four ways, and the layers fall out as differences
and nested spans:

1. through the stock ``ServerClient`` against the server subprocess;
2. the identical bytes over one keep-alive ``http.client`` connection
   (pass 1 − pass 2 = what the client adds);
3. in process, ``ServiceCore.handle`` on a twin built from the same
   documents (pass 2 − pass 3 = what the asyncio transport adds);
4. pass 3 again with the public functions a handler calls wrapped in
   spans from here, so ``handle``'s time splits into named children.

Nothing in ``src/`` is touched: spans are recorded by this file, around
the calls into each layer, kept in memory and written out at exit.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.engine.executor as executor_module
import repro.engine.kernels as kernels_module
import repro.rules_json as rules_json_module
import repro.server.durability as durability_module
from repro.engine.delta import Changeset, DeltaEngine
from repro.engine.executor import ExecutionStats
from repro.relational.instance import DatabaseInstance
from repro.rules_json import database_schema_from_dict
from repro.server.core import ServiceCore, parse_body_bytes
from repro.server.durability import SessionJournal
from repro.server.hosting import DEFAULT_DEGRADED_AFTER, ServerMetrics, SessionManager
from repro.session import Session, ViolationReport

from benchmarks.e2e import harness
from benchmarks.e2e.harness import RawConnection, ServerProcess, Tally, percentile, wire_request
from benchmarks.e2e.spec import PER_LAYER
from benchmarks.e2e.workloads import RELATION, Step, Workload

#: a span: [name, pass, request id, start, end, parent index or None]
Span = List[Any]
NAME, PASS, REQUEST, START, END, PARENT = range(6)


class Tracer:
    """Nested spans and counters, recorded by the benchmark around calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.pass_name = ""
        self.request = ""
        self._open: List[int] = []
        self._wrapped: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record: Span = [name, self.pass_name, self.request, 0.0, 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        probe: Optional[Callable[["Tracer", tuple, dict], Callable[[Any], None]]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``probe(tracer, args, kwargs)`` runs before the call and returns
        what to run on its result: that is how counters are read from the
        public stats objects on either side of the call.
        """
        raw = inspect.getattr_static(owner, attribute)
        function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw

        @wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            done = probe(self, args, kwargs) if probe is not None else None
            with self.span(name):
                result = function(*args, **kwargs)
            if done is not None:
                done(result)
            return result

        self._wrapped.append((owner, attribute, raw))
        setattr(owner, attribute, type(raw)(wrapper) if function is not raw else wrapper)

    def unwrap(self) -> None:
        while self._wrapped:
            owner, attribute, raw = self._wrapped.pop()
            setattr(owner, attribute, raw)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def totals_by_name(spans: Sequence[Span], values: Sequence[float]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, value in zip(spans, values):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + value
    return totals


# --------------------------------------------------------------------------
# Probes: counters read from the public stats objects around a call
# --------------------------------------------------------------------------


def _index_probe(tracer: "Tracer", args: tuple, kwargs: dict) -> Callable[[Any], None]:
    stats = [relation.indexes.stats for relation in args[0].database]
    before = [(s.builds, s.hits, s.invalidations) for s in stats]

    def done(result: Any) -> None:
        tracer.count("detects")
        for s, (builds, hits, invalidations) in zip(stats, before):
            tracer.count("engine.indexes.builds", s.builds - builds)
            tracer.count("engine.indexes.hits", s.hits - hits)
            tracer.count("engine.indexes.invalidations", s.invalidations - invalidations)

    return done


def _execution_probe(tracer: "Tracer", args: tuple, kwargs: dict) -> Callable[[Any], None]:
    # ``execute_plan`` only fills a stats object its caller handed in
    stats = kwargs.setdefault("stats", ExecutionStats()) if len(args) < 3 else args[2]

    def done(result: Any) -> None:
        tracer.count("engine.executor.partitions_built", stats.partitions_built)
        tracer.count("engine.executor.groups_swept", stats.groups_swept)

    return done


_DELTA_FIELDS = ("keys_patched", "keys_reevaluated", "fallback_rescans")


def _delta_probe(tracer: "Tracer", args: tuple, kwargs: dict) -> Callable[[Any], None]:
    stats = args[0].stats
    before = [getattr(stats, field) for field in _DELTA_FIELDS]

    def done(result: Any) -> None:
        tracer.count("applies")
        for field, value in zip(_DELTA_FIELDS, before):
            tracer.count(f"engine.delta.{field}", getattr(stats, field) - value)

    return done


def _wal_probe(tracer: "Tracer", args: tuple, kwargs: dict) -> Callable[[Any], None]:
    def done(frame: bytes) -> None:
        tracer.count("wal_records")
        tracer.count("wal_bytes", len(frame))

    return done


def install(tracer: Tracer) -> None:
    """Wrap the public functions a verb handler calls, layer by layer."""
    tracer.wrap(ServiceCore, "render_json", "server.core.render_json")
    tracer.wrap(Session, "detect", "session.detect", _index_probe)
    tracer.wrap(ViolationReport, "to_dict", "session.to_dict")
    tracer.wrap(Session, "apply", "session.apply")
    tracer.wrap(executor_module, "plan_detection", "engine.planner.plan")
    tracer.wrap(executor_module, "execute_plan", "engine.executor.execute", _execution_probe)
    tracer.wrap(kernels_module, "build_layout", "engine.kernels.build_layout")
    tracer.wrap(kernels_module, "task_flags", "engine.kernels.task_flags")
    tracer.wrap(DeltaEngine, "__init__", "engine.delta.build")
    tracer.wrap(DeltaEngine, "apply", "engine.delta.apply", _delta_probe)
    tracer.wrap(Changeset, "from_dict", "registry.changeset_from_dict")
    tracer.wrap(durability_module, "wal_record_to_bytes", "registry.wal_record_to_bytes", _wal_probe)
    tracer.wrap(rules_json_module, "rules_from_list", "rules_json.rules_from_list")
    tracer.wrap(SessionManager, "create", "server.hosting.create")
    tracer.wrap(SessionManager, "remove", "server.hosting.remove")
    tracer.wrap(SessionJournal, "log_apply", "server.durability.log_apply")
    tracer.wrap(SessionJournal, "log_undo", "server.durability.log_undo")
    tracer.wrap(SessionJournal, "write_snapshot", "server.durability.write_snapshot")


# --------------------------------------------------------------------------
# The in-process twin
# --------------------------------------------------------------------------


class Twin:
    """``ServiceCore`` over its own ``SessionManager``: the server minus
    sockets, the event loop, the asyncio lock and the executor hop."""

    def __init__(self, state_dir: Optional[Path]) -> None:
        self.manager = SessionManager(state_dir=state_dir)
        self.core = ServiceCore(self.manager, ServerMetrics(), DEFAULT_DEGRADED_AFTER)

    def handle(self, method: str, target: str, raw: bytes, tracer: Optional[Tracer] = None) -> Tuple[int, bytes]:
        if tracer is None:
            response = self.core.handle(method, target, lambda: parse_body_bytes(raw))
        else:
            def read_body() -> Any:
                with tracer.span("server.core.parse_body"):
                    return parse_body_bytes(raw)

            with tracer.span("server.core.handle"):
                response = self.core.handle(method, target, read_body)
        return response.status, response.body

    def close(self) -> None:
        self.manager.close_all()


def _replay_in_process(
    twin: Twin,
    workload: Workload,
    cycles: Sequence[Sequence[Step]],
    block: int,
    tally: Tally,
    tracer: Optional[Tracer],
) -> float:
    """One block through ``ServiceCore.handle``; returns the time spent
    inside it.  Snapshot hits never reach the core on the real server, so
    they cost nothing here either."""
    inside = 0.0

    def transport(c: int, s: int, method: str, target: str, raw: bytes) -> Tuple[int, bytes]:
        nonlocal inside
        if tracer is not None:
            tracer.request = f"{block}:{c}:{s}"
        started = time.perf_counter()
        answer = twin.handle(method, target, raw, tracer)
        inside += time.perf_counter() - started
        return answer

    for step, _, status, _, document in harness.exchanges(
        workload, cycles, transport, skip_snapshot_hits=True
    ):
        if not harness.answer_ok(step, document):
            tally.fail(f"{workload.name} {step.op}: in-process answer {status}")
    return inside


# --------------------------------------------------------------------------
# The traced run
# --------------------------------------------------------------------------


def _handler_totals(metrics: Dict[str, Any]) -> Tuple[float, int]:
    seconds, count = 0.0, 0
    for endpoint, stats in metrics["endpoints"].items():
        if endpoint not in ("GET /metrics", "GET /healthz"):
            seconds += stats["seconds_total"]
            count += stats["count"]
    return seconds, count


def _connect_ms(server: ServerProcess, samples: int = 40) -> float:
    """A request on a fresh connection minus one on a kept connection."""
    kept = RawConnection(server.port)
    kept_times, fresh_times = [], []
    try:
        for _ in range(samples):
            started = time.perf_counter()
            kept.request("GET", "/v1/healthz", b"")
            kept_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            fresh = RawConnection(server.port)
            fresh.request("GET", "/v1/healthz", b"")
            fresh.close()
            fresh_times.append(time.perf_counter() - started)
    finally:
        kept.close()
    return (statistics.median(fresh_times) - statistics.median(kept_times)) * 1e3


def _extend_rows_ms(create_body: Dict[str, Any]) -> float:
    """``RelationInstance.extend_rows`` over the workload's rows."""
    relation = DatabaseInstance(database_schema_from_dict(create_body["schema"])).relation(RELATION)
    names = relation.schema.attribute_names
    rows = [tuple(row[name] for name in names) for row in create_body["data"][RELATION]]
    started = time.perf_counter()
    relation.extend_rows(rows)
    return (time.perf_counter() - started) * 1e3


class _Sums:
    """Running totals over the traced blocks."""

    def __init__(self) -> None:
        self.requests = 0
        self.request_bytes = 0
        self.response_bytes = 0
        self.write_bytes = 0  # apply and undo bodies: the user's bytes
        self.timings: List[Tuple[str, float]] = []  # (op, seconds), pass 1
        self.pass1_wall = 0.0
        self.cpu_s = 0.0
        self.disk_bytes = 0
        self.handler_s = 0.0
        self.handler_count = 0
        self.snapshots = 0
        self.handle_s = 0.0  # inside ServiceCore.handle, untraced
        self.traced_handle_s = 0.0


def _pass_client(
    server: ServerProcess, workload: Workload, cycles: Sequence[Sequence[Step]],
    block: int, tracer: Tracer, tally: Tally, sums: _Sums,
) -> None:
    """Pass 1: the stock client, with the server's own accounting read on
    either side (``/v1/metrics``, ``/proc/<pid>/stat``, ``/proc/<pid>/io``)."""
    before = server.client.metrics()
    cpu_before, disk_before = server.cpu_seconds(), server.disk_write_bytes()
    tracer.pass_name = "client"
    started = time.perf_counter()
    for c, cycle in enumerate(cycles):
        def span(s: int, c: int = c) -> Any:
            tracer.request = f"{block}:{c}:{s}"
            return tracer.span("client.request")

        harness.run_cycle(server, workload, cycle, tally, sums.timings, span)
    sums.pass1_wall += time.perf_counter() - started
    sums.cpu_s += server.cpu_seconds() - cpu_before
    sums.disk_bytes += server.disk_write_bytes() - disk_before
    after = server.client.metrics()
    seconds_before, count_before = _handler_totals(before)
    seconds_after, count_after = _handler_totals(after)
    sums.handler_s += seconds_after - seconds_before
    sums.handler_count += count_after - count_before
    if workload.durable:
        sums.snapshots += (
            after["durability"]["snapshots_total"] - before["durability"]["snapshots_total"]
        )


def _pass_raw(
    connection: RawConnection, workload: Workload, cycles: Sequence[Sequence[Step]],
    block: int, tracer: Tracer, tally: Tally, sums: _Sums,
) -> None:
    """Pass 2: the same bytes over one kept connection."""
    tracer.pass_name = "raw"

    def transport(c: int, s: int, method: str, target: str, raw: bytes) -> Tuple[int, bytes]:
        tracer.request = f"{block}:{c}:{s}"
        with tracer.span("server.aio.roundtrip"):
            return connection.request(method, target, raw)

    for step, raw, status, payload, document in harness.exchanges(workload, cycles, transport):
        tally.attempted += 1
        sums.requests += 1
        sums.request_bytes += len(raw)
        sums.response_bytes += len(payload)
        if step.op in ("apply", "undo"):
            sums.write_bytes += len(raw)
        if not harness.answer_ok(step, document):
            tally.fail(f"{workload.name} {step.op}: raw answer {status}")


def trace_workload(
    workload: Workload, work_dir: Path, seconds: float, out_dir: Path
) -> Dict[str, Any]:
    """The traced run: every per-layer metric of one workload."""
    tally = Tally()
    tracer = Tracer()
    sums = _Sums()
    create_body = workload.create_body or workload.cycle(0)[0].body
    extend_rows_ms = _extend_rows_ms(create_body)

    server, _ = harness.boot(workload, work_dir, tally)
    twin = Twin(work_dir / "twin-state" if workload.durable else None)
    try:
        if workload.create_body is not None:
            twin.handle(*wire_request(
                workload.session_id, Step("create", workload.create_body, None), None
            ))
        warm_up = workload.block(0)
        for cycle in warm_up[1:]:  # cycle 0 ran during boot
            harness.run_cycle(server, workload, cycle, tally)
        _replay_in_process(twin, workload, warm_up, 0, tally, None)

        connection = RawConnection(server.port)
        block = 1
        started = time.perf_counter()
        while block == 1 or time.perf_counter() - started < seconds:
            cycles = workload.block(block)
            _pass_client(server, workload, cycles, block, tracer, tally, sums)
            _pass_raw(connection, workload, cycles, block, tracer, tally, sums)
            # pass 3: in process, untraced; pass 4: in process, traced
            sums.handle_s += _replay_in_process(twin, workload, cycles, block, tally, None)
            tracer.pass_name = "core"
            install(tracer)
            try:
                sums.traced_handle_s += _replay_in_process(
                    twin, workload, cycles, block, tally, tracer
                )
            finally:
                tracer.unwrap()
            block += 1
        connection.close()

        connect_ms = _connect_ms(server)
        recover_ms = 0.0
        if workload.durable:
            recover_ms = harness.crash_check(server, workload, harness.Shadow(workload), tally)
    finally:
        twin.close()
        server.discard()

    spans = tracer.spans
    total = totals_by_name(spans, [span[END] - span[START] for span in spans])
    own = totals_by_name(spans, self_times(spans))
    counters = tracer.counters
    requests = sums.requests
    client_s = total.get("client.request", 0.0)
    raw_s = total.get("server.aio.roundtrip", 0.0)

    def per_request(seconds_total: float) -> float:
        return seconds_total / requests * 1e3

    def per(counter: str, events: str) -> float:
        return counters.get(counter, 0) / max(counters.get(events, 0), 1)

    all_latencies = [seconds for _, seconds in sums.timings]
    by_op: Dict[str, List[float]] = {}
    for op, seconds in sums.timings:
        by_op.setdefault(op, []).append(seconds)
    slow = sum(
        sum(1 for v in values if v > 3 * statistics.median(values))
        for values in by_op.values()
    )
    overhead_ms = per_request(client_s - raw_s)
    transport_ms = per_request(raw_s - sums.handle_s)
    under_handle_ms = per_request(sum(
        seconds for name, seconds in own.items()
        if name not in ("client.request", "server.aio.roundtrip", "server.core.handle")
    ))

    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in metrics:
        if name.endswith("_ms") and name[:-3] in total:
            metrics[name] = per_request(total[name[:-3]])
    metrics.update({
        "client.request_p95_ms": percentile(all_latencies, 95) * 1e3,
        "client.request_p99_ms": percentile(all_latencies, 99) * 1e3,
        "client.slow_share": slow / len(all_latencies),
        "client.overhead_ms": overhead_ms,
        "server.aio.connect_ms": connect_ms,
        "server.aio.transport_ms": transport_ms,
        "server.process.cpu_ms_per_op": per_request(sums.cpu_s),
        "server.process.cpu_share": sums.cpu_s / sums.pass1_wall,
        "server.metrics.handler_ms": sums.handler_s / max(sums.handler_count, 1) * 1e3,
        "server.core.handle_ms": per_request(sums.handle_s),
        "server.core.self_ms": per_request(own.get("server.core.handle", 0.0)),
        "server.core.request_bytes": sums.request_bytes / requests,
        "server.core.response_bytes": sums.response_bytes / requests,
        "engine.executor.partitions_built": per("engine.executor.partitions_built", "detects"),
        "engine.executor.groups_swept": per("engine.executor.groups_swept", "detects"),
        "engine.indexes.builds": per("engine.indexes.builds", "detects"),
        "engine.indexes.hits": per("engine.indexes.hits", "detects"),
        "engine.indexes.invalidations": per("engine.indexes.invalidations", "detects"),
        "engine.delta.keys_patched": per("engine.delta.keys_patched", "applies"),
        "engine.delta.keys_reevaluated": per("engine.delta.keys_reevaluated", "applies"),
        "engine.delta.fallback_rescans": per("engine.delta.fallback_rescans", "applies"),
        "relational.instance.extend_rows_ms": extend_rows_ms,
        "server.durability.snapshots": float(sums.snapshots),
        "server.durability.wal_bytes_per_op": per("wal_bytes", "wal_records"),
        "server.durability.disk_bytes_per_user_byte": (
            sums.disk_bytes / sums.write_bytes if workload.durable else 0.0
        ),
        "server.durability.recover_ms": recover_ms,
        "trace.attributed_fraction": (overhead_ms + transport_ms + under_handle_ms)
        / per_request(client_s),
        "trace.overhead_fraction": (
            sums.traced_handle_s / sums.handle_s - 1.0 if sums.handle_s else 0.0
        ),
    })

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}.json"
    origin = spans[0][START]
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "columns": ["name", "pass", "request", "start_ms", "end_ms", "parent"],
                "spans": [
                    [s[NAME], s[PASS], s[REQUEST], round((s[START] - origin) * 1e3, 4),
                     round((s[END] - origin) * 1e3, 4), s[PARENT]]
                    for s in spans
                ],
                "counters": counters,
            },
            handle,
        )
    return {
        "workload": workload.name,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "per_layer": metrics,
        "diagnostics": {
            "traced_blocks": block - 1,
            "traced_requests": requests,
            "spans": len(spans),
            "trace_file": str(trace_path),
        },
    }
