"""Boot ``repro serve``, drive it closed-loop, measure, verify.

One single-threaded client keeps one request in flight against a server
subprocess on the default asyncio transport.  A run is: fresh boots (set-up
time; three before, two after), one discarded warm-up block, as many equal
blocks as fit in ``--seconds``, then — after the clock has stopped — a
verification block whose every response document is compared with an
offline shadow ``Session``.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
import http.client
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.client import ServerClient, ServerError
from repro.engine.delta import Changeset
from repro.relational.instance import DatabaseInstance
from repro.rules_json import database_schema_from_dict, rules_from_list
from repro.session import Session, ViolationReport
from repro.workloads.soak import canonical

from benchmarks.e2e.workloads import Step, Workload

REPO_ROOT = Path(__file__).resolve().parents[2]
#: fresh boots timed before and after the measured blocks; the two groups sit
#: some twenty seconds apart, so one slow spell of the machine cannot cover
#: them all
SETUP_BOOTS = (3, 2)


# --------------------------------------------------------------------------
# Estimators
# --------------------------------------------------------------------------


def fastest_per_position(blocks: Sequence[Sequence[float]]) -> List[float]:
    """For each position in a block, the least time any block spent there.

    ``blocks[b][k]`` is what position ``k`` took in block ``b``.  Every block
    does the same work in the same order, and a neighbour on a shared box
    can only add time to a request, never take any away — so the fastest of
    the repeats of one position is the closest any came to the program's own
    cost.  A calm spell has to last one cycle to be caught, not one block.
    """
    return [min(column) for column in zip(*blocks)]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def machine_spin_ms() -> float:
    """A fixed pure-Python loop, timed: tells a drifting machine from a
    drifting program.  Recorded beside the metrics, never used to rescale."""
    gc.collect()
    gc.disable()  # or it times the collector walking this process's heap
    try:
        started = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        return (time.perf_counter() - started) * 1e3
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# The server subprocess
# --------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class ServerProcess:
    """``python -m repro.cli serve`` (asyncio transport) as a child."""

    def __init__(self, work_dir: Path, durable: bool) -> None:
        self.work_dir = work_dir
        self.state_dir = work_dir / "state" if durable else None
        self.port = _free_port()
        self.process: Optional[subprocess.Popen] = None
        self.client = ServerClient(base_url=self.base_url, timeout=120.0)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", str(self.port), "--quiet",
        ]
        if self.state_dir is not None:
            # fsync on, default --snapshot-every
            command += ["--state-dir", str(self.state_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with open(self.work_dir / "server.log", "ab") as log:
            self.process = subprocess.Popen(
                command, env=env, cwd=self.work_dir, stdout=log, stderr=log
            )
        self.client.wait_ready(attempts=3000, delay=0.01)

    def kill(self) -> None:
        """SIGKILL and reap (also the crash half of the crash check)."""
        process, self.process = self.process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

    def discard(self) -> None:
        self.kill()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM in /proc/{self.pid}/status")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def disk_write_bytes(self) -> int:
        for line in Path(f"/proc/{self.pid}/io").read_text().splitlines():
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
        return 0


# --------------------------------------------------------------------------
# Sending one step
# --------------------------------------------------------------------------


def send(client: ServerClient, session_id: str, step: Step, token: Optional[str]) -> Dict[str, Any]:
    """One request through the stock client's public methods."""
    op = step.op
    if op == "detect":
        return client.detect(session_id, include_violations=step.body["include_violations"])
    if op == "apply":
        return client.apply(session_id, step.body)
    if op == "undo":
        return client.undo(session_id, token)
    if op == "create":
        body = step.body
        return client.create_session(
            schema=body["schema"], rules=body["rules"], data=body["data"],
            session_id=body["id"],
        )
    if op == "delete":
        return client.delete_session(session_id)
    raise ValueError(f"unknown op {op!r}")


def wire_request(session_id: str, step: Step, token: Optional[str]) -> Tuple[str, str, bytes]:
    """``(method, target, body bytes)`` — what :func:`send` puts on the wire."""
    op = step.op
    if op == "create":
        method, path, body = "POST", "/sessions", step.body
    elif op == "delete":
        method, path, body = "DELETE", f"/sessions/{session_id}", None
    elif op == "undo":
        method, path, body = "POST", f"/sessions/{session_id}/undo", {"token": token}
    else:
        method, path, body = "POST", f"/sessions/{session_id}/{op}", step.body
    raw = b"" if body is None else json.dumps(body, default=str).encode("utf-8")
    return method, "/v1" + path, raw


class RawConnection:
    """One keep-alive ``http.client`` connection: the same bytes as the
    stock client sends, without urllib and without a connect per request."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)

    def request(self, method: str, target: str, raw: bytes) -> Tuple[int, bytes]:
        headers = {"Accept": "application/json"}
        if raw:
            headers["Content-Type"] = "application/json"
        self.connection.request(method, target, body=raw or None, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


#: ``transport(cycle index, step index, method, target, body)`` → status, body
Transport = Callable[[int, int, str, str, bytes], Tuple[int, bytes]]


def exchanges(
    workload: Workload,
    cycles: Sequence[Sequence[Step]],
    transport: Transport,
    skip_snapshot_hits: bool = False,
) -> Iterator[Tuple[Step, bytes, int, bytes, Any]]:
    """Send each step as wire bytes through ``transport``, threading the
    undo token from an apply to its undo; yields ``(step, request body,
    status, response body, parsed document or None)``."""
    for c, cycle in enumerate(cycles):
        token: Optional[str] = None
        for s, step in enumerate(cycle):
            if skip_snapshot_hits and step.snapshot_hit:
                continue
            method, target, raw = wire_request(workload.session_id, step, token)
            status, payload = transport(c, s, method, target, raw)
            document = json.loads(payload) if 200 <= status < 300 else None
            if step.op == "apply" and document is not None:
                token = document.get("undo_token")
            yield step, raw, status, payload, document


def answer_ok(step: Step, document: Any) -> bool:
    """The cheap in-loop check: the violation count the step must report."""
    if step.expect is None:
        return isinstance(document, dict)
    key = "total" if step.op == "detect" else "remaining"
    return isinstance(document, dict) and document.get(key) == step.expect


# --------------------------------------------------------------------------
# The offline shadow
# --------------------------------------------------------------------------


def shadow_session(create_body: Dict[str, Any]) -> Session:
    """The session a create body describes, built offline the way the
    server's hosting layer builds it (row by row, in document order)."""
    db_schema = database_schema_from_dict(create_body["schema"])
    rules = rules_from_list(create_body["rules"], db_schema)
    db = DatabaseInstance(db_schema)
    for name, rows in create_body["data"].items():
        relation = db.relation(name)
        for row in rows:
            relation.add(row)
    return Session.from_instance(db, rules, executor="indexed")


class Shadow:
    """Answers each step offline; :meth:`expected` is what the server's
    response document must equal (the soak verifier's rule: canonical JSON
    equality), minus fields that are server-side state."""

    def __init__(self, workload: Workload) -> None:
        self.session_id = workload.session_id
        self.session: Optional[Session] = (
            shadow_session(workload.create_body) if workload.create_body else None
        )
        self._undo: Optional[Changeset] = None
        #: the last detect document and the state it was computed at:
        #: hot_reads asks 300 times for the same one
        self._detect: Tuple[Any, Dict[str, Any]] = (None, {})

    def expected(self, step: Step) -> Dict[str, Any]:
        op = step.op
        if op == "create":
            self.session = shadow_session(step.body)
            self._detect = (None, {})  # a dead session's ids can recur
            return {
                "session": step.body["id"],
                "relations": {
                    rel.schema.name: len(rel) for rel in self.session.database
                },
                "rules": len(self.session.rules),
            }
        assert self.session is not None
        if op == "delete":
            self.session = None
            return {"session": self.session_id, "closed": True}
        if op == "detect":
            full = step.body["include_violations"]
            key = (self.session.state_fingerprint(), full)
            if key != self._detect[0]:
                self._detect = (key, self.session.detect().to_dict(include_violations=full))
            return self._detect[1]
        changeset = Changeset.from_dict(step.body) if op == "apply" else self._undo
        delta = self.session.apply(changeset)
        self._undo = delta.undo
        return {
            "added": ViolationReport(list(delta.added)).to_dict()["violations"],
            "removed": ViolationReport(list(delta.removed)).to_dict()["violations"],
            "remaining": delta.remaining,
            "clean": delta.clean_after,
        }

    def matches(self, step: Step, document: Dict[str, Any]) -> bool:
        expected = self.expected(step)
        got = {key: document.get(key) for key in expected}
        return canonical(got) == canonical(expected)


# --------------------------------------------------------------------------
# One measured run
# --------------------------------------------------------------------------


class Tally:
    """Requests attempted and failed, across every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)


def run_cycle(
    server: ServerProcess,
    workload: Workload,
    cycle: Sequence[Step],
    tally: Tally,
    timings: Optional[List[Tuple[str, float]]] = None,
    span: Callable[[int], Any] = lambda step_index: nullcontext(),
) -> None:
    """One cycle through the stock client, each answer checked in the loop.

    ``timings`` grows by one ``(op, seconds)`` per request, in the order
    sent, failed ones included.  ``span(step index)`` is a context manager
    entered around each request; the traced run records its
    ``client.request`` spans through it.
    """
    client = server.client
    session_id = workload.session_id
    token: Optional[str] = None
    for s, step in enumerate(cycle):
        tally.attempted += 1
        document: Any = None
        started = time.perf_counter()
        try:
            with span(s):
                document = send(client, session_id, step, token)
        except ServerError as exc:
            tally.fail(f"{workload.name} {step.op}: {exc}")
        elapsed = time.perf_counter() - started
        if timings is not None:
            timings.append((step.op, elapsed))
        if document is None:
            continue
        if not answer_ok(step, document):
            tally.fail(f"{workload.name} {step.op}: expected {step.expect}")
        if step.op == "apply":
            token = document.get("undo_token")


def boot(workload: Workload, work_dir: Path, tally: Tally) -> Tuple[ServerProcess, List[float]]:
    """Spawn → healthz | sessions created | first cycle answered: the
    seconds each of the three phases of set-up took.

    The first cycle carries the lazy set-up a first request pays (index and
    delta-engine builds), so work moved there still shows in ``setup_s``.
    """
    server = ServerProcess(work_dir, workload.durable)
    marks = [time.perf_counter()]
    try:
        server.start()
        marks.append(time.perf_counter())
        if workload.create_body is not None:
            run_cycle(server, workload, [Step("create", workload.create_body, None)], tally)
        marks.append(time.perf_counter())
        run_cycle(server, workload, workload.cycle(0), tally)
        marks.append(time.perf_counter())
    except BaseException:
        server.discard()
        raise
    return server, [later - earlier for earlier, later in zip(marks, marks[1:])]


def measure_blocks(
    server: ServerProcess,
    workload: Workload,
    tally: Tally,
    seconds: float,
) -> Dict[str, Any]:
    """Blocks 1, 2, … for ``seconds`` seconds (two blocks at least).
    ``request_s[b][i]`` is what request ``i`` of block ``b`` took;
    ``ops[i]`` names its verb."""
    request_s: List[List[float]] = []
    ops: List[str] = []
    index = 1
    # the generator's own collector pauses are not the server's: collect
    # between blocks only, and never again over the workload's own documents
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(request_s) < 2:
        timings: List[Tuple[str, float]] = []
        gc.collect()
        gc.disable()
        try:
            for cycle in workload.block(index):
                run_cycle(server, workload, cycle, tally, timings)
        finally:
            gc.enable()
        ops = [op for op, _ in timings]
        request_s.append([elapsed for _, elapsed in timings])
        index += 1
    gc.unfreeze()
    return {"next_block": index, "ops": ops, "request_s": request_s}


def verify_block(
    server: ServerProcess,
    workload: Workload,
    block_index: int,
    tally: Tally,
) -> Tuple[Shadow, float]:
    """Replay one block over a raw connection against the shadow.

    Returns the shadow (now at the block's end state) and the request +
    response body bytes per request — a count, so it repeats exactly.
    """
    shadow = Shadow(workload)
    connection = RawConnection(server.port)
    wire_bytes = 0
    requests = 0
    last_token = 0
    try:
        for step, raw, status, payload, document in exchanges(
            workload,
            workload.block(block_index),
            lambda c, s, method, target, body: connection.request(method, target, body),
        ):
            tally.attempted += 1
            requests += 1
            wire_bytes += len(raw) + len(payload)
            if document is None:
                tally.fail(f"{workload.name} {step.op}: HTTP {status}")
                continue
            if not shadow.matches(step, document):
                tally.fail(f"{workload.name} {step.op}: differs from the shadow")
            if step.op == "create":
                last_token = 0
            if step.op in ("apply", "undo"):
                # tokens are server-side state: only their sequence is checked
                number = int(str(document.get("undo_token", "-0")).rpartition("-")[2])
                if last_token and number != last_token + 1:
                    tally.fail(f"{workload.name} {step.op}: token {number} after {last_token}")
                last_token = number
    finally:
        connection.close()
    return shadow, wire_bytes / requests / 1000.0


def rows_restored(shadow: Shadow, workload: Workload) -> bool:
    """Every cycle must leave the row set it found."""
    if not workload.base_rows:
        return shadow.session is None
    assert shadow.session is not None
    relation = next(iter(shadow.session.database))
    return {canonical(t.as_dict()) for t in relation} == {
        canonical(row) for row in workload.base_rows
    }


def crash_check(server: ServerProcess, workload: Workload, shadow: Shadow, tally: Tally) -> float:
    """Acknowledged apply → SIGKILL → restart on the same state dir →
    ``detect`` must equal the offline replay.  Returns restart → first
    correct detect, in milliseconds."""
    pending = workload.cycle(0)[0]
    tally.attempted += 2
    document = send(server.client, workload.session_id, pending, None)
    if not shadow.matches(pending, document):
        tally.fail(f"{workload.name}: pre-crash apply differs from the shadow")
    server.kill()
    started = time.perf_counter()
    server.start()
    detect = Step("detect", {"include_violations": True}, pending.expect)
    document = send(server.client, workload.session_id, detect, None)
    elapsed = time.perf_counter() - started
    if not shadow.matches(detect, document):
        tally.fail(f"{workload.name}: post-crash detect differs from the offline replay")
    return elapsed * 1e3


def run_workload(
    workload: Workload,
    work_dir: Path,
    seconds: float,
    boots: Tuple[int, int] = SETUP_BOOTS,
) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    tally = Tally()
    spin_before = machine_spin_ms()
    boot_phases: List[List[float]] = []
    for _ in range(boots[0] - 1):
        server, phases = boot(workload, work_dir, tally)
        server.discard()
        boot_phases.append(phases)
    server, phases = boot(workload, work_dir, tally)
    boot_phases.append(phases)
    try:
        for cycle in workload.block(0)[1:]:  # cycle 0 ran during set-up
            run_cycle(server, workload, cycle, tally)
        measured = measure_blocks(server, workload, tally, seconds)
        # the clock has stopped
        rss_mb = server.peak_rss_mb()
        shadow, wire_kb = verify_block(server, workload, measured["next_block"], tally)
        if not rows_restored(shadow, workload):
            tally.fail(f"{workload.name}: the verification block did not restore the row set")
        recover_ms = crash_check(server, workload, shadow, tally) if workload.durable else None
    finally:
        server.discard()
    for _ in range(boots[1]):
        server, phases = boot(workload, work_dir, tally)
        server.discard()
        boot_phases.append(phases)
    spin_after = machine_spin_ms()

    request_s: List[List[float]] = measured["request_s"]
    fastest = fastest_per_position(request_s)
    is_primary = [op == workload.primary_op for op in measured["ops"]]
    walls = [sum(block) for block in request_s]
    primary_ms = [
        [value * 1e3 for value, keep in zip(block, is_primary) if keep] for block in request_s
    ]
    every_primary = [value for block in primary_ms for value in block]
    return {
        "workload": workload.name,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "end_to_end": {
            "setup_s": sum(fastest_per_position(boot_phases)),
            "ops_per_s": len(fastest) / sum(fastest),
            "p50_ms": statistics.median(
                value for value, keep in zip(fastest, is_primary) if keep
            ) * 1e3,
            "server_peak_rss_mb": rss_mb,
            "wire_kb_per_op": wire_kb,
        },
        "diagnostics": {
            "primary_op": workload.primary_op,
            "blocks": len(walls),
            "cycles_per_block": workload.cycles_per_block,
            "requests_per_block": len(fastest),
            "mean_ops_per_s": len(fastest) * len(walls) / sum(walls),
            "best_block_ops_per_s": len(fastest) / min(walls),
            "all_p50_ms": percentile(every_primary, 50),
            "all_p95_ms": percentile(every_primary, 95),
            "all_p99_ms": percentile(every_primary, 99),
            "fastest_boot_s": min(sum(phases) for phases in boot_phases),
            "boot_phases_s": boot_phases,
            "block_wall_s": walls,
            "block_p50_ms": [statistics.median(block) for block in primary_ms],
            "ops": measured["ops"],
            "request_ms": [[round(value * 1e3, 4) for value in block] for block in request_s],
            "recover_ms": recover_ms,
            "machine_spin_ms": [spin_before, spin_after],
        },
    }
