"""Multi-tenant soak harness with live byte-verification.

The missing workload (ROADMAP item 5): hundreds of named sessions driven
over *real HTTP* with Zipf-skewed popularity, bursty edit batches riding
:mod:`repro.workloads.stream`, adversarial corpus-style rule sets
(:mod:`repro.workloads.tenants`), mixed verbs (detect / apply / undo /
repair / rules round-trips), LRU eviction pressure from a small
``--max-sessions``, and optional SIGKILL crash/restart cycles against a
durable ``--state-dir`` server.

The soak is a *correctness instrument*, not just a load generator: every
tenant keeps an offline shadow :class:`~repro.session.Session` mutated in
lock-step with the server, plus a replayable edit history.  An online
verifier thread replays sampled histories through a fresh offline
session and compares the served detect document against the offline one
as canonical JSON (:func:`canonical`: both documents dumped the way the
CLI prints ``--format json``, so keys, key order and values must agree;
the wire's own whitespace is not part of the contract); a final pass verifies
*every* tenant.  Any divergence aborts the run and is minimized to the
first history step where a fresh served session and the offline replay
disagree — the reproducer (tenant id, batch index, changeset document)
is written out for a bug report.

Three server arrangements:

* :class:`ServerProcess` — ``repro serve`` in a child process; crash
  cycles are real ``SIGKILL`` + restart on the same state dir (the CLI
  path, ``repro soak``);
* :class:`InProcessServer` — ``make_server`` in this process with a
  crash-*like* hard restart (``shutdown()``: journals closed without a
  snapshot, so recovery replays the WAL tail) — what the tier-1 tests
  use;
* :class:`ExternalServer` — any ``--url``; no restarts.
"""

from __future__ import annotations

import json
import os
import queue
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import ServerClient, ServerError
from repro.engine.delta import Changeset
from repro.errors import ReproError
from repro.workloads.stream import StreamConfig, stream_edits
from repro.workloads.tenants import (
    TenantSpec,
    make_tenants,
    random_rule_documents,
    zipf_weights,
)

__all__ = [
    "SoakConfig",
    "SoakReport",
    "ServerProcess",
    "InProcessServer",
    "ExternalServer",
    "run_soak",
    "run_from_args",
    "smoke_config",
    "canonical",
    "offline_detect",
]

#: history entry: ("apply", changeset_doc) or ("rules", docs, replace)
HistoryEntry = Tuple[Any, ...]


def canonical(document: Any) -> str:
    """The encoding documents are compared in, end to end.

    This is how the CLI prints ``--format json``.  Dumping a parsed served
    document and an offline one this way and comparing the strings holds
    them to the same keys, key order and values — canonical-JSON equality —
    whatever whitespace the wire used."""
    return json.dumps(document, indent=2, default=str)


class SoakConfig:
    """Knobs for one soak run (all deterministic given ``seed``)."""

    def __init__(
        self,
        tenants: int = 200,
        ops: int = 4000,
        seed: int = 11,
        workers: int = 8,
        zipf_exponent: float = 1.1,
        batch_max: int = 8,
        burst_size: int = 32,
        burst_probability: float = 0.08,
        verify_every: int = 25,
        max_rules: int = 10,
        max_undo_stash: int = 4,
        restarts: int = 1,
        max_sessions: int = 48,
        degraded_after: int = 5,
    ) -> None:
        if tenants < 1 or ops < 1 or workers < 1:
            raise ReproError("soak needs >= 1 tenant, op and worker")
        self.tenants = tenants
        self.ops = ops
        self.seed = seed
        self.workers = min(workers, tenants)
        self.zipf_exponent = zipf_exponent
        self.batch_max = max(1, batch_max)
        self.burst_size = max(1, burst_size)
        self.burst_probability = burst_probability
        self.verify_every = max(1, verify_every)
        self.max_rules = max_rules
        self.max_undo_stash = max(1, max_undo_stash)
        self.restarts = max(0, restarts)
        self.max_sessions = max_sessions
        self.degraded_after = degraded_after

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenants": self.tenants,
            "ops": self.ops,
            "seed": self.seed,
            "workers": self.workers,
            "zipf_exponent": self.zipf_exponent,
            "batch_max": self.batch_max,
            "burst_size": self.burst_size,
            "burst_probability": self.burst_probability,
            "verify_every": self.verify_every,
            "max_rules": self.max_rules,
            "max_undo_stash": self.max_undo_stash,
            "restarts": self.restarts,
            "max_sessions": self.max_sessions,
            "degraded_after": self.degraded_after,
        }


def smoke_config(seed: int = 20260807) -> SoakConfig:
    """The CI smoke preset: ~30s, one crash/restart cycle, heavy
    eviction-rehydration churn (16 tenants through 6 resident slots)."""
    return SoakConfig(
        tenants=16,
        ops=320,
        seed=seed,
        workers=4,
        batch_max=6,
        burst_size=24,
        verify_every=12,
        restarts=1,
        max_sessions=6,
    )


class SoakReport:
    """What the soak did and whether served == offline everywhere."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.counters: Dict[str, int] = {}
        self.divergence: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.elapsed_seconds = 0.0

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "config": self.config.to_dict(),
            "counters": dict(sorted(self.counters.items())),
            "elapsed_seconds": self.elapsed_seconds,
            "divergence": self.divergence,
            "error": self.error,
        }

    def summary(self) -> str:
        verbs = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.counters.items())
            if count
        )
        status = "OK" if self.ok else (
            "DIVERGENCE" if self.divergence is not None else "ERROR"
        )
        lines = [
            f"soak {status}: {self.config.tenants} tenants, "
            f"{self.counters.get('ops', 0)} ops in "
            f"{self.elapsed_seconds:.1f}s",
            f"  {verbs}",
        ]
        if self.divergence is not None:
            lines.append(
                f"  first divergence: tenant "
                f"{self.divergence.get('tenant')!r} at history step "
                f"{self.divergence.get('step')}"
            )
        if self.error is not None:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Server arrangements
# --------------------------------------------------------------------------


def _free_port() -> int:
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class ServerProcess:
    """``repro serve`` in a child process, SIGKILL-able for crash cycles."""

    def __init__(
        self,
        state_dir: Optional[Path],
        max_sessions: int,
        degraded_after: int = 5,
        port: Optional[int] = None,
    ) -> None:
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.max_sessions = max_sessions
        self.degraded_after = degraded_after
        self.port = port if port is not None else _free_port()
        self.process: Optional[subprocess.Popen[bytes]] = None

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> None:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(self.port),
            "--max-sessions",
            str(self.max_sessions),
            "--degraded-after",
            str(self.degraded_after),
            "--quiet",
        ]
        if self.state_dir is not None:
            command += ["--state-dir", str(self.state_dir)]
        env = dict(os.environ)
        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        self.process = subprocess.Popen(command, env=env)
        ServerClient(base_url=self.base_url).wait_ready(
            attempts=200, delay=0.1
        )

    def restart(self) -> None:
        """A crash cycle: SIGKILL, then reboot on the same port/state."""
        process = self.process
        if process is not None:
            process.kill()
            process.wait(timeout=30)
        self.start()

    def close(self) -> None:
        process = self.process
        self.process = None
        if process is None or process.poll() is not None:
            return
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


class InProcessServer:
    """A ``make_server`` instance with a crash-*like* hard restart.

    The restart stops the listener and closes every journal *without*
    writing a snapshot, so recovery exercises the WAL-tail replay path
    — the closest to SIGKILL an in-process arrangement can get (every
    acknowledged write is already fsync'd, exactly as after a crash)."""

    def __init__(self, **make_server_kwargs: Any) -> None:
        from repro.server import make_server

        self._make_server = make_server
        self._kwargs = dict(make_server_kwargs)
        self._kwargs.setdefault("port", 0)
        self._server = make_server(**self._kwargs)
        self._server.start_background()
        # pin the ephemeral port so restarts come back at the same URL
        self._kwargs["port"] = self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return self._server.base_url

    @property
    def server(self) -> Any:
        return self._server

    def start(self) -> None:  # symmetry with ServerProcess
        pass

    def restart(self) -> None:
        self._server.shutdown()
        self._server = self._make_server(**self._kwargs)
        self._server.start_background()
        ServerClient(base_url=self.base_url).wait_ready(
            attempts=100, delay=0.05
        )

    def close(self) -> None:
        self._server.shutdown()


class ExternalServer:
    """An already-running server by URL; restarts are unavailable."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")

    def start(self) -> None:
        pass

    def restart(self) -> None:
        raise ReproError(
            "cannot crash/restart an external --url server; "
            "run with --restarts 0"
        )

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# Offline replay (the verifier's ground truth)
# --------------------------------------------------------------------------


def replay_session(spec: TenantSpec, history: List[HistoryEntry]) -> Any:
    """Build a fresh offline session and replay ``history`` through it."""
    from repro.rules_json import rules_from_list

    session = spec.build_session()
    for entry in history:
        if entry[0] == "apply":
            session.apply(Changeset.from_dict(entry[1]))
        elif entry[0] == "rules":
            parsed = rules_from_list(entry[1], session.schema)
            if entry[2]:
                session.replace_rules(parsed)
            else:
                session.add_rules(*parsed)
        else:  # pragma: no cover - history entries come from this module
            raise ReproError(f"unknown history entry kind {entry[0]!r}")
    return session


def offline_detect(session: Any) -> Dict[str, Any]:
    """The ground-truth detect document of an offline session: a fresh
    executor run over its rows and rules.  Not ``session.detect()`` — a
    replayed session is warm, and its maintained read is the very path
    the served side is being checked on."""
    from repro.cfd.detect import detect_violations
    from repro.session import ViolationReport

    report = detect_violations(session.database, session.rules)
    return ViolationReport(report.violations).to_dict()


def replay_detect(
    spec: TenantSpec, history: List[HistoryEntry]
) -> Dict[str, Any]:
    session = replay_session(spec, history)
    try:
        return offline_detect(session)
    finally:
        session.close()


# --------------------------------------------------------------------------
# Shared run state
# --------------------------------------------------------------------------


class TenantRuntime:
    """One tenant's live state: shadow session, history, undo stash."""

    __slots__ = (
        "spec",
        "shadow",
        "history",
        "undo_stash",
        "rng",
        "since_verify",
    )

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.shadow = spec.build_session()
        self.history: List[HistoryEntry] = []
        #: recent (server token, shadow undo changeset) pairs, LIFO-popped
        #: so a popped token is always within the server's 32-token window
        self.undo_stash: List[Tuple[str, Changeset]] = []
        self.rng = random.Random(spec.seed ^ 0x5F5E1)
        self.since_verify = 0


class _RunContext:
    """Cross-thread coordination: counters, the verify queue, abort."""

    def __init__(self, config: SoakConfig, client: ServerClient) -> None:
        self.config = config
        self.client = client
        self.abort = threading.Event()
        self.queue: "queue.Queue[Optional[Tuple[TenantRuntime, List[HistoryEntry], Dict[str, Any]]]]" = queue.Queue(
            maxsize=32
        )
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self.divergence: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def fail(self, message: str) -> None:
        with self._lock:
            if self.error is None:
                self.error = message
        self.abort.set()

    def record_divergence(self, report: Dict[str, Any]) -> None:
        with self._lock:
            if self.divergence is None:
                self.divergence = report
        self.abort.set()


def _minimize_divergence(
    client: ServerClient,
    runtime: TenantRuntime,
    history: List[HistoryEntry],
    served: Dict[str, Any],
    expected: Dict[str, Any],
) -> Dict[str, Any]:
    """Find the first history step where a *fresh* served session and the
    offline replay disagree; fall back to the endpoint-level divergence
    when the replay alone does not reproduce it (state the long-lived
    session accumulated outside its history — itself a server bug)."""
    spec = runtime.spec
    report: Dict[str, Any] = {
        "tenant": spec.tenant_id,
        "tenant_seed": spec.seed,
        "step": len(history),
        "history_length": len(history),
        "served_detect": served,
        "expected_detect": expected,
        "entry": None,
        "minimized": False,
    }
    min_id = f"{spec.tenant_id}-minimize"
    session = None
    try:
        from repro.rules_json import rules_from_list

        try:
            client.delete_session(min_id)
        except ServerError:
            pass
        client.create_session(
            schema=spec.schema_doc,
            rules=spec.rules_docs,
            data=spec.data,
            session_id=min_id,
        )
        session = spec.build_session()
        steps: List[Optional[HistoryEntry]] = [None]
        steps.extend(history)
        for index, entry in enumerate(steps):
            if entry is not None:
                if entry[0] == "apply":
                    client.apply(min_id, entry[1])
                    session.apply(Changeset.from_dict(entry[1]))
                else:
                    parsed = rules_from_list(entry[1], session.schema)
                    if entry[2]:
                        client.set_rules(min_id, entry[1])
                        session.replace_rules(parsed)
                    else:
                        client.add_rules(min_id, entry[1])
                        session.add_rules(*parsed)
            fresh_served = client.detect(min_id)
            fresh_expected = offline_detect(session)
            if canonical(fresh_served) != canonical(fresh_expected):
                report.update(
                    {
                        "step": index,
                        "entry": entry,
                        "served_detect": fresh_served,
                        "expected_detect": fresh_expected,
                        "minimized": True,
                    }
                )
                break
        client.delete_session(min_id)
    except (ServerError, ReproError) as exc:
        report["minimizer_error"] = str(exc)
    finally:
        if session is not None:
            session.close()
    return report


def _verifier(ctx: _RunContext) -> None:
    """Consume checkpoints; byte-compare served detect vs offline replay."""
    while True:
        item = ctx.queue.get()
        if item is None:
            return
        if ctx.abort.is_set():
            continue  # drain without working; the run is over
        runtime, history, served = item
        try:
            expected = replay_detect(runtime.spec, history)
        except ReproError as exc:
            ctx.fail(f"offline replay failed for {runtime.spec.tenant_id}: {exc}")
            continue
        ctx.count("verifications")
        if canonical(served) != canonical(expected):
            ctx.record_divergence(
                _minimize_divergence(
                    ctx.client, runtime, history, served, expected
                )
            )


# --------------------------------------------------------------------------
# The driver
# --------------------------------------------------------------------------

#: verbs and their traffic mix (cumulative sampling per op)
_VERB_WEIGHTS = (
    ("apply", 0.50),
    ("detect", 0.22),
    ("undo", 0.10),
    ("rules", 0.10),
    ("repair", 0.08),
)


class _Driver(threading.Thread):
    """One worker: Zipf-picks among its owned tenants, issues mixed verbs."""

    def __init__(
        self,
        worker_id: int,
        tenants: List[TenantRuntime],
        ctx: _RunContext,
        ops: int,
    ) -> None:
        super().__init__(name=f"soak-driver-{worker_id}", daemon=True)
        self.worker_id = worker_id
        self.tenants = tenants
        self.ctx = ctx
        self.ops = ops
        self.rng = random.Random((ctx.config.seed << 8) ^ worker_id)
        self.weights = zipf_weights(
            len(tenants), ctx.config.zipf_exponent
        )

    def run(self) -> None:
        try:
            for _ in range(self.ops):
                if self.ctx.abort.is_set():
                    return
                tenant = self.rng.choices(
                    self.tenants, weights=self.weights
                )[0]
                self._one_op(tenant)
                self.ctx.count("ops")
        except Exception as exc:  # noqa: BLE001 - boundary: fail the run
            self.ctx.fail(
                f"driver {self.worker_id} aborted: {type(exc).__name__}: "
                f"{exc}"
            )

    # -- op selection ----------------------------------------------------

    def _one_op(self, tenant: TenantRuntime) -> None:
        roll = self.rng.random() * sum(w for _, w in _VERB_WEIGHTS)
        for verb, weight in _VERB_WEIGHTS:
            roll -= weight
            if roll <= 0:
                break
        if verb == "apply":
            self._op_apply(tenant)
        elif verb == "detect":
            self._op_detect(tenant)
        elif verb == "undo":
            self._op_undo(tenant)
        elif verb == "rules":
            self._op_rules(tenant)
        else:
            self._op_repair(tenant)
        tenant.since_verify += 1
        if tenant.since_verify >= self.ctx.config.verify_every:
            self._checkpoint(tenant)

    # -- session resilience ----------------------------------------------

    def _recreate(self, tenant: TenantRuntime) -> None:
        """Rebuild an evicted (non-durable) session from the shadow's
        *current* state — byte-equivalent to replaying the history, since
        ``data_documents`` preserves live insertion order."""
        try:
            self.ctx.client.create_session(
                schema=tenant.spec.schema_doc,
                rules=tenant.shadow.rules_documents(),
                data=tenant.shadow.data_documents(),
                session_id=tenant.spec.tenant_id,
            )
        except ServerError as exc:
            if exc.status != 409:
                raise
            # someone (a rehydration, another driver op) beat us to it
        tenant.undo_stash.clear()  # server-side tokens died with the state
        self.ctx.count("evictions_rebuilt")

    def _call(
        self,
        tenant: TenantRuntime,
        fn: Callable[[], Dict[str, Any]],
        idempotent: bool,
    ) -> Dict[str, Any]:
        """Run one client call with 404-recreate and bounded 503 retries.

        A 503 means the degraded gate rejected the verb *before* any
        mutation, so retrying is always safe; raw transport failures are
        only retried for idempotent verbs (a lost response to an apply
        would leave the commit state unknowable)."""
        for attempt in range(8):
            try:
                return fn()
            except ServerError as exc:
                if exc.status == 404:
                    self._recreate(tenant)
                    continue
                if exc.status == 503 or (exc.retriable and idempotent):
                    self.ctx.count("retries")
                    time.sleep(0.05 * (attempt + 1))
                    continue
                raise
        raise ReproError(
            f"tenant {tenant.spec.tenant_id}: verb kept failing after "
            "8 attempts (degraded or unreachable)"
        )

    # -- verbs -----------------------------------------------------------

    def _op_apply(self, tenant: TenantRuntime) -> None:
        config = self.ctx.config
        if tenant.rng.random() < config.burst_probability:
            size = config.burst_size
            self.ctx.count("bursts")
        else:
            size = tenant.rng.randrange(1, config.batch_max + 1)
        stream = stream_edits(
            tenant.shadow.database,
            StreamConfig(
                n_batches=1,
                batch_size=size,
                seed=tenant.rng.randrange(1 << 30),
            ),
        )
        changeset = next(stream)
        if len(changeset) == 0:
            return
        doc = changeset.to_dict()
        delta = self._call(
            tenant,
            lambda: self.ctx.client.apply(tenant.spec.tenant_id, doc),
            idempotent=False,
        )
        shadow_delta = tenant.shadow.apply(changeset)
        tenant.history.append(("apply", doc))
        tenant.undo_stash.append((delta["undo_token"], shadow_delta.undo))
        while len(tenant.undo_stash) > config.max_undo_stash:
            tenant.undo_stash.pop(0)
        self.ctx.count("applies")
        self.ctx.count("applied_ops", len(changeset))

    def _op_detect(self, tenant: TenantRuntime) -> None:
        include = tenant.rng.random() < 0.5
        self._call(
            tenant,
            lambda: self.ctx.client.detect(
                tenant.spec.tenant_id, include_violations=include
            ),
            idempotent=True,
        )
        self.ctx.count("detects")

    def _op_undo(self, tenant: TenantRuntime) -> None:
        if not tenant.undo_stash:
            return
        token, undo_changeset = tenant.undo_stash.pop()
        try:
            self.ctx.client.undo(tenant.spec.tenant_id, token)
        except ServerError as exc:
            if exc.status == 404:
                # evicted non-durable session: nothing was undone
                self._recreate(tenant)
                return
            if exc.status == 400:
                # token fell off the server's 32-token window (or died
                # with an eviction rebuild that raced this pop)
                self.ctx.count("undo_misses")
                return
            raise
        # the server replayed its stored inverse; the shadow applies its
        # own — both are the delta engine's inverse of the same state
        tenant.shadow.apply(undo_changeset)
        tenant.history.append(("apply", undo_changeset.to_dict()))
        self.ctx.count("undos")

    def _op_rules(self, tenant: TenantRuntime) -> None:
        client = self.ctx.client
        if (
            tenant.rng.random() < 0.5
            or len(tenant.spec.rules_docs) >= self.ctx.config.max_rules
        ):
            served = self._call(
                tenant,
                lambda: {"rules": client.get_rules(tenant.spec.tenant_id)},
                idempotent=True,
            )["rules"]
            expected = tenant.shadow.rules_documents()
            self.ctx.count("rules_reads")
            if canonical(served) != canonical(expected):
                self.ctx.record_divergence(
                    {
                        "tenant": tenant.spec.tenant_id,
                        "kind": "rules-roundtrip",
                        "step": len(tenant.history),
                        "served_rules": served,
                        "expected_rules": expected,
                    }
                )
            return
        if len(tenant.shadow.rules) >= self.ctx.config.max_rules:
            return
        docs = random_rule_documents(tenant.spec, tenant.rng)
        from repro.rules_json import rules_from_list

        self._call(
            tenant,
            lambda: client.add_rules(tenant.spec.tenant_id, docs),
            idempotent=False,
        )
        tenant.shadow.add_rules(
            *rules_from_list(docs, tenant.shadow.schema)
        )
        tenant.history.append(("rules", docs, False))
        self.ctx.count("rules_appends")

    def _op_repair(self, tenant: TenantRuntime) -> None:
        strategy = tenant.rng.choice(("x", "x", "u"))
        try:
            self._call(
                tenant,
                lambda: self.ctx.client.repair(
                    tenant.spec.tenant_id,
                    strategy=strategy,
                    adopt=False,
                    limit=50000,
                ),
                idempotent=True,
            )
        except ServerError as exc:
            if exc.status == 400:
                # e.g. u-repair over a rule set with no FDs/CFDs
                self.ctx.count("repairs_rejected")
                return
            raise
        self.ctx.count("repairs")

    # -- verification ----------------------------------------------------

    def _checkpoint(self, tenant: TenantRuntime) -> None:
        """Full served detect + a history snapshot onto the verify queue."""
        tenant.since_verify = 0
        served = self._call(
            tenant,
            lambda: self.ctx.client.detect(tenant.spec.tenant_id),
            idempotent=True,
        )
        item = (tenant, list(tenant.history), served)
        while not self.ctx.abort.is_set():
            try:
                self.ctx.queue.put(item, timeout=0.5)
                self.ctx.count("checkpoints")
                return
            except queue.Full:
                continue  # backpressure: the verifier is behind


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def _final_verification(
    ctx: _RunContext, runtimes: List[TenantRuntime]
) -> None:
    """Byte-verify *every* tenant after the drivers quiesce."""
    for runtime in runtimes:
        if ctx.abort.is_set():
            return
        try:
            served = ctx.client.detect(runtime.spec.tenant_id)
        except ServerError as exc:
            if exc.status != 404:
                ctx.fail(
                    f"final detect failed for {runtime.spec.tenant_id}: "
                    f"{exc}"
                )
                return
            # non-durable eviction: rebuild from the shadow and verify
            # the rebuilt session instead (still a full replay check)
            ctx.client.create_session(
                schema=runtime.spec.schema_doc,
                rules=runtime.shadow.rules_documents(),
                data=runtime.shadow.data_documents(),
                session_id=runtime.spec.tenant_id,
            )
            ctx.count("evictions_rebuilt")
            served = ctx.client.detect(runtime.spec.tenant_id)
        expected = replay_detect(runtime.spec, runtime.history)
        ctx.count("final_verifications")
        if canonical(served) != canonical(expected):
            ctx.record_divergence(
                _minimize_divergence(
                    ctx.client,
                    runtime,
                    list(runtime.history),
                    served,
                    expected,
                )
            )
            return


def _write_artifacts(
    ctx: _RunContext,
    runtimes: List[TenantRuntime],
    report: SoakReport,
    artifacts_dir: Path,
) -> None:
    """Diagnostics exports, a Prometheus scrape and the run report."""
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    try:
        (artifacts_dir / "metrics.json").write_text(
            canonical(ctx.client.metrics()) + "\n"
        )
        (artifacts_dir / "metrics.prom").write_text(
            ctx.client.prometheus_metrics()
        )
        diagnostics_dir = artifacts_dir / "diagnostics"
        diagnostics_dir.mkdir(exist_ok=True)
        for runtime in runtimes[:32]:  # the Zipf head carries the traffic
            try:
                doc = ctx.client.diagnostics(runtime.spec.tenant_id)
            except ServerError:
                continue  # evicted on a non-durable server
            (diagnostics_dir / f"{runtime.spec.tenant_id}.json").write_text(
                canonical(doc) + "\n"
            )
    except ServerError as exc:
        report.counters["artifact_errors"] = (
            report.counters.get("artifact_errors", 0) + 1
        )
        (artifacts_dir / "artifact-error.txt").write_text(f"{exc}\n")
    if report.divergence is not None:
        (artifacts_dir / "reproducer.json").write_text(
            canonical(report.divergence) + "\n"
        )
    (artifacts_dir / "report.json").write_text(
        canonical(report.to_dict()) + "\n"
    )


def run_soak(
    config: SoakConfig,
    server: Any,
    artifacts_dir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Drive one full soak against ``server`` (any arrangement above)."""

    def say(message: str) -> None:
        if log is not None:
            log(message)

    started = time.perf_counter()
    client = ServerClient(base_url=server.base_url, timeout=120.0)
    client.wait_ready(attempts=200)
    report = SoakReport(config)
    ctx = _RunContext(config, client)

    say(f"creating {config.tenants} tenants (seed {config.seed})")
    specs = make_tenants(config.tenants, config.seed)
    runtimes = [TenantRuntime(spec) for spec in specs]
    try:
        for runtime in runtimes:
            try:
                client.create_session(
                    **{
                        key: value
                        for key, value in runtime.spec.creation_document().items()
                        if key != "id"
                    },
                    session_id=runtime.spec.tenant_id,
                )
            except ServerError as exc:
                if exc.status != 409:
                    raise
                # durable state from an earlier run on the same state dir
            ctx.count("tenants_created")

        verifier = threading.Thread(
            target=_verifier, args=(ctx,), name="soak-verifier", daemon=True
        )
        verifier.start()

        phases = config.restarts + 1
        ops_per_phase = max(1, config.ops // phases)
        for phase in range(phases):
            if phase > 0 and not ctx.abort.is_set():
                say(f"crash/restart cycle {phase}/{config.restarts}")
                server.restart()
                client.wait_ready(attempts=200)
                ctx.count("restarts")
            if ctx.abort.is_set():
                break
            drivers = []
            per_worker = max(1, ops_per_phase // config.workers)
            for worker_id in range(config.workers):
                owned = runtimes[worker_id :: config.workers]
                if not owned:
                    continue
                drivers.append(_Driver(worker_id, owned, ctx, per_worker))
            say(
                f"phase {phase + 1}/{phases}: {len(drivers)} workers x "
                f"{per_worker} ops"
            )
            for driver in drivers:
                driver.start()
            for driver in drivers:
                driver.join()

        if not ctx.abort.is_set():
            say("final verification pass over every tenant")
            _final_verification(ctx, runtimes)

        ctx.queue.put(None)
        verifier.join(timeout=300)
    except (ServerError, ReproError) as exc:
        ctx.fail(str(exc))
        ctx.queue.put(None)
    finally:
        report.counters = dict(ctx.counters)
        report.divergence = ctx.divergence
        report.error = ctx.error
        report.elapsed_seconds = time.perf_counter() - started
        if artifacts_dir is not None:
            _write_artifacts(ctx, runtimes, report, artifacts_dir)
        for runtime in runtimes:
            runtime.shadow.close()
    say(report.summary())
    return report


# --------------------------------------------------------------------------
# CLI entry (``repro soak``)
# --------------------------------------------------------------------------


def run_from_args(args: Any) -> int:
    """Back end of the ``repro soak`` subcommand (argparse namespace in).

    Lives here rather than in ``repro.cli`` so the CLI module stays free
    of clock/randomness (the determinism checker's REP001 scope)."""
    if args.smoke:
        config = smoke_config(seed=args.seed if args.seed is not None else 20260807)
    else:
        config = SoakConfig(
            seed=args.seed if args.seed is not None else 11,
        )
    for knob in (
        "tenants",
        "ops",
        "workers",
        "restarts",
        "max_sessions",
        "verify_every",
        "degraded_after",
    ):
        value = getattr(args, knob, None)
        if value is not None:
            setattr(config, knob, value)
    config.workers = min(config.workers, config.tenants)

    artifacts_dir = Path(args.artifacts) if args.artifacts else None
    temp_state: Optional[tempfile.TemporaryDirectory[str]] = None
    try:
        if args.url:
            if config.restarts:
                print(
                    "soak: --url given; disabling crash/restart cycles",
                    file=sys.stderr,
                )
                config.restarts = 0
            server: Any = ExternalServer(args.url)
        else:
            if args.state_dir:
                state_dir: Optional[Path] = Path(args.state_dir)
            else:
                # durable by default: crash cycles and eviction-rehydration
                # are the whole point of the soak
                temp_state = tempfile.TemporaryDirectory(prefix="repro-soak-")
                state_dir = Path(temp_state.name)
            server = ServerProcess(
                state_dir=state_dir,
                max_sessions=config.max_sessions,
                degraded_after=config.degraded_after,
            )
        server.start()
        report = run_soak(
            config,
            server,
            artifacts_dir=artifacts_dir,
            log=lambda message: print(f"soak: {message}", file=sys.stderr),
        )
    finally:
        try:
            server.close()
        except UnboundLocalError:  # pragma: no cover - spawn failed early
            pass
        if temp_state is not None:
            temp_state.cleanup()
    print(report.summary())
    if report.divergence is not None:
        print(
            json.dumps(
                {
                    key: report.divergence.get(key)
                    for key in ("tenant", "step", "entry", "minimized")
                },
                indent=2,
                default=str,
            )
        )
        return 1
    return 0 if report.ok else 2
