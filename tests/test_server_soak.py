"""The multi-tenant soak harness: live byte-verification end to end.

Three layers of assurance:

* a hypothesis property — random interleavings of apply/undo/detect and
  rules round-trips across 3–8 tenants over real HTTP, with the final
  per-tenant detect document byte-compared against an offline replay of
  the tenant's whole edit history;
* mini-soaks through :func:`repro.workloads.soak.run_soak` itself —
  durable with a crash-like restart, non-durable under heavy eviction
  pressure, and a corrupted-server run that must *fail* (the harness is
  only trustworthy if it catches a real divergence);
* the ``repro soak`` CLI path with a SIGKILL'd subprocess server, plus
  the full ``--smoke`` preset behind ``REPRO_SOAK=1``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import ServerClient, ServerError
from repro.engine.delta import Changeset
from repro.server import make_server
from repro.workloads.soak import (
    InProcessServer,
    SoakConfig,
    canonical,
    replay_detect,
    run_soak,
)
from repro.workloads.stream import StreamConfig, stream_edits
from repro.workloads.tenants import make_tenants, random_rule_documents

REPO_ROOT = Path(__file__).resolve().parent.parent

_ids = itertools.count()


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


class TestInterleavingProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_served_matches_offline_replay(self, client, data):
        """Any interleaving of verbs across tenants leaves every served
        session byte-identical to an offline replay of its history."""
        import random

        n_tenants = data.draw(st.integers(3, 8), label="tenants")
        corpus_seed = data.draw(st.integers(0, 2**20), label="seed")
        specs = make_tenants(n_tenants, corpus_seed)
        prefix = f"prop{next(_ids)}"
        live = []
        try:
            for spec in specs:
                session_id = f"{prefix}-{spec.tenant_id}"
                client.create_session(
                    schema=spec.schema_doc,
                    rules=spec.rules_docs,
                    data=spec.data,
                    session_id=session_id,
                )
                live.append(
                    {
                        "id": session_id,
                        "spec": spec,
                        "shadow": spec.build_session(),
                        "history": [],
                        "stash": [],
                        "rng": random.Random(spec.seed),
                    }
                )
            n_ops = data.draw(st.integers(5, 20), label="ops")
            for index in range(n_ops):
                tenant = live[
                    data.draw(
                        st.integers(0, n_tenants - 1), label=f"t{index}"
                    )
                ]
                verb = data.draw(
                    st.sampled_from(["apply", "apply", "undo", "detect",
                                     "rules"]),
                    label=f"v{index}",
                )
                if verb == "apply":
                    changeset = next(
                        stream_edits(
                            tenant["shadow"].database,
                            StreamConfig(
                                n_batches=1,
                                batch_size=tenant["rng"].randrange(1, 5),
                                seed=tenant["rng"].randrange(1 << 30),
                            ),
                        )
                    )
                    if len(changeset) == 0:
                        continue
                    doc = changeset.to_dict()
                    delta = client.apply(tenant["id"], doc)
                    shadow_delta = tenant["shadow"].apply(changeset)
                    tenant["history"].append(("apply", doc))
                    tenant["stash"].append(
                        (delta["undo_token"], shadow_delta.undo)
                    )
                elif verb == "undo" and tenant["stash"]:
                    token, undo_changeset = tenant["stash"].pop()
                    client.undo(tenant["id"], token)
                    tenant["shadow"].apply(undo_changeset)
                    tenant["history"].append(
                        ("apply", undo_changeset.to_dict())
                    )
                elif verb == "detect":
                    served = client.detect(tenant["id"])
                    expected = tenant["shadow"].detect().to_dict()
                    assert canonical(served) == canonical(expected)
                elif verb == "rules":
                    docs = random_rule_documents(
                        tenant["spec"], tenant["rng"]
                    )
                    from repro.rules_json import rules_from_list

                    client.add_rules(tenant["id"], docs)
                    tenant["shadow"].add_rules(
                        *rules_from_list(docs, tenant["shadow"].schema)
                    )
                    tenant["history"].append(("rules", docs, False))
            # final: every tenant's served detect == full offline replay
            for tenant in live:
                served = client.detect(tenant["id"])
                expected = replay_detect(tenant["spec"], tenant["history"])
                assert canonical(served) == canonical(expected)
                served_rules = client.get_rules(tenant["id"])
                assert canonical(served_rules) == canonical(
                    tenant["shadow"].rules_documents()
                )
        finally:
            for tenant in live:
                tenant["shadow"].close()
                try:
                    client.delete_session(tenant["id"])
                except ServerError:
                    pass


class TestMiniSoak:
    def test_durable_soak_with_crash_restart(self, tmp_path):
        server = InProcessServer(port=0, max_sessions=4, state_dir=tmp_path)
        config = SoakConfig(
            tenants=8,
            ops=120,
            seed=5,
            workers=3,
            restarts=1,
            max_sessions=4,
            verify_every=10,
            batch_max=4,
            burst_size=12,
        )
        try:
            report = run_soak(config, server)
        finally:
            server.close()
        assert report.ok, (report.error, report.divergence)
        assert report.counters["restarts"] == 1
        assert report.counters["final_verifications"] == 8
        assert report.counters["verifications"] > 0
        assert report.counters["ops"] == 120

    def test_nondurable_soak_rebuilds_evicted_tenants(self):
        server = InProcessServer(port=0, max_sessions=3)
        config = SoakConfig(
            tenants=8,
            ops=100,
            seed=9,
            workers=2,
            restarts=0,
            max_sessions=3,
            verify_every=8,
            batch_max=4,
        )
        try:
            report = run_soak(config, server)
        finally:
            server.close()
        assert report.ok, (report.error, report.divergence)
        # eviction-rehydration (here: rebuild-from-shadow) was exercised
        assert report.counters["evictions_rebuilt"] > 0
        assert report.counters["final_verifications"] == 8

    def test_soak_catches_server_side_corruption(self):
        """The harness is only trustworthy if a *real* divergence fails
        the run: corrupt one tenant's server-side state through the
        session API (bypassing the harness) and expect a divergence
        report naming that tenant."""
        import threading
        import time

        server = InProcessServer(port=0, max_sessions=16)
        ServerClient(base_url=server.base_url).wait_ready()

        def corrupt():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                hosted = server.server.manager._sessions.get("tenant-000")
                if hosted is not None:
                    with hosted.lock:
                        relation = hosted.session.database.relation("R")
                        attrs = list(relation.schema.attribute_names)
                        changeset = Changeset()
                        changeset.insert("R", {a: "zz" for a in attrs})
                        hosted.session.apply(changeset)
                    return
                time.sleep(0.05)

        saboteur = threading.Thread(target=corrupt)
        saboteur.start()
        config = SoakConfig(
            tenants=4,
            ops=400,
            seed=3,
            workers=2,
            restarts=0,
            max_sessions=16,
            verify_every=5,
            batch_max=3,
        )
        try:
            report = run_soak(config, server)
        finally:
            saboteur.join(timeout=30)
            server.close()
        assert not report.ok
        assert report.divergence is not None
        assert report.divergence["tenant"] == "tenant-000"
        # the corruption happened *outside* the history, so the stepwise
        # minimizer correctly reports it as non-reproducible-from-history
        assert report.divergence["minimized"] is False
        assert "served_detect" in report.divergence
        assert "expected_detect" in report.divergence


class TestSoakCli:
    def _run_cli(self, args, timeout):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "soak", *args],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )

    def test_small_cli_soak_with_sigkill_cycle(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        result = self._run_cli(
            [
                "--tenants", "4",
                "--ops", "40",
                "--workers", "2",
                "--restarts", "1",
                "--max-sessions", "3",
                "--seed", "7",
                "--artifacts", str(artifacts),
            ],
            timeout=180,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((artifacts / "report.json").read_text())
        assert report["ok"] is True
        assert report["counters"]["restarts"] == 1
        assert report["counters"]["final_verifications"] == 4
        # operational artifacts ride along with every run
        assert (artifacts / "metrics.prom").read_text().startswith("# HELP")
        assert json.loads((artifacts / "metrics.json").read_text())
        diagnostics = list((artifacts / "diagnostics").glob("*.json"))
        assert diagnostics, "no per-tenant diagnostics exported"
        doc = json.loads(diagnostics[0].read_text())
        assert {"engine", "locks", "degraded", "durability"} <= set(doc)

    @pytest.mark.soak
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="30s smoke soak runs only with REPRO_SOAK=1 (CI soak job)",
    )
    def test_smoke_preset(self, tmp_path):
        artifacts = tmp_path / "smoke-artifacts"
        result = self._run_cli(
            ["--smoke", "--artifacts", str(artifacts)], timeout=540
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((artifacts / "report.json").read_text())
        assert report["ok"] is True
        assert report["divergence"] is None
        assert report["counters"]["restarts"] == 1
