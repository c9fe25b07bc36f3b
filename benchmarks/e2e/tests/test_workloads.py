"""The request sequences: seeded, byte-stable, and state-restoring."""

import json

import pytest

import repro.client
from repro.client import ServerClient

from benchmarks.e2e.harness import Shadow, answer_ok, rows_restored, send, wire_request
from benchmarks.e2e.workloads import BUILDERS

SCALE = 0.1


def _wire_bytes(workload, blocks=2):
    """Set-up and every request of the first blocks, as bytes on the wire."""
    out = [json.dumps(workload.create_body).encode()]
    for index in range(blocks):
        for cycle in workload.block(index):
            for step in cycle:
                method, target, raw = wire_request(workload.session_id, step, "undo-1")
                out.append(method.encode() + b" " + target.encode() + b"\n" + raw)
    return b"\n".join(out)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_seeds_give_byte_equal_requests_and_other_seeds_do_not(name):
    first = BUILDERS[name](7, SCALE)
    again = BUILDERS[name](7, SCALE)
    other = BUILDERS[name](8, SCALE)
    assert _wire_bytes(first) == _wire_bytes(again)
    assert _wire_bytes(first) != _wire_bytes(other)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_cycle_restores_the_row_set_and_reports_the_fixed_counts(name):
    workload = BUILDERS[name](3, SCALE)
    shadow = Shadow(workload)
    for cycle in workload.block(1)[:6]:
        for step in cycle:
            # the counts fixed in workloads.py are what a real session reports
            assert answer_ok(step, shadow.expected(step)), (name, step.op)
        assert rows_restored(shadow, workload)


def test_read_after_write_touches_a_fresh_row_every_cycle():
    workload = BUILDERS["read_after_write"](3, SCALE)
    rows = [
        json.dumps(workload.cycle(i)[0].body, sort_keys=True)
        for i in range(4 * workload.cycles_per_block)
    ]
    assert len(set(rows)) == len(rows)


def test_hot_reads_declares_every_detect_a_snapshot_hit():
    workload = BUILDERS["hot_reads"](3, SCALE)
    assert all(step.snapshot_hit for cycle in workload.block(1) for step in cycle)
    others = [BUILDERS[n](3, SCALE) for n in BUILDERS if n != "hot_reads"]
    assert not any(
        step.snapshot_hit for w in others for step in w.cycle(0)
    )


def test_the_stock_client_sends_exactly_the_replayed_bytes(monkeypatch):
    """``wire_request`` must stay the twin of ``ServerClient``'s methods."""
    sent = []

    class _Response:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def read(self):
            return b'{"wire_version": 1}'

    def fake_urlopen(request, timeout=None):
        sent.append((request.get_method(), request.selector, request.data or b""))
        return _Response()

    monkeypatch.setattr(repro.client, "urlopen", fake_urlopen)
    client = ServerClient(base_url="http://127.0.0.1:1")
    for name in sorted(BUILDERS):
        workload = BUILDERS[name](3, SCALE)
        for step in workload.cycle(0):
            send(client, workload.session_id, step, "undo-9")
            assert sent.pop() == wire_request(workload.session_id, step, "undo-9")
