"""The verb pool: one sequential caller is always served by one thread."""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import List

import pytest

from repro.server.pool import VerbPool


@pytest.fixture
def pool():
    made = VerbPool(max_workers=4, thread_name_prefix="test-verb")
    yield made
    made.shutdown()


def _ident() -> int:
    return threading.get_ident()


def test_worker_is_idle_before_its_result_is_published(pool):
    """A submit made from a done callback — the earliest anyone can react to
    a result — must find the worker that produced it already idle.  The
    stock ``ThreadPoolExecutor`` starts a second thread here."""
    idents: List[int] = []
    finished = threading.Event()

    def chain(remaining: int, done: "Future[int]") -> None:
        idents.append(done.result())
        if remaining:
            pool.submit(_ident).add_done_callback(
                lambda nxt: chain(remaining - 1, nxt)
            )
        else:
            finished.set()

    pool.submit(_ident).add_done_callback(lambda first: chain(50, first))
    assert finished.wait(timeout=10)
    assert len(idents) == 51
    assert len(set(idents)) == 1


def test_most_recently_idle_worker_is_reused(pool):
    """Two threads exist after two overlapping jobs; sequential work then
    stays on one of them and never wakes the other."""
    gate = threading.Barrier(3)
    overlapping = [pool.submit(gate.wait, 10) for _ in range(2)]
    gate.wait(10)
    for future in overlapping:
        future.result(timeout=10)
    idents = {pool.submit(_ident).result(timeout=10) for _ in range(100)}
    assert len(idents) == 1


def test_backlog_runs_when_every_worker_is_busy():
    pool = VerbPool(max_workers=1, thread_name_prefix="test-verb")
    release = threading.Event()
    first = pool.submit(release.wait, 10)
    queued = [pool.submit(_ident) for _ in range(3)]
    assert not any(future.done() for future in queued)
    release.set()
    assert first.result(timeout=10)
    assert len({future.result(timeout=10) for future in queued}) == 1
    pool.shutdown()


def test_exceptions_reach_the_waiter_and_the_worker_survives(pool):
    def boom() -> None:
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        pool.submit(boom).result(timeout=10)
    assert pool.submit(lambda: 7).result(timeout=10) == 7


def test_shutdown_cancels_the_backlog_and_refuses_new_work():
    pool = VerbPool(max_workers=1, thread_name_prefix="test-verb")
    release = threading.Event()
    running = pool.submit(release.wait, 10)
    queued = pool.submit(_ident)
    pool.shutdown(wait=False, cancel_futures=True)
    assert queued.cancelled()
    with pytest.raises(RuntimeError):
        pool.submit(_ident)
    release.set()
    assert running.result(timeout=10)


def test_a_future_cancelled_while_queued_is_skipped():
    pool = VerbPool(max_workers=1, thread_name_prefix="test-verb")
    release = threading.Event()
    pool.submit(release.wait, 10)
    skipped = pool.submit(_ident)
    after = pool.submit(lambda: "ran")
    assert skipped.cancel()
    release.set()
    assert after.result(timeout=10) == "ran"
    pool.shutdown()
