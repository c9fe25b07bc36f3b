"""The thread pool the asyncio front end runs verb handlers on.

Every handler runs here except a cheap edit — an ``apply`` / ``undo`` on
an in-memory, healthy session whose previous edit took less than one GIL
switch interval, which :mod:`repro.server.aio` runs on its loop.  So the
pool still takes every create, delete, detect that misses the snapshot,
repair and rules write, every edit on a journaled (``--state-dir``)
session, a session's first edit, the edit after a slow one, recovery
probes, and the service endpoints (health, metrics, listings,
diagnostics).

``concurrent.futures.ThreadPoolExecutor`` made one run of the server differ
from the next.  Its worker publishes a result *before* it marks itself idle,
so a client whose next request arrives inside that window finds no idle
worker and the pool starts another thread — a race the event loop wins or
loses depending on scheduling, once, at some point in the process's life.
From then on every submit wakes two threads (the stock queue hands its lock
from the getter that got the item to one that finds the queue empty) and
work alternates between them, each finding the session out of its core's
cache: on the request-shaped benchmark a server that had lost the race
answered ~3.5 % slower than one that had not, for the rest of the run.

:class:`VerbPool` makes the extra thread harmless and the race unwinnable:
idle workers park on a lock of their own and are handed work most recently
idle first, so one sequential client is always served by the same warm
thread and a parked thread costs nothing; and a worker is back on the idle
stack *before* its result is published.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from concurrent.futures import Executor, Future
from typing import Any, Callable, Deque, List, Optional, Tuple

__all__ = ["VerbPool"]

_Job = Tuple["Future[Any]", Callable[[], Any]]


class _Worker:
    """One pool thread's parking spot: ``wake`` is held while it sleeps."""

    __slots__ = ("wake", "job")

    def __init__(self, job: _Job) -> None:
        self.wake = threading.Lock()
        self.wake.acquire()
        #: the next job, or ``None`` to exit; written under the pool's lock
        #: by whoever releases ``wake``
        self.job: Optional[_Job] = job


class VerbPool(Executor):
    """Up to ``max_workers`` daemon threads, grown on demand, reused LIFO."""

    def __init__(self, max_workers: int, thread_name_prefix: str) -> None:
        self._max_workers = max_workers
        self._prefix = thread_name_prefix
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._backlog: Deque[_Job] = deque()
        self._threads = 0
        self._shutdown = False

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> "Future[Any]":
        future: "Future[Any]" = Future()
        job: _Job = (future, lambda: fn(*args, **kwargs))
        with self._lock:
            if self._shutdown:
                raise RuntimeError("cannot schedule new futures after shutdown")
            if self._idle:
                worker = self._idle.pop()
                worker.job = job
                worker.wake.release()
            elif self._threads < self._max_workers:
                self._threads += 1
                threading.Thread(
                    target=self._run,
                    args=(_Worker(job),),
                    name=f"{self._prefix}_{self._threads}",
                    daemon=True,
                ).start()
            else:
                self._backlog.append(job)
        return future

    @staticmethod
    def _execute(job: _Job) -> Optional[Callable[[], None]]:
        """Run one job; return the call that publishes its outcome (``None``
        when the future was cancelled before it started)."""
        future, call = job
        if not future.set_running_or_notify_cancel():
            return None
        try:
            result = call()
        except BaseException as exc:  # handed to the waiter, as the stock pool does
            return functools.partial(future.set_exception, exc)
        return functools.partial(future.set_result, result)

    def _run(self, worker: _Worker) -> None:
        job = worker.job
        while job is not None:
            publish = self._execute(job)
            with self._lock:
                if self._backlog:
                    worker.job = self._backlog.popleft()
                    worker.wake.release()
                elif self._shutdown:
                    worker.job = None
                    worker.wake.release()
                else:
                    self._idle.append(worker)
            # idle first, result second: whoever the result wakes finds
            # this worker ready for the request that follows
            if publish is not None:
                publish()
            del job, publish  # a parked thread must not pin a response
            worker.wake.acquire()
            job = worker.job

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop taking work and let the threads end.  The threads are
        daemons and nothing joins them, so ``wait`` is accepted and unused;
        queued work still runs unless ``cancel_futures`` drops it."""
        with self._lock:
            self._shutdown = True
            if cancel_futures:
                while self._backlog:
                    self._backlog.popleft()[0].cancel()
            while self._idle:
                worker = self._idle.pop()
                worker.job = None
                worker.wake.release()
