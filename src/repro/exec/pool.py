"""Background lane for ordered compaction.

One ``WorkerPool`` per ``Database(workers=N)`` (``N > 0``) runs the
columnar replica's ordered compaction off the query path: ``replicate()``
schedules a forced delta->main merge as a background task, and queries
keep scanning their pre-swap segment snapshot while it runs.  Statements
themselves always execute on the calling thread.

A failed background task never poisons the pool: it is surfaced (with
the task's name) at the next ``drain_background``, and ``shutdown``
always releases the executor even when the drain raises.

Sealed segments are immutable and shared read-only with the merge; the
mutable replica touch points (delta tails, zone-map widening, segment
swap) are serialised by the replica lock in ``storage.columnstore``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor


def default_workers() -> int:
    """Pool size when the caller asks for ``workers=None``: the CPU count."""
    return os.cpu_count() or 1


class BackgroundTaskError(RuntimeError):
    """A background task failed; carries the task's name for diagnosis."""

    def __init__(self, name: str, cause: BaseException):
        super().__init__(f"background task {name!r} failed: {cause!r}")
        self.task_name = name


class WorkerPool:
    """A thread pool that runs named background tasks.

    Threads (not processes): segments are shared in-memory structures,
    and what the lane buys is overlap — scans against compacted main
    while the next delta merges behind the query path.
    """

    def __init__(self, workers: int | None = None):
        self.workers = max(1, int(workers if workers is not None
                                  else default_workers()))
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-exec")
        self._background: list[tuple[str, Future]] = []
        self._bg_lock = threading.Lock()

    def submit_background(self, fn, name: str = "background") -> Future:
        """Schedule ``fn`` on the pool without a waiting consumer.

        A completed-and-failed task is *kept* until the next
        ``drain_background`` surfaces it by name — a raised background
        exception must never be dropped just because nobody was waiting.
        """
        future = self._executor.submit(fn)
        with self._bg_lock:
            self._background = [
                (task_name, f) for task_name, f in self._background
                if not f.done() or f.exception() is not None
            ]
            self._background.append((name, future))
        return future

    def drain_background(self):
        """Block until every submitted background task has finished.

        Raises ``BackgroundTaskError`` naming the first failed task (a
        compaction failure must not be silently swallowed); later
        failures in the same drain are dropped only after the first has
        been surfaced.  Tests and benchmarks use this to quiesce the
        pool at a known point.
        """
        while True:
            with self._bg_lock:
                pending = list(self._background)
                self._background = []
            if not pending:
                return
            first_failure: BackgroundTaskError | None = None
            for name, future in pending:
                exc = future.exception()  # waits for completion
                if exc is not None and first_failure is None:
                    first_failure = BackgroundTaskError(name, exc)
                    first_failure.__cause__ = exc
            if first_failure is not None:
                raise first_failure

    def shutdown(self):
        try:
            self.drain_background()
        finally:
            # the executor must be released even when the drain surfaces
            # a background failure — a wedged pool would leak threads
            self._executor.shutdown(wait=True)
