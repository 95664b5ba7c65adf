"""The worker pool: ordered compaction off the query path."""

from repro.exec.pool import BackgroundTaskError, WorkerPool, default_workers

__all__ = ["BackgroundTaskError", "WorkerPool", "default_workers"]
