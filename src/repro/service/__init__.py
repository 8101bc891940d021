"""repro.service — in-process mining job service.

The experiment grid as schedulable work: content-addressed jobs, a
bounded priority queue with backpressure, a worker pool running the job
core :func:`run_job` (retry/backoff around the LLM pipelines; gateway
workers call it directly), and an on-disk result cache layered on
:mod:`repro.mining.persistence`.
"""

from repro.service.api import (
    JobFailedError,
    MiningService,
    ServiceDraining,
    UnknownJobError,
)
from repro.service.cache import CacheStats, ResultCache
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    cache_key,
    code_fingerprint,
    graph_fingerprint,
)
from repro.service.queue import JobQueue, QueueClosed, QueueFull
from repro.service.workers import (
    JobTimeoutError,
    RetriesExhaustedError,
    RetryPolicy,
    WorkerPool,
    call_with_retry,
    run_job,
)

__all__ = [
    "CacheStats",
    "Job",
    "JobFailedError",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JobTimeoutError",
    "MiningService",
    "QueueClosed",
    "QueueFull",
    "ResultCache",
    "RetriesExhaustedError",
    "RetryPolicy",
    "ServiceDraining",
    "UnknownJobError",
    "WorkerPool",
    "cache_key",
    "call_with_retry",
    "code_fingerprint",
    "graph_fingerprint",
    "run_job",
]
