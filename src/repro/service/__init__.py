"""repro.service — in-process mining job service.

The experiment grid as content-addressed jobs: :class:`MiningService`
records submissions in a :class:`JobTable` (shared with the HTTP
gateway, as is :meth:`SpecDefaults.spec`) and mines each one with the
job core :func:`run_job` (retry/backoff around the LLM pipelines) on the
thread that asks for its result; gateway workers call :func:`run_job`
directly.  Finished runs land in an on-disk result cache layered on
:mod:`repro.mining.persistence`.
"""

from repro.service.api import (
    JobFailedError,
    MiningService,
    ServiceDraining,
)
from repro.service.cache import CacheStats, ResultCache
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    JobTable,
    SpecDefaults,
    UnknownJobError,
    cache_key,
    code_fingerprint,
    graph_fingerprint,
)
from repro.service.workers import (
    JobTimeoutError,
    RetriesExhaustedError,
    RetryPolicy,
    call_with_retry,
    run_job,
)

__all__ = [
    "CacheStats",
    "Job",
    "JobFailedError",
    "JobSpec",
    "JobState",
    "JobTable",
    "JobTimeoutError",
    "MiningService",
    "ResultCache",
    "RetriesExhaustedError",
    "RetryPolicy",
    "ServiceDraining",
    "SpecDefaults",
    "UnknownJobError",
    "cache_key",
    "call_with_retry",
    "code_fingerprint",
    "graph_fingerprint",
    "run_job",
]
