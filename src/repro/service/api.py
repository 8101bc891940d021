"""Client facade: the in-process mining job service.

:class:`MiningService` turns the experiment grid into content-addressed
jobs and runs each one on the thread that asks for its result::

    with MiningService(cache_dir="~/.repro-cache") as service:
        job_id = service.submit("wwc2019", "llama3", "rag", "zero_shot")
        run = service.result(job_id)        # mines here, on this thread
        print(service.stats()["cache"])     # hit rate, stores, ...

Submission is idempotent: a job's id is the content address of its
(graph, code, config) triple, so submitting the same cell twice yields
the same id and at most one mining run.  Results persist in the on-disk
:class:`~repro.service.cache.ResultCache`, so a fresh process re-serving
an already-mined cell answers from cache without touching a pipeline.
Mining itself is :func:`~repro.service.workers.run_job`, the same job
core each gateway worker process runs: transient LLM failures are
retried with exponential backoff per the
:class:`~repro.service.workers.RetryPolicy`, and everything is
instrumented through :mod:`repro.obs`.  The service starts no thread;
parallel mining is the gateway fleet's job (``serve --port --workers N``).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable

from repro import obs
from repro.datasets.base import Dataset
from repro.datasets.registry import DATASET_NAMES, load
from repro.llm.profiles import MODEL_NAMES
from repro.mining.pipeline import PROMPT_MODES
from repro.mining.result import MiningRun
from repro.mining.runner import METHODS, PipelineCache
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobSpec, JobState, cache_key, graph_fingerprint
from repro.service.workers import RetryPolicy, run_job

__all__ = [
    "JobFailedError",
    "MiningService",
    "ServiceDraining",
    "UnknownJobError",
]


class UnknownJobError(KeyError):
    """No job with that id was ever submitted to this service."""


class ServiceDraining(RuntimeError):
    """The service is shutting down and refuses new submissions."""


class JobFailedError(RuntimeError):
    """The awaited job finished FAILED or CANCELLED."""

    def __init__(self, job: Job) -> None:
        super().__init__(
            f"job {job.job_id[:12]} ({'/'.join(job.spec.cell())}) "
            f"finished {job.state.value}"
            + (f": {job.error}" if job.error else "")
        )
        self.job = job


class MiningService:
    """Job table + content-addressed result cache over :func:`run_job`."""

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        retry_policy: RetryPolicy | None = None,
        loader: Callable[[str], Dataset] | None = None,
        base_seed: int = 0,
        window_size: int = 8000,
        overlap: int = 500,
        rag_chunk_tokens: int = 512,
        rag_top_k: int = 16,
        llm_middleware: Callable[[object], object] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.loader = loader or load
        self.base_seed = base_seed
        self.window_size = window_size
        self.overlap = overlap
        self.rag_chunk_tokens = rag_chunk_tokens
        self.rag_top_k = rag_top_k
        self._sleep = sleep
        self._clock = clock
        self.cache = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self._jobs: dict[str, Job] = {}      # insertion order = submit order
        self._pipelines = PipelineCache(self.loader, llm_middleware)
        self._fingerprints: dict[str, str] = {}
        self._lock = threading.Lock()         # job table + state moves
        self._fingerprint_lock = threading.Lock()
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once shutdown started; submissions are refused."""
        with self._lock:
            return self._draining

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> bool:
        """Graceful drain: refuse new jobs, then run the queued ones.

        New :meth:`submit` calls raise :class:`ServiceDraining` from the
        moment this is called.  With ``wait`` the jobs still QUEUED run
        here, on the caller's thread, in submit order; once ``timeout``
        seconds have passed on the service clock no further job starts.
        Returns True when no job is left QUEUED.
        """
        with self._lock:
            self._draining = True
            queued = self._queued()
        if wait:
            deadline = (
                self._clock() + timeout if timeout is not None else None
            )
            for job in queued:
                if deadline is not None and self._clock() >= deadline:
                    break
                self._run(job)
        with self._lock:
            return not self._queued()

    def drain(self, deadline_seconds: float | None = None) -> bool:
        """SIGTERM-style drain: alias of a waited :meth:`shutdown`."""
        return self.shutdown(wait=True, timeout=deadline_seconds)

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # ------------------------------------------------------------------
    # dataset / pipeline plumbing
    # ------------------------------------------------------------------
    def _graph_fingerprint(self, dataset: str) -> str:
        key = dataset.lower()
        with self._fingerprint_lock:
            if key not in self._fingerprints:
                self._fingerprints[key] = graph_fingerprint(
                    self.loader(key).graph
                )
            return self._fingerprints[key]

    def _spec(
        self, dataset: str, model: str, method: str, prompt_mode: str,
        **overrides: object,
    ) -> JobSpec:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; one of {METHODS}")
        if prompt_mode not in PROMPT_MODES:
            raise ValueError(
                f"unknown prompt mode {prompt_mode!r}; one of {PROMPT_MODES}"
            )
        defaults = {
            "base_seed": self.base_seed,
            "window_size": self.window_size,
            "overlap": self.overlap,
            "rag_chunk_tokens": self.rag_chunk_tokens,
            "rag_top_k": self.rag_top_k,
        }
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise TypeError(f"unknown spec overrides: {sorted(unknown)}")
        defaults.update(overrides)
        return JobSpec(
            dataset=dataset.lower(), model=model.lower(),
            method=method, prompt_mode=prompt_mode, **defaults,
        )

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: str,
        model: str,
        method: str,
        prompt_mode: str,
        **overrides: object,
    ) -> str:
        """Record one grid cell; returns its content-addressed job id.

        Re-submitting an identical cell returns the existing job's id
        without new work; a cell already present in the on-disk cache
        completes immediately as a DONE cache-hit job.  Otherwise the
        job waits QUEUED until :meth:`result` (or a waited
        :meth:`shutdown`) mines it.
        """
        if self.draining:
            raise ServiceDraining(
                "service is draining; new submissions are refused"
            )
        spec = self._spec(dataset, model, method, prompt_mode, **overrides)
        job_id = cache_key(spec, self._graph_fingerprint(spec.dataset))
        # find-or-insert and the cache lookup share one lock hold: a
        # concurrent submit of the same cell finds the finished entry
        # and neither reads the cache again nor queues a second job
        with self._lock:
            if job_id in self._jobs:
                return job_id
            job = Job(spec=spec, job_id=job_id, submitted_at=self._clock())
            cached = self.cache.get(job_id) if self.cache is not None else None
            if cached is not None:
                job.result = cached
                job.cache_hit = True
                job.state = JobState.DONE
                job.finished_at = job.submitted_at
                job.done.set()
            self._jobs[job_id] = job
        obs.inc("service.jobs_submitted")
        if job.cache_hit:
            obs.inc("service.jobs_completed", cache_hit=True)
        return job_id

    def submit_grid(
        self,
        datasets: tuple[str, ...] | list[str] | None = None,
        models: tuple[str, ...] | list[str] | None = None,
        methods: tuple[str, ...] | list[str] | None = None,
        prompt_modes: tuple[str, ...] | list[str] | None = None,
    ) -> list[str]:
        """Submit a grid slice; returns job ids in submission order."""
        ids = []
        for dataset in datasets or DATASET_NAMES:
            for prompt_mode in prompt_modes or PROMPT_MODES:
                for method in methods or METHODS:
                    for model in models or MODEL_NAMES:
                        ids.append(self.submit(
                            dataset, model, method, prompt_mode,
                        ))
        return ids

    def _job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def status(self, job_id: str) -> dict[str, object]:
        """A plain-dict snapshot of one job's lifecycle."""
        return self._job(job_id).snapshot()

    def result(self, job_id: str) -> MiningRun:
        """Mine a QUEUED job on this thread, or wait for the thread that
        is mining it; return its MiningRun."""
        job = self._job(job_id)
        self._run(job)
        job.done.wait()
        if job.state is not JobState.DONE:
            raise JobFailedError(job)
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running jobs cannot be recalled."""
        job = self._job(job_id)
        with self._lock:
            if job.state is not JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            job.finished_at = self._clock()
        job.done.set()
        obs.inc("service.jobs_cancelled")
        return True

    def stats(self) -> dict[str, object]:
        """Service-level accounting: the CLI summary and ``/jobs``."""
        with self._lock:
            jobs = list(self._jobs.values())
        by_state: dict[str, int] = {state.value: 0 for state in JobState}
        for job in jobs:
            by_state[job.state.value] += 1
        cache_stats = self.cache.stats if self.cache is not None else None
        return {
            "jobs": by_state,
            "submitted": len(jobs),
            "cache_hits": sum(1 for job in jobs if job.cache_hit),
            "retries": sum(job.retries for job in jobs),
            "attempts": sum(job.attempts for job in jobs),
            "cache": (
                {
                    "hits": cache_stats.hits,
                    "misses": cache_stats.misses,
                    "stores": cache_stats.stores,
                    "evictions": cache_stats.evictions,
                    "hit_rate": cache_stats.hit_rate,
                }
                if cache_stats is not None else None
            ),
        }

    def mine(
        self, dataset: str, model: str, method: str, prompt_mode: str,
        **overrides: object,
    ) -> MiningRun:
        """Submit-and-mine convenience for synchronous callers."""
        job_id = self.submit(dataset, model, method, prompt_mode, **overrides)
        return self.result(job_id)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _queued(self) -> list[Job]:
        return [
            job for job in self._jobs.values()
            if job.state is JobState.QUEUED
        ]

    def _run(self, job: Job) -> None:
        """Mine ``job`` here if it is still QUEUED; otherwise a no-op."""
        with self._lock:
            if job.state is not JobState.QUEUED:
                return  # done, cancelled, or mining on another thread
            job.state = JobState.RUNNING
            job.started_at = self._clock()
        try:
            run_job(
                job, self._pipelines, self.retry_policy, self.cache,
                sleep=self._sleep, clock=self._clock,
            )
        finally:
            job.done.set()
