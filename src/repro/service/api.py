"""Client facade: the in-process mining job service.

:class:`MiningService` turns the experiment grid into content-addressed
jobs and runs each one on the thread that asks for its result::

    with MiningService(cache_dir="~/.repro-cache") as service:
        job_id = service.submit("wwc2019", "llama3", "rag", "zero_shot")
        run = service.result(job_id)        # mines here, on this thread
        print(service.stats()["cache"])     # hit rate, stores, ...

Submission is idempotent: a job's id is the content address of its
(graph, code, config) triple, so submitting the same cell twice yields
the same id and at most one mining run.  Specs are checked by
:meth:`SpecDefaults.spec` and jobs live in a :class:`JobTable`, both
shared with the HTTP gateway.  Results persist in the on-disk
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
from dataclasses import asdict
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
from repro.service.jobs import (
    Job,
    JobState,
    JobTable,
    SpecDefaults,
    cache_key,
    graph_fingerprint,
)
from repro.service.workers import RetryPolicy, run_job

__all__ = [
    "JobFailedError",
    "MiningService",
    "ServiceDraining",
]


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
    """A :class:`JobTable` + content-addressed result cache over
    :func:`run_job`."""

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        retry_policy: RetryPolicy | None = None,
        loader: Callable[[str], Dataset] | None = None,
        defaults: SpecDefaults | None = None,
        llm_middleware: Callable[[object], object] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.loader = loader or load
        self.defaults = defaults or SpecDefaults()
        self._sleep = sleep
        self._clock = clock
        self.jobs = JobTable(
            ResultCache(cache_dir) if cache_dir is not None else None, clock
        )
        self._pipelines = PipelineCache(self.loader, llm_middleware)
        self._fingerprints: dict[str, str] = {}
        self._fingerprint_lock = threading.Lock()
        self._draining = threading.Event()

    @property
    def cache(self) -> ResultCache | None:
        """The result cache submits read and finished jobs fill."""
        return self.jobs.cache

    @cache.setter
    def cache(self, cache: ResultCache | None) -> None:
        self.jobs.cache = cache

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once shutdown started; submissions are refused."""
        return self._draining.is_set()

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> bool:
        """Graceful drain: refuse new jobs, then run the queued ones.

        New :meth:`submit` calls raise :class:`ServiceDraining` from the
        moment this is called.  With ``wait`` the jobs still QUEUED run
        here, on the caller's thread, in submit order; once ``timeout``
        seconds have passed on the service clock no further job starts.
        Returns True when no job is left QUEUED.
        """
        self._draining.set()
        if wait:
            deadline = (
                self._clock() + timeout if timeout is not None else None
            )
            for job in self.jobs.queued():
                if deadline is not None and self._clock() >= deadline:
                    break
                self._run(job)
        return not self.jobs.queued()

    def drain(self, deadline_seconds: float | None = None) -> bool:
        """SIGTERM-style drain: alias of a waited :meth:`shutdown`."""
        return self.shutdown(wait=True, timeout=deadline_seconds)

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # ------------------------------------------------------------------
    # dataset plumbing
    # ------------------------------------------------------------------
    def _graph_fingerprint(self, dataset: str) -> str:
        key = dataset.lower()
        with self._fingerprint_lock:
            if key not in self._fingerprints:
                self._fingerprints[key] = graph_fingerprint(
                    self.loader(key).graph
                )
            return self._fingerprints[key]

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
        :meth:`shutdown`) mines it.  ``overrides`` replace the service's
        :class:`SpecDefaults` for this cell.
        """
        if self.draining:
            raise ServiceDraining(
                "service is draining; new submissions are refused"
            )
        spec = self.defaults.spec(
            dataset, model, method, prompt_mode, **overrides
        )
        job_id = cache_key(spec, self._graph_fingerprint(spec.dataset))
        job, inserted = self.jobs.find_or_insert(
            job_id,
            lambda: Job(spec=spec, job_id=job_id, submitted_at=self._clock()),
        )
        if inserted:
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

    def status(self, job_id: str) -> dict[str, object]:
        """A plain-dict snapshot of one job's lifecycle."""
        return self.jobs.get(job_id).snapshot()

    def result(self, job_id: str) -> MiningRun:
        """Mine a QUEUED job on this thread, or wait for the thread that
        is mining it; return its MiningRun."""
        job = self.jobs.get(job_id)
        self._run(job)
        job.done.wait()
        if job.state is not JobState.DONE:
            raise JobFailedError(job)
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running jobs cannot be recalled."""
        if not self.jobs.take(self.jobs.get(job_id), JobState.CANCELLED):
            return False
        obs.inc("service.jobs_cancelled")
        return True

    def stats(self) -> dict[str, object]:
        """Service-level accounting: the CLI summary and ``/jobs``."""
        counts = self.jobs.counts()
        cache = self.cache.stats if self.cache is not None else None
        return {
            **counts,
            "submitted": counts["tracked"],
            "cache": (
                {**asdict(cache), "hit_rate": cache.hit_rate}
                if cache is not None else None
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
    def _run(self, job: Job) -> None:
        """Mine ``job`` here if it is still QUEUED; otherwise a no-op."""
        if not self.jobs.take(job, JobState.RUNNING):
            return  # done, cancelled, or mining on another thread
        try:
            run_job(
                job, self._pipelines, self.retry_policy, self.cache,
                sleep=self._sleep, clock=self._clock,
            )
        finally:
            job.done.set()
