"""The mining job core, the worker pool and retry/backoff machinery.

:func:`run_job` is the one job core: the service's pool threads (plain
threads draining the :class:`~repro.service.queue.JobQueue`) and each
gateway worker process's main thread run it.  Retrying lives here: LLM
backends fail transiently — timeouts, 429s, connection resets, modelled
by :class:`repro.llm.faults.TransientLLMError` — and a grid run must
degrade to a delayed cell, not a dead process.  Each attempt gets
exponentially more breathing room, and a cooperative per-job timeout
bounds how long a cell may churn before it is declared FAILED.

Both the clock and the sleep function are injectable so tests drive
backoff schedules deterministically in zero wall time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.llm.faults import TransientLLMError
from repro.mining.result import MiningRun
from repro.mining.runner import PipelineCache
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue, QueueClosed


class RetriesExhaustedError(RuntimeError):
    """Every allowed attempt failed transiently."""

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"all {attempts} attempts failed transiently; "
            f"last error: {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


class JobTimeoutError(RuntimeError):
    """The job's cooperative deadline passed between attempts."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**n``, capped."""

    max_retries: int = 3             # retries *beyond* the first attempt
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    timeout_seconds: Optional[float] = None   # cooperative per-job budget

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based)."""
        return min(
            self.max_delay, self.base_delay * self.multiplier ** retry_index
        )


def call_with_retry(
    fn: Callable[[], object],
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (TransientLLMError,),
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_retry: Callable[[int, float, BaseException], None] | None = None,
) -> object:
    """Call ``fn`` with exponential-backoff retries on transient errors.

    Non-retryable exceptions propagate immediately.  The cooperative
    timeout is checked between attempts (the simulated pipelines are
    synchronous, so mid-call preemption is neither possible nor needed):
    when the next backoff would land past the deadline, the job fails
    with :class:`JobTimeoutError` rather than sleeping uselessly.
    """
    deadline = (
        clock() + policy.timeout_seconds
        if policy.timeout_seconds is not None else None
    )
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn()
        except retryable as error:
            retry_index = attempts - 1
            if retry_index >= policy.max_retries:
                raise RetriesExhaustedError(attempts, error) from error
            pause = policy.delay(retry_index)
            if deadline is not None and clock() + pause > deadline:
                raise JobTimeoutError(
                    f"deadline of {policy.timeout_seconds}s would pass "
                    f"during backoff after {attempts} attempts"
                ) from error
            if on_retry is not None:
                on_retry(attempts, pause, error)
            sleep(pause)


def run_job(
    job: Job,
    pipelines: PipelineCache,
    policy: RetryPolicy,
    cache: ResultCache | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Mine one RUNNING job to DONE (result stored in ``cache``) or FAILED.

    The caller moves the job to RUNNING (setting ``started_at``) and
    signals ``job.done`` afterwards; job-scoped errors end up in
    ``job.error``, never raised.
    """
    spec = job.spec
    obs.observe("service.job_wait_seconds", job.wait_seconds)

    def attempt() -> MiningRun:
        job.attempts += 1
        with obs.span(
            "service.attempt",
            job_id=job.job_id[:12], attempt=job.attempts,
        ):
            pipeline = pipelines.pipeline(
                spec.dataset, spec.method,
                window_size=spec.window_size, overlap=spec.overlap,
                rag_chunk_tokens=spec.rag_chunk_tokens,
                rag_top_k=spec.rag_top_k, base_seed=spec.base_seed,
            )
            return pipeline.mine(spec.model, spec.prompt_mode)

    def on_retry(attempts: int, pause: float, error: BaseException) -> None:
        job.retries += 1
        obs.inc("service.retries")
        obs.observe("service.retry_backoff_seconds", pause)

    try:
        with obs.span(
            "service.job",
            job_id=job.job_id[:12],
            dataset=spec.dataset, model=spec.model,
            method=spec.method, prompt_mode=spec.prompt_mode,
        ) as sp:
            run = call_with_retry(
                attempt, policy, sleep=sleep, clock=clock, on_retry=on_retry,
            )
            sp.set_attribute("attempts", job.attempts)
            sp.set_attribute("rules", run.rule_count)
        if cache is not None:
            cache.put(
                job.job_id, run,
                meta={"cell": list(spec.cell()), "attempts": job.attempts},
            )
        job.result = run
        job.state = JobState.DONE
        obs.inc("service.jobs_completed", cache_hit=False)
    except Exception as error:
        job.error = f"{type(error).__name__}: {error}"
        job.state = JobState.FAILED
        obs.inc("service.jobs_failed", error=type(error).__name__)
    finally:
        job.finished_at = clock()
        obs.observe("service.job_seconds", job.run_seconds)


class WorkerPool:
    """N daemon threads draining a queue through one execution callback."""

    def __init__(
        self,
        queue: JobQueue,
        execute: Callable[[object], None],
        workers: int = 2,
        name: str = "miner",
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.queue = queue
        self.execute = execute
        self.worker_count = workers
        self.name = name
        self._threads: list[threading.Thread] = []
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.worker_count):
            thread = threading.Thread(
                target=self._loop,
                name=f"{self.name}-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _loop(self) -> None:
        while True:
            try:
                job = self.queue.get()
            except QueueClosed:
                return
            # the execute callback owns all job-level error handling; a
            # worker thread must survive anything a job throws at it
            try:
                self.execute(job)
            except Exception as error:  # pragma: no cover - defensive
                obs.inc(
                    "service.worker_crashes",
                    exc_type=type(error).__name__,
                )

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the workers to exit (call after queue.close())."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)

    @property
    def alive(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())
