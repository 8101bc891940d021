"""Worker process entrypoint: ``python -m repro.gateway.worker``.

One worker is one single-threaded OS process: it mines one job at a
time on its main thread through the job core
:func:`~repro.service.run_job` (retry/backoff, store into the *shared*
on-disk result cache).  The dispatcher is the only scheduler.  The
worker speaks the line protocol of :mod:`repro.gateway.protocol`:

* reads ``job`` ops — each names a dataset snapshot file (written by
  the gateway via :mod:`repro.datasets.snapshot`), the full pipeline
  spec and the gateway's content-addressed job id;
* loads the snapshot (cached and fingerprinted per dataset name),
  recomputes the content address and emits a ``done`` event.  A cell
  another worker process already mined is a **cross-process cache
  hit** that never touches a pipeline;
* exits on a ``shutdown`` op or stdin EOF, and on SIGTERM/SIGINT: at
  once when idle, else after the in-flight job — or, past
  ``drain_timeout``, abandoning it for the dispatcher to requeue.

Stdout carries protocol lines only; anything human-readable goes to
stderr.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path
from typing import IO

from repro.datasets.base import Dataset
from repro.datasets.snapshot import load_dataset
from repro.gateway import protocol
from repro.mining.runner import PipelineCache
from repro.obs import distributed
from repro.obs import trace as obs_trace
from repro.service import Job, JobState, ResultCache, RetryPolicy, run_job
from repro.service.jobs import cache_key, graph_fingerprint

__all__ = ["GatewayWorker", "main"]


class _DrainRequested(BaseException):
    """Raised out of a signal handler to unwind into the drain path; a
    BaseException so a job's ``except Exception`` cannot swallow it."""


class GatewayWorker:
    """The protocol loop around the mining job core."""

    def __init__(
        self,
        cache_dir: str | Path,
        worker_id: str = "w0",
        max_retries: int = 3,
        retry_base_delay: float = 0.5,
        drain_timeout: float = 30.0,
        stdin: IO[str] | None = None,
        stdout: IO[str] | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.drain_timeout = drain_timeout
        self._stdin = stdin if stdin is not None else sys.stdin
        self._stdout = stdout if stdout is not None else sys.stdout
        self._cache = ResultCache(cache_dir)
        self._retry_policy = RetryPolicy(
            max_retries=max_retries, base_delay=retry_base_delay
        )
        #: dataset name -> (snapshot path, graph fingerprint)
        self._snapshots: dict[str, tuple[str, str]] = {}
        self._datasets: dict[str, Dataset] = {}
        self._pipelines = PipelineCache(loader=self._datasets.__getitem__)
        self._busy = False               # a job is running
        self._drain_requested = False    # signalled during a job
        self.jobs_handled = 0

    # ------------------------------------------------------------------
    def _ensure_snapshot(self, name: str, path: str) -> str:
        """Load (or reload) the dataset behind ``name``; returns its
        graph fingerprint.

        A changed snapshot path for a known name means the gateway
        regenerated the dataset: that dataset's context and warmed
        pipelines are stale and dropped; other datasets keep theirs.
        """
        name = name.lower()
        if self._snapshots.get(name, ("",))[0] != path:
            dataset = self._datasets[name] = load_dataset(path)
            self._pipelines.forget(name)
            self._snapshots[name] = (path, graph_fingerprint(dataset.graph))
        return self._snapshots[name][1]

    # ------------------------------------------------------------------
    def _emit(self, message: dict) -> None:
        self._stdout.write(protocol.encode_line(message))
        self._stdout.flush()

    def _begin_trace(self, message: dict, job_id: str) -> tuple | None:
        """Adopt the gateway's trace context for one job, if present.

        Installs a fresh per-job collector and opens the worker-side
        root span; every service/pipeline span the mining run records
        nests under it.  Returns ``(collector, root, trace_id,
        previously installed collector)``.
        """
        context = distributed.parse_traceparent(message.get("trace"))
        if context is None:
            return None
        trace_id, parent_span = context
        previous = obs_trace.get_collector()
        collector = obs_trace.TraceCollector()
        obs_trace.install(collector)
        root = collector.start_span("worker.job", {
            "trace_id": trace_id,
            "remote_parent": parent_span,
            "job_id": job_id[:12],
            "worker": self.worker_id,
            "pid": os.getpid(),
        })
        return collector, root, trace_id, previous

    def _end_trace(
        self, adopted: tuple | None, error: str | None = None,
    ) -> tuple[str | None, dict | None]:
        """Close the job's root span, restore the previous collector and
        serialise the finished tree for the ``done`` event."""
        if adopted is None:
            return None, None
        collector, root, trace_id, previous = adopted
        if error is not None:
            root.attributes.setdefault("error", error)
        collector.end_span(root)
        if previous is not None:
            obs_trace.install(previous)
        else:
            obs_trace.uninstall()
        return trace_id, distributed.span_to_wire(root)

    def _mine(self, message: dict) -> dict:
        """Run one ``job`` op; returns its ``done`` event fields."""
        spec = protocol.spec_from_payload(message["spec"])
        fingerprint = self._ensure_snapshot(
            spec.dataset, str(message["snapshot"])
        )
        job = Job(spec=spec, job_id=cache_key(spec, fingerprint))
        job.result = self._cache.get(job.job_id)
        if job.result is not None:
            job.cache_hit, job.state = True, JobState.DONE
        else:
            job.state = JobState.RUNNING
            job.submitted_at = job.started_at = time.monotonic()
            run_job(job, self._pipelines, self._retry_policy, self._cache)
        if job.state is not JobState.DONE:
            return {"ok": False, "error": job.error}
        return {
            "ok": True, "cache_hit": job.cache_hit,
            "attempts": job.attempts, "retries": job.retries,
            "rules": job.result.rule_count, "computed_id": job.job_id,
        }

    def handle_job(self, message: dict) -> None:
        job_id = str(message.get("job_id", ""))
        started = time.monotonic()
        adopted = self._begin_trace(message, job_id)
        # stays the outcome only if the drain deadline abandons the job,
        # which unwinds past the done event
        outcome = {"ok": False, "error": "abandoned at the drain deadline"}
        try:
            outcome = self._mine(message)
        except Exception as error:
            # snapshot errors, protocol drift — anything job-scoped
            # becomes a failed done event, never a dead worker
            outcome["error"] = f"{type(error).__name__}: {error}"
        finally:
            trace_id, spans = self._end_trace(adopted, outcome.get("error"))
        self._emit(protocol.done_event(
            job_id, run_seconds=time.monotonic() - started,
            trace=trace_id, spans=spans, **outcome,
        ))
        self.jobs_handled += 1

    # ------------------------------------------------------------------
    def _on_signal(self, signum: int, frame: object) -> None:
        """SIGTERM/SIGINT exit at once when idle; during a job they arm
        the drain deadline (SIGALRM), which abandons the job."""
        if signum == signal.SIGALRM or not self._busy:
            raise _DrainRequested()
        if not self._drain_requested:
            self._drain_requested = True
            # a zero interval would disarm the timer, not fire it
            signal.setitimer(
                signal.ITIMER_REAL, max(self.drain_timeout, 1e-3)
            )

    def run(self) -> int:
        """Protocol loop: read ops until shutdown/EOF/signal, then bye."""
        previous = {}
        try:
            for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
                previous[signum] = signal.signal(signum, self._on_signal)
        except ValueError:  # not the main thread: no signal drain
            pass
        exit_code = 0
        try:
            self._emit(protocol.ready_event(self.worker_id, os.getpid()))
            while not self._drain_requested:
                line = self._stdin.readline()
                if not line:          # gateway closed stdin
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = protocol.decode_line(line)
                except protocol.ProtocolError as error:
                    print(
                        f"worker {self.worker_id}: {error}",
                        file=sys.stderr,
                    )
                    exit_code = 2
                    break
                op = message.get("op")
                if op == "shutdown":
                    break
                if op == "job":
                    self._busy = True
                    try:
                        self.handle_job(message)
                    finally:
                        self._busy = False
                # unknown ops are skipped: a newer gateway may send
                # advisory ops an older worker can safely ignore
        except _DrainRequested:
            pass
        finally:
            if previous:
                signal.setitimer(signal.ITIMER_REAL, 0)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._emit({
                "event": "bye",
                "worker_id": self.worker_id,
                "jobs": self.jobs_handled,
            })
        return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway.worker",
        description=(
            "Gateway worker process: mines jobs read from stdin "
            "(JSON lines), stores results in the shared on-disk cache, "
            "reports completions on stdout."
        ),
    )
    parser.add_argument("--cache-dir", required=True, metavar="PATH")
    parser.add_argument("--worker-id", default="w0")
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--retry-base-delay", type=float, default=0.5)
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="deadline for the in-flight job on shutdown (seconds)",
    )
    args = parser.parse_args(argv)
    worker = GatewayWorker(
        cache_dir=args.cache_dir,
        worker_id=args.worker_id,
        max_retries=args.max_retries,
        retry_base_delay=args.retry_base_delay,
        drain_timeout=args.drain_timeout,
    )
    return worker.run()


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
