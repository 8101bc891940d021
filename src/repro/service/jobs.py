"""Job model for the mining service.

A *job* is one grid cell (dataset × model × method × prompt mode) plus
the full pipeline configuration needed to mine it.  Its identity is
content-addressed: the id is a digest over

* a **graph fingerprint** — every node and edge of the dataset's graph,
  in deterministic order, so regenerating the same dataset yields the
  same id and a different graph is a guaranteed different id;
* a **code fingerprint** — the source text of the modules that determine
  a mining run's output, so upgrading the pipeline code invalidates old
  cache entries instead of silently serving stale results;
* the **pipeline configuration** — every knob that changes the produced
  :class:`~repro.mining.result.MiningRun`, canonically serialised.

The same triple therefore always maps to the same job id, across
processes and machines — which is exactly the key the on-disk result
cache is addressed by.

Both front doors, :class:`~repro.service.MiningService` and the HTTP
gateway, check specs with :meth:`SpecDefaults.spec` and keep their jobs
in a :class:`JobTable`.
"""

from __future__ import annotations

import enum
import hashlib
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.graph.store import PropertyGraph
from repro.llm.profiles import MODEL_NAMES
from repro.mining.persistence import FORMAT_VERSION
from repro.mining.pipeline import PROMPT_MODES
from repro.mining.runner import METHODS
from repro.service.cache import ResultCache


class JobState(enum.Enum):
    """Lifecycle of a job: QUEUED → RUNNING → DONE/FAILED/CANCELLED."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable grid cell with its full pipeline configuration."""

    dataset: str
    model: str
    method: str                      # 'sliding_window' | 'rag'
    prompt_mode: str                 # 'zero_shot' | 'few_shot'
    base_seed: int = 0
    window_size: int = 8000
    overlap: int = 500
    rag_chunk_tokens: int = 512
    rag_top_k: int = 16

    def cell(self) -> tuple[str, str, str, str]:
        return (
            self.dataset.lower(), self.model.lower(),
            self.method, self.prompt_mode,
        )

    def config_dict(self) -> dict[str, object]:
        """Every knob that affects the mined result, canonically keyed."""
        return {
            "dataset": self.dataset.lower(),
            "model": self.model.lower(),
            "method": self.method,
            "prompt_mode": self.prompt_mode,
            "base_seed": self.base_seed,
            "window_size": self.window_size,
            "overlap": self.overlap,
            "rag_chunk_tokens": self.rag_chunk_tokens,
            "rag_top_k": self.rag_top_k,
        }


#: integer knobs a submission may override, with bounds that keep a
#: hostile request from wedging a worker (0-token windows, giant top-k)
KNOB_BOUNDS = {
    "base_seed": (0, 2**31),
    "window_size": (64, 1_000_000),
    "overlap": (0, 100_000),
    "rag_chunk_tokens": (16, 100_000),
    "rag_top_k": (1, 4096),
}


@dataclass(frozen=True)
class SpecDefaults:
    """Defaults for the overridable pipeline knobs of a front door."""

    base_seed: int = 0
    window_size: int = 8000
    overlap: int = 500
    rag_chunk_tokens: int = 512
    rag_top_k: int = 16

    def spec(
        self, dataset: str, model: str, method: str, prompt_mode: str,
        **overrides: object,
    ) -> JobSpec:
        """A validated :class:`JobSpec`: :class:`ValueError` for a model,
        method or prompt mode outside the grid or a knob outside
        :data:`KNOB_BOUNDS`, :class:`TypeError` for a non-knob override.
        Datasets are open-ended: the loader decides."""
        unknown = set(overrides) - set(KNOB_BOUNDS)
        if unknown:
            raise TypeError(f"unknown spec overrides: {sorted(unknown)}")
        model = model.lower()
        for kind, value, vocabulary in (
            ("model", model, MODEL_NAMES),
            ("method", method, METHODS),
            ("prompt mode", prompt_mode, PROMPT_MODES),
        ):
            if value not in vocabulary:
                raise ValueError(
                    f"unknown {kind} {value!r}; one of {sorted(vocabulary)}"
                )
        knobs: dict[str, int] = {}
        for name, (low, high) in KNOB_BOUNDS.items():
            value = overrides.get(name, getattr(self, name))
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"field {name!r} must be an integer")
            if not low <= value <= high:
                raise ValueError(
                    f"field {name!r} must be in [{low}, {high}], got {value}"
                )
            knobs[name] = value
        return JobSpec(
            dataset=dataset.lower(), model=model,
            method=method, prompt_mode=prompt_mode, **knobs,
        )


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def graph_fingerprint(graph: PropertyGraph) -> str:
    """Content digest of a property graph.

    Nodes and edges are hashed in sorted-id order with their labels and
    sorted property maps, so the fingerprint is independent of insertion
    order and stable across processes.
    """
    digest = hashlib.sha256()
    digest.update(graph.name.encode("utf-8"))
    for node in sorted(graph.nodes(), key=lambda n: n.id):
        record = (
            node.id,
            tuple(sorted(node.labels)),
            tuple(sorted((k, repr(v)) for k, v in node.properties.items())),
        )
        digest.update(repr(record).encode("utf-8"))
    for edge in sorted(graph.edges(), key=lambda e: e.id):
        record = (
            edge.id, edge.label, edge.src, edge.dst,
            tuple(sorted((k, repr(v)) for k, v in edge.properties.items())),
        )
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


#: modules whose source determines a mining run's output — any change to
#: them must invalidate cached results
_CODE_FINGERPRINT_MODULES = (
    "repro.analysis.analyzer",
    "repro.analysis.canonical",
    "repro.analysis.dataflow",
    "repro.analysis.findings",
    "repro.analysis.satisfiability",
    "repro.analysis.typecheck",
    "repro.encoding.incident",
    "repro.encoding.windows",
    "repro.llm.faults",
    "repro.llm.induction",
    "repro.llm.profiles",
    "repro.llm.simulated",
    "repro.llm.timing",
    "repro.mining.pipeline",
    "repro.mining.ragpipe",
    "repro.mining.sliding",
    "repro.rag.retriever",
    "repro.rules.dedup",
    "repro.rules.nl",
    "repro.rules.translator",
)

_code_fingerprint_lock = threading.Lock()
_code_fingerprint_cache: dict[tuple[str, ...], str] = {}


def code_fingerprint(
    modules: tuple[str, ...] = _CODE_FINGERPRINT_MODULES,
) -> str:
    """Digest of the pipeline source code (cached per module set)."""
    with _code_fingerprint_lock:
        cached = _code_fingerprint_cache.get(modules)
        if cached is not None:
            return cached
    import importlib

    digest = hashlib.sha256()
    for name in modules:
        module = importlib.import_module(name)
        digest.update(name.encode("utf-8"))
        try:
            digest.update(inspect.getsource(module).encode("utf-8"))
        except (OSError, TypeError):  # frozen / sourceless installs
            digest.update(getattr(module, "__file__", name).encode("utf-8"))
    value = digest.hexdigest()
    with _code_fingerprint_lock:
        _code_fingerprint_cache[modules] = value
    return value


def cache_key(
    spec: JobSpec, graph_digest: str, code_digest: str | None = None
) -> str:
    """The content address of a job: config + graph + code + format."""
    payload = {
        "format_version": FORMAT_VERSION,
        "graph": graph_digest,
        "code": code_digest if code_digest is not None else code_fingerprint(),
        "config": spec.config_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
@dataclass
class Job:
    """A submitted grid cell and everything known about its execution."""

    spec: JobSpec
    job_id: str                      # == the result-cache content address
    state: JobState = JobState.QUEUED
    attempts: int = 0                # mining attempts actually started
    retries: int = 0                 # attempts beyond the first
    error: Optional[str] = None
    result: object = None            # MiningRun once DONE
    cache_hit: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def wait_seconds(self) -> float:
        """Submission to the start of mining (0 for cache hits)."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float:
        """Mining wall time, excluding the wait before it."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def snapshot(self) -> dict[str, object]:
        """A plain-dict view for status endpoints and the CLI."""
        return {
            "job_id": self.job_id,
            "cell": self.spec.cell(),
            "state": self.state.value,
            "attempts": self.attempts,
            "retries": self.retries,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "wait_seconds": self.wait_seconds,
            "run_seconds": self.run_seconds,
        }


# ----------------------------------------------------------------------
# the job table
# ----------------------------------------------------------------------
#: terminal-job retention bound: the oldest finished jobs are forgotten
#: once the table grows past it, so a long-lived server stays bounded
_MAX_JOBS = 4096


class UnknownJobError(KeyError):
    """No job with that id is in the table (never submitted, or its
    finished record was forgotten)."""


class JobTable:
    """The content-addressed job table behind both front doors: one
    lock guards the id → job dict and every state move made here.
    ``cache=None`` disables the cache short-circuit."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache = cache
        self._clock = clock
        self._jobs: dict[str, Job] = {}      # insertion order = submit order
        self._lock = threading.Lock()

    def find_or_insert(
        self,
        job_id: str,
        make: Callable[[], Job],
        accept: Callable[[Job], None] | None = None,
    ) -> tuple[Job, bool]:
        """The job with ``job_id``, and whether this call inserted it.

        Only a new job — ``make()`` — reads the cache, in the same lock
        hold as the lookup, so concurrent submits of one cell share one
        job and one cache read; a hit is DONE at once.  ``accept`` sees
        the new job under the lock; if it raises, the job is never
        recorded and the error propagates.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job, False
            job = make()
            run = self.cache.get(job_id) if self.cache is not None else None
            if run is not None:
                job.result = run
                job.cache_hit = True
                job.state = JobState.DONE
                job.finished_at = self._clock()
                job.done.set()
            if accept is not None:
                accept(job)
            self._jobs[job_id] = job
            if len(self._jobs) > _MAX_JOBS:
                done = [k for k, j in self._jobs.items() if j.state.terminal]
                for key in done[:len(self._jobs) - _MAX_JOBS]:
                    del self._jobs[key]
        return job, True

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def queued(self) -> list[Job]:
        """The QUEUED jobs, in submit order."""
        with self._lock:
            return [
                job for job in self._jobs.values()
                if job.state is JobState.QUEUED
            ]

    def take(self, job: Job, state: JobState) -> bool:
        """Move a QUEUED job to RUNNING (the caller mines it) or to
        CANCELLED; False when it is no longer QUEUED."""
        with self._lock:
            if job.state is not JobState.QUEUED:
                return False
            job.state = state
            if state is JobState.RUNNING:
                job.started_at = self._clock()
            else:
                job.finished_at = self._clock()
                job.done.set()
        return True

    def counts(self) -> dict[str, object]:
        """Per-state counts and attempt totals over the tracked jobs."""
        with self._lock:
            jobs = list(self._jobs.values())
        return {
            "jobs": {
                state.value: sum(1 for job in jobs if job.state is state)
                for state in JobState
            },
            "tracked": len(jobs),
            "cache_hits": sum(1 for job in jobs if job.cache_hit),
            "retries": sum(job.retries for job in jobs),
            "attempts": sum(job.attempts for job in jobs),
        }
