"""Full experiment grid: datasets × models × encodings × prompts.

One :class:`ExperimentRunner` produces the 24
:class:`~repro.mining.result.MiningRun` cells that Tables 2-6 are
assembled from.  Runs are cached by cell key; contexts and warmed
pipelines live in a :class:`PipelineCache`, which the job service and
the gateway worker use too (so encodings, window sets and vector
indexes are built once per dataset and config).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.datasets.base import Dataset
from repro.datasets.registry import DATASET_NAMES, load
from repro.llm.profiles import MODEL_NAMES
from repro.mining.pipeline import PROMPT_MODES, BasePipeline, PipelineContext
from repro.mining.ragpipe import RAGPipeline
from repro.mining.result import MiningRun
from repro.mining.sliding import SlidingWindowPipeline

METHODS = ("sliding_window", "rag")


def build_pipeline(
    context: PipelineContext,
    method: str,
    window_size: int = 8000,
    overlap: int = 500,
    rag_chunk_tokens: int = 512,
    rag_top_k: int = 16,
    base_seed: int = 0,
) -> BasePipeline:
    """A fresh (unwarmed) pipeline for one encoding method."""
    if method == "sliding_window":
        return SlidingWindowPipeline(
            context, window_size=window_size, overlap=overlap,
            base_seed=base_seed,
        )
    if method == "rag":
        return RAGPipeline(
            context, chunk_tokens=rag_chunk_tokens, top_k=rag_top_k,
            base_seed=base_seed,
        )
    raise ValueError(f"unknown method {method!r}; one of {METHODS}")


class PipelineCache:
    """Per-dataset contexts and warmed pipelines, safe across threads.

    Pipelines are keyed by encoding config, not by seed (windows and the
    RAG index do not depend on it): all seeds share one warmed pipeline,
    each through a shallow copy carrying its own ``base_seed``.
    """

    def __init__(
        self,
        loader: Callable[[str], Dataset] | None = None,
        llm_middleware: Callable[[object], object] | None = None,
    ) -> None:
        self.loader = loader or load
        self.llm_middleware = llm_middleware
        self._contexts: dict[str, PipelineContext] = {}
        self._pipelines: dict[tuple, BasePipeline] = {}
        self._lock = threading.RLock()

    def context(self, dataset: str) -> PipelineContext:
        key = dataset.lower()
        with self._lock:
            if key not in self._contexts:
                self._contexts[key] = PipelineContext.build(self.loader(key))
            return self._contexts[key]

    def pipeline(
        self,
        dataset: str,
        method: str,
        window_size: int = 8000,
        overlap: int = 500,
        rag_chunk_tokens: int = 512,
        rag_top_k: int = 16,
        base_seed: int = 0,
    ) -> BasePipeline:
        """The warmed pipeline for one encoding config, seeded per call."""
        config = (window_size, overlap, rag_chunk_tokens, rag_top_k)
        key = (dataset.lower(), method, *config)
        with self._lock:
            if key not in self._pipelines:
                shared = build_pipeline(self.context(dataset), method, *config)
                shared.llm_middleware = self.llm_middleware
                # pre-build windows / vector index under the lock so
                # concurrent mine() calls only ever read shared state
                shared.warm()
                self._pipelines[key] = shared
            seeded = copy.copy(self._pipelines[key])
        seeded.base_seed = base_seed
        return seeded

    def forget(self, dataset: str) -> None:
        """Drop one dataset's context and pipelines (its graph changed)."""
        name = dataset.lower()
        with self._lock:
            self._contexts.pop(name, None)
            for key in [key for key in self._pipelines if key[0] == name]:
                del self._pipelines[key]


@dataclass
class ExperimentRunner:
    """Runs and caches the paper's experiment grid."""

    base_seed: int = 0
    window_size: int = 8000
    overlap: int = 500
    rag_chunk_tokens: int = 512
    rag_top_k: int = 16
    _cache: PipelineCache = field(default_factory=PipelineCache)
    _runs: dict[tuple[str, str, str, str], MiningRun] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    def context(self, dataset: str) -> PipelineContext:
        return self._cache.context(dataset)

    def pipeline(self, dataset: str, method: str) -> BasePipeline:
        return self._cache.pipeline(
            dataset, method,
            window_size=self.window_size, overlap=self.overlap,
            rag_chunk_tokens=self.rag_chunk_tokens,
            rag_top_k=self.rag_top_k, base_seed=self.base_seed,
        )

    # ------------------------------------------------------------------
    def run(
        self, dataset: str, model: str, method: str, prompt_mode: str
    ) -> MiningRun:
        """Run (or fetch) one grid cell."""
        key = (dataset.lower(), model.lower(), method, prompt_mode)
        if key not in self._runs:
            pipeline = self.pipeline(dataset, method)
            with obs.span(
                "grid.cell",
                dataset=key[0], model=key[1], method=method,
                prompt_mode=prompt_mode,
            ):
                self._runs[key] = pipeline.mine(model, prompt_mode)
            obs.inc("grid.cells_run")
        return self._runs[key]

    def run_dataset(self, dataset: str) -> list[MiningRun]:
        """All eight cells for one dataset (Tables 2/3/4 layout)."""
        runs = []
        for prompt_mode in PROMPT_MODES:
            for method in METHODS:
                for model in MODEL_NAMES:
                    runs.append(self.run(dataset, model, method, prompt_mode))
        return runs

    def run_all(self) -> list[MiningRun]:
        """The full 24-cell grid across all three datasets."""
        runs = []
        for dataset in DATASET_NAMES:
            runs.extend(self.run_dataset(dataset))
        return runs
