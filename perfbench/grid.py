"""`grid`: the paper's mining grid through ``ExperimentRunner``.

Cells run in ``run_all`` order, one at a time.  The four Twitter
sliding-window cells are left out: with them one run takes ~75 s on a
2-core machine, more than the benchmark's run budget allows (see
``BENCHMARK.json``).  Set-up (dataset generation, encoding, window
chunking and RAG indexing for every pipeline) is timed apart from the
cells.  Each cell's ``run_to_dict`` digest is checked against the
digests recorded in ``grid_digests.json`` for that seed; seeds without a
record get a serialisation round-trip check and print their digests.
"""

from __future__ import annotations

import json
import time

from common import BENCH_DIR, Outcome, digest
from tracer import span_or_nothing

DIGESTS_FILE = BENCH_DIR / "grid_digests.json"


def paper_cells() -> list[tuple[str, str, str, str]]:
    """All 24 cells in ``ExperimentRunner.run_all`` order."""
    from repro.datasets.registry import DATASET_NAMES
    from repro.llm.profiles import MODEL_NAMES
    from repro.mining.pipeline import PROMPT_MODES
    from repro.mining.runner import METHODS

    return [
        (dataset, model, method, prompt_mode)
        for dataset in DATASET_NAMES
        for prompt_mode in PROMPT_MODES
        for method in METHODS
        for model in MODEL_NAMES
    ]


def cells(size: str) -> list[tuple[str, str, str, str]]:
    if size == "tiny":
        return [
            ("cybersecurity", "llama3", "rag", "zero_shot"),
            ("cybersecurity", "mixtral", "rag", "zero_shot"),
        ]
    return [
        cell for cell in paper_cells()
        if not (cell[0] == "twitter" and cell[2] == "sliding_window")
    ]


def cell_key(cell: tuple[str, str, str, str]) -> str:
    return "/".join(cell)


def load_reference() -> dict[str, dict[str, str]]:
    """seed (as a string) -> cell key -> run digest."""
    return json.loads(DIGESTS_FILE.read_text())["digests"]


def _setup(seed: int, grid: list[tuple[str, str, str, str]]):
    from repro.cypher import clear_plan_caches
    from repro.datasets.registry import clear_cache
    from repro.mining.runner import ExperimentRunner

    clear_cache()
    clear_plan_caches()
    runner = ExperimentRunner(base_seed=seed)
    for dataset in dict.fromkeys(cell[0] for cell in grid):
        runner.context(dataset)
        for method in dict.fromkeys(c[2] for c in grid if c[0] == dataset):
            runner.pipeline(dataset, method).warm()
    return runner


def _check(run, cell, run_digest: str, expected: str | None) -> bool:
    """Digest match when a reference exists, else structural checks."""
    if expected is not None:
        return run_digest == expected
    from repro.mining.persistence import run_from_dict, run_to_dict

    return (
        tuple(part.lower() for part in run.key()) == cell
        and digest(run_to_dict(run_from_dict(run_to_dict(run)))) == run_digest
        and all(
            min(r.metrics.support, r.metrics.relevant, r.metrics.body) >= 0
            for r in run.results
        )
    )


def run(seed: int, seconds: float, size: str = "full", tracer=None,
        reference: dict[str, dict[str, str]] | None = None) -> Outcome:
    from repro.mining.persistence import run_to_dict

    grid = cells(size)
    if reference is None:
        reference = load_reference()
    expected = reference.get(str(seed), {})
    outcome = Outcome()
    digests: dict[str, str] = {}
    mismatched: list[str] = []
    while not outcome.pass_s or sum(outcome.pass_s) < seconds:
        start = time.perf_counter()
        runner = _setup(seed, grid)
        outcome.setup_s.append(time.perf_counter() - start)
        pass_start = time.perf_counter()
        timed = []
        for cell in grid:
            op_start = time.perf_counter()
            with span_or_nothing(tracer, "grid.cell"):
                mined = runner.run(*cell)
            timed.append((cell, mined, time.perf_counter() - op_start))
        outcome.pass_s.append(time.perf_counter() - pass_start)
        for cell, mined, elapsed in timed:
            run_digest = digest(run_to_dict(mined))
            ok = _check(mined, cell, run_digest, expected.get(cell_key(cell)))
            outcome.record("cell", elapsed, ok)
            digests[cell_key(cell)] = run_digest
            if not ok:
                mismatched.append(cell_key(cell))
        del runner, timed
    if tracer is not None:
        outcome.layer_extra["mining.unattributed_s"] = tracer.self_times().get(
            "grid.cell", 0.0
        )
    outcome.detail = {
        "reference": bool(expected),
        "digests": digests,
        "mismatched": sorted(set(mismatched)),
    }
    return outcome


def record(seeds: list[int]) -> None:
    """Mine the full benchmark grid for ``seeds`` and store the digests.

        python3 perfbench/grid.py 0 1 2
    """
    reference = json.loads(DIGESTS_FILE.read_text())
    for seed in seeds:
        outcome = run(seed, 0, reference={})
        reference["digests"][str(seed)] = outcome.detail["digests"]
    DIGESTS_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    from common import SRC

    sys.path.insert(0, str(SRC))
    record([int(seed) for seed in sys.argv[1:]])
