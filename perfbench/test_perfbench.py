"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import ROOT, SRC

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_emits_every_metric(workload: str, trace: int) -> None:
    code, result = _result(
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_corrupted_reference_digest_counts_as_failure() -> None:
    import grid

    reference = grid.load_reference()
    corrupted = {"0": dict(reference["0"])}
    first = grid.cell_key(grid.cells("tiny")[0])
    corrupted["0"][first] = "0" * 64
    outcome = grid.run(0, 0, size="tiny", reference=corrupted)
    # the untouched cell still matches its recorded digest
    assert outcome.attempted == 2
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0
    assert outcome.detail["mismatched"] == [first]


def test_self_time_of_synthetic_nested_call() -> None:
    from tracer import Tracer, self_times, union_length

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf() -> None:
        next(ticks)                     # leaf body: 1 tick

    def middle() -> None:
        next(ticks)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf")
    wrapped_middle = tracer.wrap(middle, "middle")
    with tracer.span("outer"):
        next(ticks)
        wrapped_middle()
    spans = tracer.spans
    # one clock tick per call: outer [0, 11], middle [2, 10],
    # leaves [4, 6] and [7, 9]
    assert [(s.name, s.start, s.end) for s in spans] == [
        ("outer", 0, 11), ("middle", 2, 10), ("leaf", 4, 6), ("leaf", 7, 9),
    ]
    assert [s.parent for s in spans] == [None, 0, 1, 1]
    got = self_times(spans)
    assert got == {"leaf": 4.0, "middle": 8.0 - 4.0, "outer": 11.0 - 8.0}
    assert sum(got.values()) == spans[0].duration
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_uninstall_restores_wrapped_functions() -> None:
    import layers
    from tracer import Tracer, install

    for name in layers.PRELOAD:
        __import__(name)
    import repro.metrics.evaluator as evaluator
    from repro.graph.store import PropertyGraph

    before = (evaluator.execute, evaluator.evaluate_rule, PropertyGraph.batch)
    uninstall = install(Tracer(), layers.TARGETS)
    assert evaluator.execute is not before[0]
    uninstall()
    assert (evaluator.execute, evaluator.evaluate_rule, PropertyGraph.batch) == before


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, result = _result(
        "--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert code != 0 and result is None
