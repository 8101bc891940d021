"""`stream`: seeded mutation batches with incremental rule maintenance.

Set-up takes a snapshot round-trip copy of cybersecurity (so the shared
registry graph is never mutated), mines llama3 / sliding_window /
zero_shot on it (the watch-mode default) and attaches a change log.  Each timed op is one batch
of mutations applied inside ``graph.batch()`` followed by
``IncrementalMaintainer.apply`` on that batch's deltas:

* ~50% insert an edge copying an existing edge's type, endpoints and
  properties;
* ~30% rewrite a node property with a value another node of the same
  label holds for that key;
* ~20% delete an edge inserted earlier (an insert when none is left).

Every batch moves the graph to a new epoch, so few Cypher executions
repeat a (graph, query) pair.  At the end the maintained metrics must
equal ``IncrementalMaintainer.recompute()``.
"""

from __future__ import annotations

import random
import time

from common import Outcome, digest

DATASET = "cybersecurity"
MODEL, METHOD, PROMPT_MODE = "llama3", "sliding_window", "zero_shot"
#: the watched run is mined once with the paper's seed; the workload
#: seed drives the mutation stream, so seeds vary the writes, not the
#: rule set being maintained
MINING_SEED = 0
#: set-ups per pass; the median is reported, the last one is used
SETUP_REPEATS = 3


def sizes(size: str) -> tuple[int, int]:
    """(batches, mutations per batch); 160 batches leave 16 samples
    beyond the nearest-rank p90."""
    return (3, 10) if size == "tiny" else (160, 50)


def _setup():
    from repro.datasets.registry import load
    from repro.datasets.snapshot import dataset_from_dict, dataset_to_dict
    from repro.graph import GraphChangeLog
    from repro.mining import PipelineContext, SlidingWindowPipeline
    from repro.stream import IncrementalMaintainer

    dataset = dataset_from_dict(dataset_to_dict(load(DATASET, cache=False)))
    context = PipelineContext.build(dataset)
    mined = SlidingWindowPipeline(context, base_seed=MINING_SEED).mine(
        MODEL, PROMPT_MODE
    )
    graph = dataset.graph
    maintainer = IncrementalMaintainer(mined, graph)
    changelog = GraphChangeLog().attach(graph)
    return graph, maintainer, changelog


class MutationSource:
    """Deterministic mutation stream over one graph, from ``seed``."""

    def __init__(self, graph, seed: int) -> None:
        self.graph = graph
        self.rng = random.Random(seed)
        self.edges = sorted(graph.edges(), key=lambda edge: edge.id)
        self.nodes = sorted(
            (node for node in graph.nodes() if node.properties),
            key=lambda node: node.id,
        )
        self.donors: dict[tuple[str, str], list] = {}
        for node in self.nodes:
            label = min(node.labels)
            for key, value in sorted(node.properties.items()):
                self.donors.setdefault((label, key), []).append(value)
        self.inserted: list[str] = []
        self.serial = 0

    def apply_one(self) -> None:
        roll = self.rng.random()
        if roll < 0.5 or (roll >= 0.8 and not self.inserted):
            edge = self.rng.choice(self.edges)
            self.serial += 1
            edge_id = f"perfbench-e{self.serial}"
            self.graph.add_edge(
                edge_id, edge.label, edge.src, edge.dst, dict(edge.properties)
            )
            self.inserted.append(edge_id)
        elif roll < 0.8:
            node = self.rng.choice(self.nodes)
            key = self.rng.choice(sorted(node.properties))
            values = self.donors[(min(node.labels), key)]
            self.graph.update_node(node.id, {key: self.rng.choice(values)})
        else:
            index = self.rng.randrange(len(self.inserted))
            self.inserted[index], self.inserted[-1] = (
                self.inserted[-1], self.inserted[index]
            )
            self.graph.remove_edge(self.inserted.pop())


def run(seed: int, seconds: float, size: str = "full", tracer=None) -> Outcome:
    batches, per_batch = sizes(size)
    outcome = Outcome()
    maintained: list = []
    reevaluated = evaluable = 0
    while not outcome.pass_s or sum(outcome.pass_s) < seconds:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            graph, maintainer, changelog = _setup()
            outcome.setup_s.append(time.perf_counter() - start)
        source = MutationSource(graph, seed)
        pass_start = time.perf_counter()
        for _ in range(batches):
            op_start = time.perf_counter()
            epoch = graph.epoch
            with graph.batch():
                for _ in range(per_batch):
                    source.apply_one()
            report = maintainer.apply(
                changelog.since(epoch), complete=changelog.complete_since(epoch)
            )
            outcome.record("batch", time.perf_counter() - op_start, True)
            reevaluated += report.reevaluated
            evaluable += report.total_rules - report.constant_rules
        outcome.pass_s.append(time.perf_counter() - pass_start)
        maintained.append(maintainer)

    def verify(outcome: Outcome) -> None:
        # a wrong maintained metric cannot be pinned to one batch, so a
        # mismatch fails every batch of its pass
        wrong = 0
        for keeper in maintained:
            current = [result.metrics for result in keeper.run.results]
            if current != keeper.recompute():
                wrong += batches
            outcome.detail.setdefault("metrics_digest", []).append(
                digest([[m.support, m.relevant, m.body] for m in current])
            )
        outcome.failed = wrong

    outcome.verify = verify
    outcome.detail = {"reevaluated": reevaluated, "evaluable": evaluable}
    return outcome
