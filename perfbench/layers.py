"""Which public functions the traced run wraps, and the per-layer metrics.

Each :class:`~tracer.Target` names the span its calls are recorded as;
the metric ``<span>_s`` is that span's summed self time.  Counts come
from wrapper observers or from the program's own ``repro.obs``
counters (``matcher.visits``, ``planner.*``, ``graph.csr.*``), read from
the collector the traced run installs.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Target, Tracer


def _observe_llm(tracer: Tracer, _index: int, _args, completion) -> None:
    tracer.count("llm.prompt_tokens", completion.prompt_tokens)


def _observe_execute(tracer: Tracer, index: int, args, _result) -> None:
    graph, query_text = args[0], args[1]
    tracer.queries.append((index, graph.fingerprint(), query_text))


def _observe_apply(tracer: Tracer, _index: int, _args, report) -> None:
    tracer.count("stream.reevaluated", report.reevaluated)
    tracer.count("stream.evaluable", report.total_rules - report.constant_rules)


_GRAPH = "repro.graph.store:PropertyGraph"
_MUTATORS = (
    "add_node", "add_edge", "update_node", "remove_node_property",
    "update_edge", "remove_edge", "remove_node",
)

TARGETS: list[Target] = [
    Target("datasets.load", "repro.datasets.registry", "load"),
    Target("datasets.load", "repro.datasets.snapshot", "dataset_from_dict"),
    Target("datasets.snapshot_write", "repro.datasets.snapshot", "save_dataset"),
    Target("datasets.snapshot_write", "repro.datasets.snapshot", "dataset_to_dict"),
    Target("encoding.encode", "repro.encoding.incident:IncidentEncoder", "encode"),
    Target("encoding.chunk", "repro.encoding.windows:SlidingWindowChunker",
           "chunk_statements"),
    Target("encoding.count_tokens", "repro.encoding.tokenizer", "count_tokens"),
    Target("rag.index", "repro.rag.retriever:GraphRetriever", "index_statements"),
    Target("rag.retrieve", "repro.rag.retriever:GraphRetriever", "retrieve"),
    Target("llm.complete", "repro.llm.simulated:SimulatedLLM", "complete",
           observe=_observe_llm),
    # the simulator parses rules too; only the pipeline's parse is the
    # rules layer, the simulator's stays inside llm.complete
    Target("rules.parse", "repro.rules.nl", "parse_rule_list",
           sites=("repro.mining.pipeline",)),
    Target("rules.dedup", "repro.rules.dedup", "deduplicate"),
    Target("rules.dedup", "repro.rules.dedup", "prune_implied"),
    Target("correction.correct", "repro.correction.corrector:QueryCorrector",
           "correct"),
    Target("analysis.analyze", "repro.analysis.analyzer:StaticAnalyzer", "analyze"),
    Target("analysis.triage", "repro.analysis.analyzer:StaticAnalyzer", "triage"),
    Target("mining.combine", "repro.mining.pipeline", "combine_and_cap"),
    Target("metrics.evaluate", "repro.metrics.evaluator", "evaluate_rule"),
    Target("cypher.execute", "repro.cypher.executor", "execute",
           observe=_observe_execute, sites=("repro.metrics.evaluator",)),
    Target("graph.columnar", _GRAPH, "columnar"),
    Target("graph.catalog", _GRAPH, "catalog"),
    *[Target("graph.write", _GRAPH, name) for name in _MUTATORS],
    Target("graph.write", _GRAPH, "batch", context=True),
    Target("stream.apply", "repro.stream.maintainer:IncrementalMaintainer",
           "apply", observe=_observe_apply),
    Target("gateway.submit_http", "repro.gateway.client:GatewayClient", "submit"),
    Target("gateway.poll_http", "repro.gateway.client:GatewayClient", "status"),
    Target("gateway.fetch_http", "repro.gateway.client:GatewayClient", "result"),
    Target("gateway.server_submit", "repro.gateway.server:Gateway", "submit"),
    Target("service.cache_get", "repro.service.cache:ResultCache", "get"),
]

#: modules whose by-name imports must exist before wrappers are installed
PRELOAD = (
    "repro.mining.runner", "repro.gateway", "repro.stream",
    "repro.datasets.snapshot", "repro.rag.retriever", "repro.llm.simulated",
)

#: per-layer metric name -> unit, in report order
PER_LAYER: dict[str, str] = {
    "datasets.load_s": "s",
    "datasets.snapshot_write_s": "s",
    "encoding.encode_s": "s",
    "encoding.chunk_s": "s",
    "encoding.count_tokens_s": "s",
    "encoding.count_tokens_calls": "count",
    "rag.index_s": "s",
    "rag.retrieve_s": "s",
    "llm.complete_s": "s",
    "llm.calls": "count",
    "llm.prompt_tokens": "count",
    "rules.parse_s": "s",
    "rules.dedup_s": "s",
    "correction.correct_s": "s",
    "analysis.analyze_s": "s",
    "analysis.triage_s": "s",
    "mining.combine_s": "s",
    "mining.unattributed_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.rules_evaluated": "count",
    "cypher.execute_s": "s",
    "cypher.calls": "count",
    "cypher.distinct_frac": "ratio",
    "cypher.visits": "count",
    "cypher.plan_cache_hit_frac": "ratio",
    "graph.columnar_s": "s",
    "graph.csr_compiles": "count",
    "graph.csr_incremental_updates": "count",
    "graph.catalog_s": "s",
    "graph.write_s": "s",
    "stream.apply_s": "s",
    "stream.reeval_frac": "ratio",
    "gateway.submit_http_s": "s",
    "gateway.poll_http_s": "s",
    "gateway.fetch_http_s": "s",
    "gateway.server_submit_s": "s",
    "service.cache_get_s": "s",
    "gateway.queue_wait_s": "s",
    "gateway.worker_job_s": "s",
    "gateway.unattributed_s": "s",
    "obs.trace_overhead_frac": "ratio",
}


def _obs_total(collector, name: str) -> float:
    """Sum of one repro.obs counter (or histogram sum) over all labels."""
    instrument = collector.metrics.get(name) if collector else None
    if instrument is None:
        return 0.0
    if instrument.kind == "histogram":
        return sum(
            instrument.snapshot(**labels).sum
            for labels, _ in instrument.samples()
        )
    return float(sum(value for _, value in instrument.samples()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(tracer: Tracer, collector, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER value from one traced pass.

    ``extra`` supplies what only the workload knows: the unattributed
    gaps, the gateway worker time and the tracing overhead.
    """
    self_s = tracer.self_times()
    totals = tracer.totals()
    values: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s" and name[:-2] in self_s:
            values[name] = self_s[name[:-2]]
    calls = len(tracer.queries)
    distinct = len({(fp, text) for _, fp, text in tracer.queries})
    values.update({
        "encoding.count_tokens_calls": totals.get("encoding.count_tokens", (0, 0))[0],
        "llm.calls": totals.get("llm.complete", (0, 0))[0],
        "llm.prompt_tokens": tracer.counts["llm.prompt_tokens"],
        "metrics.rules_evaluated": totals.get("metrics.evaluate", (0, 0))[0],
        "cypher.calls": calls,
        "cypher.distinct_frac": _ratio(distinct, calls),
        "cypher.visits": _obs_total(collector, "matcher.visits"),
        "cypher.plan_cache_hit_frac": _ratio(
            _obs_total(collector, "planner.cache_hits"),
            _obs_total(collector, "planner.cache_hits")
            + _obs_total(collector, "planner.plans"),
        ),
        "graph.csr_compiles": _obs_total(collector, "graph.csr.compiles"),
        "graph.csr_incremental_updates":
            _obs_total(collector, "graph.csr.incremental_updates"),
        "stream.reeval_frac": _ratio(
            tracer.counts["stream.reevaluated"], tracer.counts["stream.evaluable"]
        ),
        "gateway.queue_wait_s": _obs_total(collector, "gateway.queue_wait_seconds"),
    })
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def query_table(tracer: Tracer, top: int = 15) -> list[dict]:
    """Top-N Cypher queries by total time, keyed by analyzer signature.

    Call after the wrappers are uninstalled: computing signatures runs
    the analyzer, which must not land in the trace.
    """
    from repro.analysis.analyzer import StaticAnalyzer

    analyzer = StaticAnalyzer()
    signatures: dict[str, str] = {}
    rows: dict[str, dict] = defaultdict(
        lambda: {"seconds": 0.0, "calls": 0, "graphs": set(), "query": ""}
    )
    for index, fingerprint, text in tracer.queries:
        if text not in signatures:
            signatures[text] = analyzer.signature(text) or f"unparsed:{text}"
        row = rows[signatures[text]]
        row["seconds"] += tracer.spans[index].duration
        row["calls"] += 1
        row["graphs"].add(fingerprint)
        row["query"] = row["query"] or text
    ranked = sorted(rows.items(), key=lambda item: -item[1]["seconds"])[:top]
    return [
        {
            "signature": signature,
            "seconds": round(row["seconds"], 6),
            "calls": row["calls"],
            "distinct_graphs": len(row["graphs"]),
            "query": row["query"],
        }
        for signature, row in ranked
    ]
