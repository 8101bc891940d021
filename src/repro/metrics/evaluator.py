"""Metric evaluation: run a rule's query bundle on the graph.

"The metrics for a given rule were computed by executing the
corresponding Cypher query" (§4.2) — here, against the
:mod:`repro.cypher` engine.  Queries that fail at runtime (e.g. they
reference hallucinated properties in a way the engine rejects) score
zero, mirroring a rule that matches nothing.

Counts are memoised per mutation epoch: an entry lives in the current
CSR snapshot's ``memo`` under ``("count", fingerprint, query text)``, so
any write, batch exit or snapshot invalidation drops it with the
snapshot, and a repeat on an unchanged graph executes nothing.
"""

from __future__ import annotations

import math

from repro import obs
from repro.cypher.errors import CypherError
from repro.cypher.executor import execute
from repro.graph.store import PropertyGraph
from repro.metrics.definitions import RuleMetrics
from repro.rules.translator import MetricQueries


def _run_count(graph: PropertyGraph, query_text: str) -> int:
    """Run a count query; non-integer, non-finite or failing results
    count as zero."""
    try:
        value = execute(graph, query_text).scalar()
    except CypherError:
        return 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0
    if isinstance(value, float) and not math.isfinite(value):
        return 0
    return int(value)


def _count(graph: PropertyGraph, query_text: str) -> tuple[int, bool]:
    """``(count, served from the memo)`` for one metric query."""
    fingerprint = graph.fingerprint()
    memo = graph.columnar().memo
    key = ("count", fingerprint, query_text)
    cached = memo.get(key)
    if cached is not None:
        obs.inc("metrics.count_memo.hits")
        return cached, True
    obs.inc("metrics.count_memo.misses")
    value = _run_count(graph, query_text)
    if graph.fingerprint() == fingerprint:
        # a query that wrote moved the epoch, so its count is not kept;
        # inside graph.batch() the epoch moves only at exit, but the
        # write already retired the snapshot holding ``memo``: the store
        # never hands that snapshot out again
        memo[key] = value
    return value, False


def evaluate_rule(graph: PropertyGraph, queries: MetricQueries) -> RuleMetrics:
    """Compute §4.2 metrics for one rule's query bundle."""
    with obs.span("evaluate") as sp:
        support, support_hit = _count(graph, queries.satisfy)
        relevant, relevant_hit = _count(graph, queries.relevant)
        body, body_hit = _count(graph, queries.body)
        metrics = RuleMetrics(support=support, relevant=relevant, body=body)
        sp.set_attribute("support", metrics.support)
        sp.set_attribute("relevant", metrics.relevant)
        sp.set_attribute("body", metrics.body)
        sp.set_attribute("memo_hits", support_hit + relevant_hit + body_hit)
        obs.inc("metrics.rules_evaluated")
    return metrics
