"""Unit tests for support / coverage / confidence."""

import contextlib

import pytest

from repro import obs
from repro.graph import infer_schema
from repro.metrics import (
    AggregateMetrics,
    RuleMetrics,
    aggregate,
    evaluate_rule,
)
from repro.rules import ConsistencyRule, RuleKind, RuleTranslator
from repro.metrics.evaluator import _count
from repro.rules.translator import MetricQueries


class TestRuleMetrics:
    def test_coverage_and_confidence(self):
        metrics = RuleMetrics(support=50, relevant=100, body=80)
        assert metrics.coverage == 50.0
        assert metrics.confidence == 62.5

    def test_zero_denominators(self):
        metrics = RuleMetrics(support=0, relevant=0, body=0)
        assert metrics.coverage == 0.0
        assert metrics.confidence == 0.0

    def test_capped_at_100(self):
        metrics = RuleMetrics(support=150, relevant=100, body=100)
        assert metrics.coverage == 100.0
        assert metrics.confidence == 100.0

    @pytest.mark.parametrize("support,relevant,body", [
        (0, 10, 10), (5, 10, 7), (10, 10, 10),
    ])
    def test_bounds_invariant(self, support, relevant, body):
        metrics = RuleMetrics(support=support, relevant=relevant, body=body)
        assert 0.0 <= metrics.coverage <= 100.0
        assert 0.0 <= metrics.confidence <= 100.0


class TestAggregate:
    def test_empty(self):
        assert aggregate([]) == AggregateMetrics(0, 0.0, 0.0, 0.0)

    def test_averages(self):
        cells = aggregate([
            RuleMetrics(support=10, relevant=10, body=10),
            RuleMetrics(support=0, relevant=10, body=10),
        ])
        assert cells.rule_count == 2
        assert cells.avg_support == 5.0
        assert cells.avg_coverage == 50.0
        assert cells.avg_confidence == 50.0


class TestEvaluateRule:
    def test_against_translator(self, sports_graph):
        translator = RuleTranslator(infer_schema(sports_graph))
        rule = ConsistencyRule(
            RuleKind.PROPERTY_EXISTS, "", label="Match",
            properties=("date",),
        )
        metrics = evaluate_rule(sports_graph, translator.translate(rule))
        assert metrics == RuleMetrics(support=2, relevant=2, body=2)
        assert metrics.coverage == 100.0

    def test_failing_query_scores_zero(self, sports_graph):
        queries = MetricQueries(
            check="MATCH (n RETURN count(*) AS c",       # syntax error
            relevant="MATCH (n RETURN count(*) AS c",
            body="MATCH (n RETURN count(*) AS c",
            satisfy="MATCH (n RETURN count(*) AS c",
        )
        metrics = evaluate_rule(sports_graph, queries)
        assert metrics == RuleMetrics(support=0, relevant=0, body=0)

    def test_hallucinated_property_scores_zero_support(self, sports_graph):
        translator = RuleTranslator(infer_schema(sports_graph))
        rule = ConsistencyRule(
            RuleKind.PROPERTY_EXISTS, "", label="Match",
            properties=("penaltyScore",),   # does not exist
        )
        metrics = evaluate_rule(sports_graph, translator.translate(rule))
        assert metrics.support == 0
        assert metrics.relevant == 2        # matches still exist
        assert metrics.coverage == 0.0

    def test_non_numeric_result_counts_zero(self, sports_graph):
        queries = MetricQueries(
            check="MATCH (m:Match) RETURN m.stage AS s",
            relevant="MATCH (m:Match) RETURN m.stage AS s",
            body="MATCH (m:Match) RETURN m.stage AS s",
            satisfy="MATCH (m:Match) RETURN m.stage AS s",
        )
        metrics = evaluate_rule(sports_graph, queries)
        assert metrics.support == 0

    @pytest.mark.parametrize("query", [
        "RETURN sqrt(-1) AS c",             # math domain error
        "RETURN log(0) AS c",               # math domain error
        "RETURN 10^400 AS c",               # overflow
        "RETURN 1e308*10 AS c",             # evaluates to inf
        "RETURN toFloat('NaN') AS c",       # evaluates to NaN
    ])
    def test_math_errors_and_non_finite_results_score_zero(
        self, sports_graph, query
    ):
        queries = MetricQueries(
            check=query, relevant="MATCH (m:Match) RETURN count(*) AS c",
            body=query, satisfy=query,
        )
        metrics = evaluate_rule(sports_graph, queries)
        assert metrics == RuleMetrics(support=0, relevant=2, body=0)


BODY = "MATCH (n:Person) RETURN count(*) AS body"
BUNDLE = MetricQueries(
    check=BODY,
    relevant="MATCH (n:Match) RETURN count(*) AS relevant",
    body=BODY,
    satisfy="MATCH (n:Person) WHERE n.name IS NOT NULL "
            "RETURN count(*) AS satisfy",
)


@pytest.fixture
def collector():
    installed = obs.install()
    yield installed
    obs.uninstall()


def counter(collector, name):
    return collector.metrics.counter(name).total()


class TestCountMemo:
    def test_repeat_on_same_epoch_executes_nothing(
        self, sports_graph, collector
    ):
        first = evaluate_rule(sports_graph, BUNDLE)
        queries = counter(collector, "cypher.queries")
        assert counter(collector, "metrics.count_memo.misses") == 3
        assert evaluate_rule(sports_graph, BUNDLE) == first
        assert counter(collector, "cypher.queries") == queries
        assert counter(collector, "metrics.count_memo.hits") == 3
        spans = [s for s in collector.iter_spans() if s.name == "evaluate"]
        assert [s.attributes["memo_hits"] for s in spans] == [0, 3]

    def test_mutation_invalidates(self, sports_graph, collector):
        graph = sports_graph
        assert evaluate_rule(graph, BUNDLE).body == 2
        graph.add_node("p3", "Person", {"id": 3})
        metrics = evaluate_rule(graph, BUNDLE)
        assert (metrics.body, metrics.support) == (3, 2)
        assert counter(collector, "metrics.count_memo.hits") == 0

    def test_batch_exit_invalidates(self, sports_graph, collector):
        graph = sports_graph
        assert evaluate_rule(graph, BUNDLE).body == 2
        with graph.batch():
            graph.add_node("p3", "Person", {"id": 3})
            graph.add_node("p4", "Person", {"id": 4, "name": "Cy"})
        metrics = evaluate_rule(graph, BUNDLE)
        assert (metrics.body, metrics.support) == (4, 3)

    @pytest.mark.parametrize("batched", [False, True])
    def test_write_query_is_never_memoised(self, sports_graph, batched):
        graph = sports_graph
        write = "CREATE (n:Made) RETURN count(*) AS c"
        before = graph.columnar()
        with graph.batch() if batched else contextlib.nullcontext():
            results = [_count(graph, write) for _ in range(2)]
        results.append(_count(graph, write))
        assert results == [(1, False)] * 3
        assert graph.node_count("Made") == 3
        if not batched:
            assert not [key for key in before.memo if key[0] == "count"]

    def test_failing_query_is_memoised_as_zero(self, sports_graph, collector):
        graph = sports_graph
        failing = "MATCH (n:Person) RETURN sqrt(-1) AS c"
        assert _count(graph, failing) == (0, False)
        assert _count(graph, failing) == (0, True)
        executed = [s for s in collector.iter_spans() if s.name == "cypher.execute"]
        assert len(executed) == 1
