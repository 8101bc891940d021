"""Micro-benchmarks for the Cypher substrate itself.

These quantify the engine the whole evaluation stands on: parsing,
index-backed matching, multi-hop joins and grouped aggregation on the
WWC2019 graph.
"""

import pytest

from repro.cypher import execute, parse
from repro.datasets import load


@pytest.fixture(scope="module")
def graph():
    return load("wwc2019").graph


def test_parse_throughput(benchmark):
    query = (
        "MATCH (p:Person)-[g:SCORED_GOAL]->(m:Match) "
        "WHERE g.minute > 10 AND m.stage IN ['Group', 'Final'] "
        "WITH m.id AS match_id, count(*) AS goals WHERE goals > 1 "
        "RETURN match_id, goals ORDER BY goals DESC LIMIT 5"
    )
    benchmark(parse, query)


def test_label_scan_count(benchmark, graph):
    result = benchmark(
        execute, graph, "MATCH (p:Person) RETURN count(*) AS c"
    )
    assert result.scalar() == 2367


def test_one_hop_match(benchmark, graph):
    result = benchmark(
        execute, graph,
        "MATCH (p:Person)-[:SCORED_GOAL]->(m:Match) RETURN count(*) AS c",
    )
    assert result.scalar() == 148


def test_two_hop_join(benchmark, graph):
    result = benchmark(
        execute, graph,
        "MATCH (p:Person)-[:IN_SQUAD]->(s:Squad)-[:FOR]->(t:Tournament) "
        "RETURN count(*) AS c",
    )
    assert result.scalar() > 0


def test_grouped_aggregation(benchmark, graph):
    result = benchmark(
        execute, graph,
        "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) "
        "WITH m.id AS match_id, count(*) AS players "
        "RETURN max(players) AS biggest",
    )
    assert result.scalar() > 0


def test_uniqueness_check_query(benchmark, graph):
    result = benchmark(
        execute, graph,
        "MATCH (p:Person) WHERE p.id IS NOT NULL "
        "WITH p.id AS value, count(*) AS occurrences "
        "WHERE occurrences = 1 RETURN count(*) AS support",
    )
    assert result.scalar() == 2367


def test_pattern_predicate_filter(benchmark, graph):
    result = benchmark(
        execute, graph,
        "MATCH (s:Squad) WHERE NOT (s)-[:FOR]->(:Tournament) "
        "RETURN count(*) AS orphans",
    )
    assert result.scalar() == 1  # the injected orphan squad


# ----------------------------------------------------------------------
# cost-based planner A/B
# ----------------------------------------------------------------------
AB_QUERY = (
    "MATCH (p:Person)-[:SCORED_GOAL]->(m:Match) "
    "WHERE p.id = 7 RETURN count(*) AS c"
)
#: the same pattern through a non-count projection: AB_QUERY itself is
#: answered by count pushdown, which never enters the matcher
AB_ROWS_QUERY = (
    "MATCH (p:Person)-[:SCORED_GOAL]->(m:Match) "
    "WHERE p.id = 7 RETURN m.id AS m"
)


def _run(graph, text, planner):
    from repro.cypher import Executor

    return Executor(graph, planner=planner).run(parse(text))


def _expansions(graph, text, planner):
    """(rows, matcher.seeds, matcher.expansions) for one execution."""
    from repro import obs
    from repro.cypher import Executor, clear_plan_caches

    clear_plan_caches()
    collector = obs.install()
    try:
        result = Executor(graph, planner=planner).run(parse(text))
        seeds = collector.metrics.counter("matcher.seeds").total()
        expansions = collector.metrics.counter("matcher.expansions").total()
    finally:
        obs.uninstall()
    return result, seeds, expansions


def test_planner_ab_selective_filter_planned(benchmark, graph):
    from repro.cypher import default_planner

    result = benchmark(_run, graph, AB_QUERY, default_planner())
    assert result.scalar() is not None


def test_planner_ab_selective_filter_unplanned(benchmark, graph):
    result = benchmark(_run, graph, AB_QUERY, None)
    assert result.scalar() is not None


def test_planner_ab_reorder_join(benchmark, graph):
    # written worst-first: the planner must run the indexed Squad
    # lookup before the Person scan
    query = (
        "MATCH (p:Person), (s:Squad {id: 3}) "
        "WHERE p.id = s.id RETURN count(*) AS c"
    )
    from repro.cypher import default_planner

    result = benchmark(_run, graph, query, default_planner())
    assert result.scalar() is not None


def test_planner_halves_expansions(graph):
    """The ISSUE acceptance bar: >=2x fewer node expansions with the
    planner on, measured through the obs counters."""
    from repro.cypher import default_planner

    on, on_seeds, on_exp = _expansions(graph, AB_ROWS_QUERY, default_planner())
    off, off_seeds, off_exp = _expansions(graph, AB_ROWS_QUERY, None)
    assert on.rows == off.rows
    assert off_seeds >= 2 * max(on_seeds, 1)
    assert off_exp >= 2 * max(on_exp, 1)


def test_plan_cache_amortizes_planning(benchmark, graph):
    from repro.cypher import clear_plan_caches, default_planner

    clear_plan_caches()
    planner = default_planner()
    _run(graph, AB_QUERY, planner)  # warm the plan cache

    result = benchmark(_run, graph, AB_QUERY, planner)
    assert result.scalar() is not None


JOIN3_QUERY = (
    "MATCH (p:Person)-[:IN_SQUAD]->(s:Squad), "
    "(s)-[:FOR]->(t:Tournament), "
    "(p)-[:SCORED_GOAL]->(m:Match) "
    "WHERE p.id = 482 RETURN count(*) AS c"
)


def test_planner_ab_three_clause_join_planned(benchmark, graph):
    from repro.cypher import default_planner

    result = benchmark(_run, graph, JOIN3_QUERY, default_planner())
    assert result.scalar() is not None


def test_planner_ab_three_clause_join_unplanned(benchmark, graph):
    result = benchmark(_run, graph, JOIN3_QUERY, None)
    assert result.scalar() is not None


def test_planner_halves_expansions_three_clause_join(graph):
    """The acceptance workload: a high-selectivity property predicate
    over a 3-pattern join must cut matcher expansions >=2x."""
    from repro.cypher import default_planner

    on, on_seeds, on_exp = _expansions(graph, JOIN3_QUERY, default_planner())
    off, off_seeds, off_exp = _expansions(graph, JOIN3_QUERY, None)
    assert on.scalar() == off.scalar()
    assert off_seeds >= 2 * max(on_seeds, 1)
    assert off_exp >= 2 * max(on_exp, 1)


# ----------------------------------------------------------------------
# CSR frontier work, pinned
# ----------------------------------------------------------------------
def _visits(graph, text, *extra):
    """(rows, (matcher.visits, csr frontier expansions, *extra counter
    totals)) for one run."""
    from repro import obs
    from repro.cypher import Executor, clear_plan_caches

    clear_plan_caches()
    collector = obs.install()
    try:
        result = Executor(graph).run(parse(text))
        names = ("matcher.visits", "matcher.csr.frontier_expansions") + extra
        totals = tuple(
            collector.metrics.counter(name).total() for name in names
        )
    finally:
        obs.uninstall()
    return result, totals


def _run_default(graph, text):
    from repro.cypher import Executor

    return Executor(graph).run(parse(text))


def test_csr_selective_filter(benchmark, graph):
    graph.columnar()  # compile outside the timed region
    result = benchmark(_run_default, graph, AB_QUERY)
    assert result.scalar() is not None


def test_csr_three_clause_join(benchmark, graph):
    graph.columnar()
    result = benchmark(_run_default, graph, JOIN3_QUERY)
    assert result.scalar() is not None


def test_csr_selective_filter_visits_pinned(graph):
    """Typed CSR slices touch only edges of the requested type: the
    index-seeded Person has no SCORED_GOAL edge, so one slice fetch and
    zero adjacency entries (the untyped row it skips holds 42)."""
    result, (visits, frontiers) = _visits(graph, AB_ROWS_QUERY)
    assert result.rows == []
    assert (visits, frontiers) == (0, 1)


def test_count_pushdown_pinned(graph):
    """The count form of the same pattern is one hop_scan pushdown over
    the snapshot: no matcher visit and no frontier is recorded."""
    result, counts = _visits(graph, AB_QUERY, "cypher.count_pushdown")
    assert result.scalar() == 0
    assert counts == (0, 0, 1)


def test_csr_three_clause_join_visits_pinned(graph):
    """Same pin on the 3-pattern-join workload (the untyped rows it
    skips hold 21 entries)."""
    result, (visits, frontiers) = _visits(graph, JOIN3_QUERY)
    assert result.scalar() == 3
    assert (visits, frontiers) == (5, 3)
