"""Integration tests for query execution (clause pipeline)."""

import pytest

from repro import obs
from repro.cypher import CypherSemanticError, execute
from repro.graph import PropertyGraph


class TestReturnShapes:
    def test_column_names_and_aliases(self, social_graph):
        result = execute(
            social_graph, "MATCH (u:User) RETURN u.name AS name, u.id"
        )
        assert result.columns == ["name", "u.id"]

    def test_values_helper(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS n ORDER BY n",
        )
        assert result.values() == ["alice", "bob"]
        assert result.values("n") == ["alice", "bob"]

    def test_scalar_empty_result(self, social_graph):
        result = execute(
            social_graph, "MATCH (u:User {name: 'nobody'}) RETURN u.id"
        )
        assert result.scalar() is None
        assert len(result) == 0

    def test_return_star(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User {name: 'alice'})-[:FOLLOWS]->(v) RETURN *",
        )
        assert result.columns == ["u", "v"]

    def test_iteration(self, social_graph):
        result = execute(social_graph, "MATCH (u:User) RETURN u.id AS i")
        assert sorted(row["i"] for row in result) == [1, 2]


class TestAggregation:
    def test_global_count(self, social_graph):
        assert execute(
            social_graph, "MATCH (t:Tweet) RETURN count(*) AS c"
        ).scalar() == 3

    def test_count_over_empty_input_is_zero(self, social_graph):
        assert execute(
            social_graph, "MATCH (x:Nothing) RETURN count(*) AS c"
        ).scalar() == 0

    def test_grouped_count(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User)-[:POSTS]->(t:Tweet) "
            "RETURN u.name AS name, count(t) AS posts ORDER BY name",
        )
        assert result.rows == [
            {"name": "alice", "posts": 2},
            {"name": "bob", "posts": 1},
        ]

    def test_grouped_empty_input_has_no_rows(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (x:Nothing) RETURN x.name AS n, count(*) AS c",
        )
        assert result.rows == []

    def test_collect_distinct(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN collect(DISTINCT t.id) AS ids",
        )
        assert sorted(result.scalar()) == [10, 12]

    def test_aggregate_inside_expression(self, social_graph):
        # the paper's WITH ... COLLECT(...) AS xs WHERE size(xs) > 1 shape
        result = execute(
            social_graph,
            "MATCH (t:Tweet) WITH t.id AS id, collect(t.text) AS texts "
            "WHERE size(texts) > 1 RETURN id, size(texts) AS n",
        )
        assert result.rows == [{"id": 10, "n": 2}]

    def test_min_max_avg_sum(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN min(t.id) AS lo, max(t.id) AS hi, "
            "sum(t.id) AS s, avg(t.id) AS a",
        )
        assert result.rows == [{"lo": 10, "hi": 12, "s": 32, "a": 32 / 3}]

    def test_aggregate_in_where_rejected(self, social_graph):
        with pytest.raises(CypherSemanticError):
            execute(
                social_graph,
                "MATCH (t:Tweet) WHERE count(*) > 1 RETURN t",
            )


class TestWithPipeline:
    def test_with_filters_before_return(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) WITH t WHERE t.id = 10 "
            "RETURN count(*) AS c",
        )
        assert result.scalar() == 2

    def test_with_narrows_scope(self, social_graph):
        with pytest.raises(CypherSemanticError):
            execute(
                social_graph,
                "MATCH (t:Tweet) WITH t.id AS i RETURN t.text",
            )

    def test_chained_aggregation(self, social_graph):
        # count of duplicate-id groups
        result = execute(
            social_graph,
            "MATCH (t:Tweet) WITH t.id AS id, count(*) AS c "
            "WHERE c > 1 RETURN count(*) AS dup_groups",
        )
        assert result.scalar() == 1

    def test_match_after_with(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User {name: 'alice'}) WITH u "
            "MATCH (u)-[:POSTS]->(t) RETURN count(t) AS c",
        )
        assert result.scalar() == 2


class TestOptionalMatch:
    def test_optional_pads_with_null(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) OPTIONAL MATCH (u)-[:FOLLOWS]->(v:User) "
            "RETURN u.name AS a, v.name AS b ORDER BY a",
        )
        assert result.rows == [
            {"a": "alice", "b": "bob"},
            {"a": "bob", "b": None},
        ]

    def test_optional_where_inside_match(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) OPTIONAL MATCH (u)-[:POSTS]->(t:Tweet) "
            "WHERE t.id = 12 RETURN u.name AS n, t.id AS t ORDER BY n",
        )
        assert result.rows == [
            {"n": "alice", "t": 12},
            {"n": "bob", "t": None},
        ]


class TestUnwind:
    def test_unwind_expands(self, social_graph):
        result = execute(
            social_graph, "UNWIND [1, 2, 3] AS x RETURN x * 2 AS y"
        )
        assert result.values() == [2, 4, 6]

    def test_unwind_null_produces_nothing(self, social_graph):
        result = execute(social_graph, "UNWIND NULL AS x RETURN x")
        assert result.rows == []

    def test_unwind_scalar_single_row(self, social_graph):
        result = execute(social_graph, "UNWIND 5 AS x RETURN x")
        assert result.values() == [5]


class TestOrderingAndPaging:
    def test_order_desc(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN t.text AS x ORDER BY t.created_at DESC",
        )
        assert result.values() == ["third", "second", "first"]

    def test_order_nulls_last(self):
        g = PropertyGraph()
        g.add_node("a", "X", {"v": 2})
        g.add_node("b", "X", {})
        g.add_node("c", "X", {"v": 1})
        result = execute(g, "MATCH (n:X) RETURN n.v AS v ORDER BY v")
        assert result.values() == [1, 2, None]

    def test_skip_limit(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN t.text AS x ORDER BY x SKIP 1 LIMIT 1",
        )
        assert result.values() == ["second"]

    def test_order_by_preprojection_variable(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS team ORDER BY u.id DESC",
        )
        assert result.values() == ["bob", "alice"]


class TestDistinctAndUnion:
    def test_distinct(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN DISTINCT t.id AS i ORDER BY i",
        )
        assert result.values() == [10, 12]

    def test_union_dedups(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS n "
            "UNION MATCH (u:User) RETURN u.name AS n",
        )
        assert sorted(result.values()) == ["alice", "bob"]

    def test_union_all_keeps_duplicates(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS n "
            "UNION ALL MATCH (u:User) RETURN u.name AS n",
        )
        assert len(result) == 4

    def test_union_column_mismatch(self, social_graph):
        with pytest.raises(CypherSemanticError):
            execute(
                social_graph,
                "MATCH (u:User) RETURN u.name AS a "
                "UNION MATCH (u:User) RETURN u.name AS b",
            )


class TestPaperQueries:
    """The actual query shapes from the paper run end-to-end."""

    def test_support_count_query(self, sports_graph):
        result = execute(
            sports_graph,
            "MATCH (m:Match)-[:IN_TOURNAMENT]->(t:Tournament) "
            "WITH t.id AS tournament_id, m.id AS match_id, "
            "COUNT(*) AS count WHERE count = 1 "
            "RETURN COUNT(*) AS support",
        )
        assert result.scalar() == 2

    def test_regex_validation_query(self):
        g = PropertyGraph()
        g.add_node("d1", "Domain", {"domain": "example.com"})
        g.add_node("d2", "Domain", {"domain": "not a domain"})
        result = execute(
            g,
            "MATCH (n) WHERE n.domain IS NOT NULL AND "
            "n.domain =~ '([a-z0-9-]+\\\\.)+[a-z]{2,}' "
            "RETURN COUNT(*) AS valid_domains",
        )
        assert result.scalar() == 1

    def test_same_minute_goals_query(self, sports_graph):
        result = execute(
            sports_graph,
            "MATCH (p:Person)-[g:SCORED_GOAL]->(m:Match) "
            "WITH p, m, g.minute AS minute, count(*) AS c WHERE c > 1 "
            "RETURN p.name AS player, m.id AS match, minute",
        )
        assert result.rows == [{"player": "Ada", "match": 1, "minute": 12}]


class TestCountPath:
    def test_execute_span_records_count_path(self, sports_graph):
        collector = obs.install()
        try:
            count = execute(
                sports_graph, "MATCH (n:Person) RETURN count(*) AS c"
            )
            rows = execute(sports_graph, "MATCH (n:Person) RETURN n.id AS id")
        finally:
            obs.uninstall()
        assert (count.scalar(), len(rows)) == (2, 2)
        paths = [
            span.attributes["count_path"]
            for span in collector.iter_spans() if span.name == "cypher.execute"
        ]
        assert paths == ["pushdown", "match"]
        pushdowns = collector.metrics.counter("cypher.count_pushdown")
        assert pushdowns.value(shape="label_size") == 1
