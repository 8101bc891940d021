"""Unit tests for graph pattern matching."""

import pytest

from repro.cypher.matcher import match_patterns, pattern_exists
from repro.cypher.parser import Parser
from repro.graph import PropertyGraph


def patterns_of(text):
    query = Parser(f"MATCH {text} RETURN 1").parse()
    return query.clauses[0].patterns


def match_ids(graph, text, **bindings):
    """All matches as sorted tuples of element ids for bound vars."""
    results = []
    for row in match_patterns(graph, patterns_of(text), dict(bindings)):
        results.append({
            key: getattr(value, "id", value) for key, value in row.items()
        })
    return results


@pytest.fixture()
def chain_graph():
    g = PropertyGraph()
    g.add_node("a", "A", {"k": 1})
    g.add_node("b", "B", {"k": 2})
    g.add_node("c", "C", {"k": 3})
    g.add_edge("e1", "R", "a", "b")
    g.add_edge("e2", "S", "b", "c")
    return g


class TestBasicMatching:
    def test_node_scan_by_label(self, chain_graph):
        assert match_ids(chain_graph, "(n:A)") == [{"n": "a"}]

    def test_unlabeled_scan(self, chain_graph):
        assert len(match_ids(chain_graph, "(n)")) == 3

    def test_property_filter(self, chain_graph):
        assert match_ids(chain_graph, "(n {k: 2})") == [{"n": "b"}]
        assert match_ids(chain_graph, "(n:A {k: 9})") == []

    def test_directed_edge(self, chain_graph):
        rows = match_ids(chain_graph, "(x:A)-[r:R]->(y)")
        assert rows == [{"x": "a", "r": "e1", "y": "b"}]

    def test_incoming_edge(self, chain_graph):
        rows = match_ids(chain_graph, "(y:B)<-[r:R]-(x)")
        assert rows == [{"y": "b", "r": "e1", "x": "a"}]

    def test_undirected_edge(self, chain_graph):
        rows = match_ids(chain_graph, "(x:B)-[r:R]-(y)")
        assert rows == [{"x": "b", "r": "e1", "y": "a"}]

    def test_two_hop_chain(self, chain_graph):
        rows = match_ids(chain_graph, "(x:A)-[:R]->(y)-[:S]->(z)")
        assert rows == [{"x": "a", "y": "b", "z": "c"}]

    def test_type_alternation(self, chain_graph):
        rows = match_ids(chain_graph, "(x)-[r:R|S]->(y)")
        assert {row["r"] for row in rows} == {"e1", "e2"}

    def test_wrong_direction_no_match(self, chain_graph):
        assert match_ids(chain_graph, "(x:B)-[:R]->(y:A)") == []


class TestBindingsAndJoins:
    def test_prebound_variable_restricts(self, chain_graph):
        node_a = chain_graph.node("a")
        rows = match_ids(chain_graph, "(x)-[:R]->(y)", x=node_a)
        assert rows == [{"x": "a", "y": "b"}]

    def test_repeated_variable_joins(self):
        g = PropertyGraph()
        g.add_node("a", "X")
        g.add_node("b", "X")
        g.add_edge("e1", "R", "a", "b")
        g.add_edge("e2", "R", "a", "a")
        rows = match_ids(g, "(x)-[:R]->(x)")
        assert rows == [{"x": "a"}]

    def test_multiple_patterns_cartesian_with_join(self, chain_graph):
        rows = match_ids(chain_graph, "(x:A), (y:C)")
        assert rows == [{"x": "a", "y": "c"}]

    def test_named_path_binding(self, chain_graph):
        results = list(match_patterns(
            chain_graph, patterns_of("p = (a:A)-[:R]->(b)"), {}
        ))
        assert len(results) == 1
        path = results[0]["p"]
        assert len(path) == 1
        assert [n.id for n in path.nodes()] == ["a", "b"]


class TestRelationshipUniqueness:
    def test_same_edge_not_reused_in_one_match(self):
        g = PropertyGraph()
        g.add_node("a", "X")
        g.add_node("b", "X")
        g.add_edge("e1", "R", "a", "b")
        # a-[r1]->b<-[r2]-a requires two distinct edges; only one exists
        assert match_ids(g, "(a)-[r1:R]->(b)<-[r2:R]-(a)") == []
        g.add_edge("e2", "R", "a", "b")
        rows = match_ids(g, "(a)-[r1:R]->(b)<-[r2:R]-(a)")
        assert {(row["r1"], row["r2"]) for row in rows} == {
            ("e1", "e2"), ("e2", "e1"),
        }

    def test_uniqueness_spans_comma_patterns(self):
        g = PropertyGraph()
        g.add_node("a", "X")
        g.add_node("b", "X")
        g.add_edge("e1", "R", "a", "b")
        assert match_ids(g, "(a)-[r1:R]->(b), (a)-[r2:R]->(b)") == []


class TestVariableLength:
    @pytest.fixture()
    def line(self):
        g = PropertyGraph()
        for index in range(4):
            g.add_node(f"n{index}", "N", {"i": index})
        for index in range(3):
            g.add_edge(f"e{index}", "R", f"n{index}", f"n{index + 1}")
        return g

    def test_star_range(self, line):
        rows = match_ids(line, "(a {i: 0})-[:R*1..2]->(b)")
        assert {row["b"] for row in rows} == {"n1", "n2"}

    def test_fixed_hops(self, line):
        rows = match_ids(line, "(a {i: 0})-[:R*3]->(b)")
        assert [row["b"] for row in rows] == ["n3"]

    def test_variable_binds_edge_list(self, line):
        results = list(match_patterns(
            line, patterns_of("(a {i: 0})-[r:R*2]->(b)"), {}
        ))
        assert len(results) == 1
        assert [edge.id for edge in results[0]["r"]] == ["e0", "e1"]

    def test_no_edge_revisit_in_varlength(self):
        g = PropertyGraph()
        g.add_node("a", "N")
        g.add_node("b", "N")
        g.add_edge("e1", "R", "a", "b")
        g.add_edge("e2", "R", "b", "a")
        rows = match_ids(g, "(x)-[:R*2..4]->(x)")
        # a->b->a and b->a->b only; 3+ hops would need edge reuse
        assert len(rows) == 2


class TestPatternExists:
    def test_exists_true_false(self, chain_graph):
        pattern = patterns_of("(x:A)-[:R]->(:B)")[0]
        assert pattern_exists(chain_graph, pattern, {})
        missing = patterns_of("(x:C)-[:R]->(:B)")[0]
        assert not pattern_exists(chain_graph, missing, {})

    def test_exists_respects_bindings(self, chain_graph):
        pattern = patterns_of("(x)-[:R]->(:B)")[0]
        assert pattern_exists(
            chain_graph, pattern, {"x": chain_graph.node("a")}
        )
        assert not pattern_exists(
            chain_graph, pattern, {"x": chain_graph.node("b")}
        )


class TestParametersInPatternMaps:
    """``$param`` inside a pattern property map resolves like anywhere
    else in the query, on every pattern position."""

    @pytest.fixture()
    def graph(self):
        g = PropertyGraph()
        g.add_node("a1", "A", {"v": 1})
        g.add_node("a2", "A", {"v": 2})
        g.add_node("b1", "B", {"v": 2})
        g.add_node("b2", "B", {"v": 3})
        g.add_edge("e1", "R", "a1", "b1", {"w": 5})
        g.add_edge("e2", "R", "a2", "b2", {"w": 6})
        return g

    def count(self, graph, text, x):
        from repro.cypher import execute

        return execute(graph, text, {"x": x}).scalar()

    def test_start_node_map(self, graph):
        text = "MATCH (n:A {v: $x})-[:R]->(m) RETURN count(*) AS c"
        assert self.count(graph, text, 2) == 1
        assert self.count(graph, text, 9) == 0

    def test_hop_target_map(self, graph):
        text = "MATCH (n:A)-[:R]->(:B {v: $x}) RETURN count(*) AS c"
        assert self.count(graph, text, 2) == 1
        assert self.count(graph, text, 1) == 0

    def test_relationship_map(self, graph):
        text = "MATCH (n:A)-[:R {w: $x}]->(m) RETURN count(*) AS c"
        assert self.count(graph, text, 6) == 1
        assert self.count(graph, text, 7) == 0

    def test_pattern_predicate_map(self, graph):
        text = "MATCH (n:A) WHERE (n)-[:R]->(:B {v: $x}) RETURN count(*) AS c"
        assert self.count(graph, text, 3) == 1
        assert self.count(graph, text, 1) == 0
