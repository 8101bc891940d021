"""Differential tests: the Cypher engine vs. a straight-Python oracle.

For randomly generated small graphs, a family of query shapes is
executed both by the engine and by hand-written Python; results must
agree exactly.  This catches matcher/executor semantics bugs that
example-based tests miss.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherError, execute, parse
from repro.cypher.executor import Executor
from repro.cypher.planner import default_planner
from repro.graph import PropertyGraph

LABELS = ("A", "B")
RELS = ("R", "S")


@st.composite
def random_graphs(draw):
    graph = PropertyGraph()
    node_count = draw(st.integers(min_value=1, max_value=8))
    node_meta = []
    for index in range(node_count):
        label = draw(st.sampled_from(LABELS))
        value = draw(st.integers(min_value=0, max_value=3))
        graph.add_node(f"n{index}", label, {"v": value})
        node_meta.append((f"n{index}", label, value))
    edge_count = draw(st.integers(min_value=0, max_value=12))
    edge_meta = []
    for number in range(edge_count):
        src = draw(st.integers(min_value=0, max_value=node_count - 1))
        dst = draw(st.integers(min_value=0, max_value=node_count - 1))
        rel = draw(st.sampled_from(RELS))
        graph.add_edge(f"e{number}", rel, f"n{src}", f"n{dst}")
        edge_meta.append((f"n{src}", rel, f"n{dst}"))
    return graph, node_meta, edge_meta


@given(random_graphs())
@settings(max_examples=80)
def test_label_count_matches_oracle(data):
    graph, node_meta, _edges = data
    for label in LABELS:
        engine = execute(
            graph, f"MATCH (n:{label}) RETURN count(*) AS c"
        ).scalar()
        oracle = sum(1 for _id, lbl, _v in node_meta if lbl == label)
        assert engine == oracle


@given(random_graphs())
@settings(max_examples=80)
def test_property_filter_matches_oracle(data):
    graph, node_meta, _edges = data
    engine = execute(
        graph, "MATCH (n) WHERE n.v >= 2 RETURN count(*) AS c"
    ).scalar()
    oracle = sum(1 for _id, _lbl, value in node_meta if value >= 2)
    assert engine == oracle


@given(random_graphs())
@settings(max_examples=80)
def test_one_hop_count_matches_oracle(data):
    graph, node_meta, edge_meta = data
    labels = {node_id: label for node_id, label, _v in node_meta}
    for rel in RELS:
        engine = execute(
            graph,
            f"MATCH (a:A)-[:{rel}]->(b:B) RETURN count(*) AS c",
        ).scalar()
        oracle = sum(
            1 for src, r, dst in edge_meta
            if r == rel and labels[src] == "A" and labels[dst] == "B"
        )
        assert engine == oracle


@given(random_graphs())
@settings(max_examples=80)
def test_undirected_hop_matches_oracle(data):
    graph, _nodes, edge_meta = data
    engine = execute(
        graph, "MATCH (a)-[:R]-(b) RETURN count(*) AS c"
    ).scalar()
    # each R edge matches twice (once per direction), including loops
    oracle = 2 * sum(1 for _s, rel, _d in edge_meta if rel == "R")
    assert engine == oracle


@given(random_graphs())
@settings(max_examples=80)
def test_grouped_count_matches_oracle(data):
    graph, node_meta, edge_meta = data
    engine = execute(
        graph,
        "MATCH (a)-[:R]->(b) WITH a, count(*) AS c "
        "RETURN sum(c) AS total, count(*) AS groups",
    )
    out_counts = Counter(
        src for src, rel, _dst in edge_meta if rel == "R"
    )
    if not out_counts:
        assert engine.rows == [{"total": 0, "groups": 0}]
    else:
        assert engine.rows[0]["total"] == sum(out_counts.values())
        assert engine.rows[0]["groups"] == len(out_counts)


@given(random_graphs())
@settings(max_examples=80)
def test_distinct_values_match_oracle(data):
    graph, node_meta, _edges = data
    engine = execute(
        graph,
        "MATCH (n) RETURN DISTINCT n.v AS v ORDER BY v",
    ).values()
    oracle = sorted({value for _id, _lbl, value in node_meta})
    assert engine == oracle


@given(random_graphs())
@settings(max_examples=80)
def test_pattern_predicate_matches_oracle(data):
    graph, node_meta, edge_meta = data
    engine = execute(
        graph,
        "MATCH (n) WHERE (n)-[:R]->() RETURN count(*) AS c",
    ).scalar()
    sources = {src for src, rel, _dst in edge_meta if rel == "R"}
    assert engine == len(sources)


@given(random_graphs())
@settings(max_examples=60)
def test_optional_match_row_count_matches_oracle(data):
    graph, node_meta, edge_meta = data
    engine = execute(
        graph,
        "MATCH (n) OPTIONAL MATCH (n)-[:R]->(m) RETURN count(*) AS c",
    ).scalar()
    out_counts = Counter(
        src for src, rel, _dst in edge_meta if rel == "R"
    )
    oracle = sum(
        out_counts.get(node_id, 0) or 1 for node_id, _l, _v in node_meta
    )
    assert engine == oracle


@given(random_graphs())
@settings(max_examples=60)
def test_two_hop_matches_oracle(data):
    graph, _nodes, edge_meta = data
    engine = execute(
        graph,
        "MATCH (a)-[r1:R]->(b)-[r2:R]->(c) RETURN count(*) AS c",
    ).scalar()
    r_edges = [(s, d) for s, rel, d in edge_meta if rel == "R"]
    # relationship uniqueness: the two hops must use different edges
    oracle = 0
    for i, (s1, d1) in enumerate(r_edges):
        for j, (s2, d2) in enumerate(r_edges):
            if i != j and d1 == s2:
                oracle += 1
    assert engine == oracle


# ----------------------------------------------------------------------
# richer graphs: self-loops, unicode and stored-None values, mutations
# ----------------------------------------------------------------------
_UNICODE = ("", "å", "日本", "ß∂ƒ", "naïve", "🎈")


class Model:
    """A graph and its straight-Python mirror, mutated together.

    ``nodes`` maps id -> (label, properties); ``edges`` maps id ->
    (src, rel, dst, properties).  In ``rich_models`` every node carries
    a unique ``k``; ``count_models`` store a tuple of labels instead.
    """

    def __init__(self):
        self.graph = PropertyGraph("oracle")
        self.nodes = {}
        self.edges = {}

    def add_node(self, node_id, label, properties):
        self.graph.add_node(node_id, label, properties)
        self.nodes[node_id] = (label, dict(properties))

    def add_edge(self, edge_id, rel, src, dst, properties=None):
        self.graph.add_edge(edge_id, rel, src, dst, properties or {})
        self.edges[edge_id] = (src, rel, dst, dict(properties or {}))

    def update_node(self, node_id, properties):
        self.graph.update_node(node_id, properties)
        self.nodes[node_id][1].update(properties)

    def remove_edge(self, edge_id):
        self.graph.remove_edge(edge_id)
        del self.edges[edge_id]

    def remove_node(self, node_id):
        self.graph.remove_node(node_id)
        del self.nodes[node_id]
        self.edges = {
            eid: edge for eid, edge in self.edges.items()
            if node_id not in (edge[0], edge[2])
        }

    def prop(self, node_id, key):
        return self.nodes[node_id][1].get(key)

    def of_label(self, label):
        return [nid for nid, (lbl, _p) in self.nodes.items() if lbl == label]

    def rel_edges(self, rel):
        return [
            (eid, src, dst, props)
            for eid, (src, r, dst, props) in self.edges.items() if r == rel
        ]

    def trails(self, start, rel, lo, hi, direction, used=frozenset()):
        """Every edge-distinct walk of lo..hi ``rel`` hops from ``start``
        as (edge ids, end); an undirected self-loop is taken both ways."""
        found = []

        def step(at, path):
            if len(path) >= lo:
                found.append((tuple(path), at))
            if len(path) >= hi:
                return
            for eid, (src, r, dst, _p) in self.edges.items():
                if r != rel or eid in path or eid in used:
                    continue
                if direction in ("out", "any") and src == at:
                    step(dst, path + [eid])
                if direction in ("in", "any") and dst == at:
                    step(src, path + [eid])

        step(start, [])
        return found


@st.composite
def rich_models(draw):
    model = Model()
    node_count = draw(st.integers(min_value=1, max_value=7))
    for index in range(node_count):
        properties = {"k": index, "v": draw(st.integers(0, 3))}
        if draw(st.booleans()):
            properties["u"] = draw(st.sampled_from(_UNICODE))
        if draw(st.booleans()):
            properties["nil"] = None          # stored null, not absent
        model.add_node(f"n{index}", draw(st.sampled_from(LABELS)), properties)
    for number in range(draw(st.integers(0, 2 * node_count))):
        src = draw(st.integers(0, node_count - 1))
        # bias towards self-loops: a third of the edges close on src
        dst = src if draw(st.integers(0, 2)) == 0 else draw(
            st.integers(0, node_count - 1)
        )
        properties = {"w": draw(st.integers(0, 2))} if draw(
            st.booleans()
        ) else {}
        model.add_edge(
            f"e{number}", draw(st.sampled_from(RELS)),
            f"n{src}", f"n{dst}", properties,
        )
    return model


def outcome(graph, text, parameters=None):
    """Engine rows as a multiset of column tuples, or the error class."""
    try:
        result = execute(graph, text, parameters)
    except CypherError as error:
        return ("error", type(error).__name__)
    return ("ok", Counter(
        tuple(row[column] for column in result.columns)
        for row in result.rows
    ))


def ok(rows):
    return ("ok", Counter(rows))


def raises_type_error_if(condition, rows=()):
    return ("error", "CypherTypeError") if condition else ok(rows)


def _k(model, node_id):
    return model.prop(node_id, "k")


# each entry: (query text, oracle(model, x) -> expected outcome); ``$x``
# is a drawn unicode value (or None)
BATTERY = (
    # self-loops: a directed loop binds a = b once ...
    ("MATCH (a)-[:R]->(a) RETURN a.k AS k",
     lambda m, x: ok((_k(m, s),) for _e, s, d, _p in m.rel_edges("R")
                     if s == d)),
    # ... an undirected one twice (once per direction)
    ("MATCH (a)-[:S]-(a) RETURN count(*) AS c",
     lambda m, x: ok([(2 * sum(1 for _e, s, d, _p in m.rel_edges("S")
                               if s == d),)])),
    # variable-length: bounds, directions, edge-list binding
    ("MATCH (a)-[r:R*0..2]->(b) RETURN a.k AS a, b.k AS b, size(r) AS n",
     lambda m, x: ok((_k(m, a), _k(m, end), len(path))
                     for a in m.nodes
                     for path, end in m.trails(a, "R", 0, 2, "out"))),
    ("MATCH (a:A)-[r:R*1..3]->(b) RETURN a.k AS a, b.k AS b, size(r) AS n",
     lambda m, x: ok((_k(m, a), _k(m, end), len(path))
                     for a in m.of_label("A")
                     for path, end in m.trails(a, "R", 1, 3, "out"))),
    ("MATCH (a)-[r:S*1..2]-(b:B) RETURN a.k AS a, b.k AS b, size(r) AS n",
     lambda m, x: ok((_k(m, a), _k(m, end), len(path))
                     for a in m.nodes
                     for path, end in m.trails(a, "S", 1, 2, "any")
                     if m.nodes[end][0] == "B")),
    ("MATCH (a)<-[:R*2..2]-(b) RETURN a.k AS a, b.k AS b",
     lambda m, x: ok((_k(m, a), _k(m, end))
                     for a in m.nodes
                     for _path, end in m.trails(a, "R", 2, 2, "in"))),
    # edge uniqueness spans the clause, var-length hops included
    ("MATCH (a)-[:R]->(b), (b)-[:R*1..2]->(c) RETURN count(*) AS c",
     lambda m, x: ok([(sum(len(m.trails(d, "R", 1, 2, "out", {e}))
                           for e, _s, d, _p in m.rel_edges("R")),)])),
    # pattern predicates, negated and undirected
    ("MATCH (n) WHERE NOT (n)-[:R]->(:B) RETURN n.k AS k",
     lambda m, x: ok((_k(m, n),) for n in m.nodes
                     if not any(s == n and m.nodes[d][0] == "B"
                                for _e, s, d, _p in m.rel_edges("R")))),
    ("MATCH (n:A) WHERE (n)-[:S]-(:A) RETURN n.k AS k",
     lambda m, x: ok((_k(m, n),) for n in m.of_label("A")
                     if any(n in (s, d) and m.nodes[d if s == n else s][0]
                            == "A" for _e, s, d, _p in m.rel_edges("S")))),
    # unicode / stored-None values compared with a parameter, in WHERE,
    # in a start node map, a hop-target map and a pattern predicate
    ("MATCH (a) WHERE a.u = $x RETURN a.k AS k",
     lambda m, x: ok((_k(m, n),) for n in m.nodes
                     if x is not None and m.prop(n, "u") == x)),
    ("MATCH (a {u: $x}) RETURN a.k AS k",
     lambda m, x: ok((_k(m, n),) for n in m.nodes
                     if x is not None and m.prop(n, "u") == x)),
    ("MATCH (a)-[:R]->(b {u: $x}) RETURN a.k AS a, b.k AS b",
     lambda m, x: ok((_k(m, s), _k(m, d))
                     for _e, s, d, _p in m.rel_edges("R")
                     if x is not None and m.prop(d, "u") == x)),
    ("MATCH (a) WHERE (a)-[:S]->({u: $x}) RETURN a.k AS k",
     lambda m, x: ok((_k(m, n),) for n in m.nodes
                     if x is not None and any(
                         s == n and m.prop(d, "u") == x
                         for _e, s, d, _p in m.rel_edges("S")))),
    ("MATCH (a) WHERE a.nil IS NULL AND a.u IS NOT NULL RETURN a.u AS u",
     lambda m, x: ok((m.prop(n, "u"),) for n in m.nodes
                     if m.prop(n, "u") is not None)),
    ("MATCH (a)-[r:R {w: 1}]->(b) RETURN a.k AS a, b.k AS b",
     lambda m, x: ok((_k(m, s), _k(m, d))
                     for _e, s, d, p in m.rel_edges("R")
                     if p.get("w") == 1)),
    # multi-type relationship: no single typed slice applies
    ("MATCH (a:A)-[:R|S]->(b) RETURN a.k AS a, b.k AS b",
     lambda m, x: ok((_k(m, s), _k(m, d))
                     for s, _r, d, _p in m.edges.values()
                     if m.nodes[s][0] == "A")),
    # unicode values surviving grouping
    ("MATCH (a) WHERE a.u IS NOT NULL RETURN a.u AS u, count(*) AS c",
     lambda m, x: ok(Counter(
         m.prop(n, "u") for n in m.nodes if m.prop(n, "u") is not None
     ).items())),
    # typed errors: string arithmetic raises on the first row reaching it
    ("MATCH (a) WHERE a.u - 1 = 0 RETURN a.k AS k",
     lambda m, x: raises_type_error_if(
         any(m.prop(n, "u") is not None for n in m.nodes))),
    ("MATCH (a)-[:R*1..2]->(b) WHERE b.u - 1 = 0 RETURN count(*) AS c",
     lambda m, x: raises_type_error_if(
         any(m.prop(end, "u") is not None
             for a in m.nodes
             for _path, end in m.trails(a, "R", 1, 2, "out")),
         [(0,)])),
    ("MATCH (a) WHERE (a)-[:R]->() RETURN a.k - a.u AS d",
     lambda m, x: raises_type_error_if(
         any(m.prop(s, "u") is not None
             for _e, s, _d, _p in m.rel_edges("R")),
         [(None,)] * len({s for _e, s, _d, _p in m.rel_edges("R")}))),
)

_PARAM_VALUES = st.sampled_from(_UNICODE + (None,))


def assert_battery(model, x):
    for text, oracle in BATTERY:
        assert outcome(model.graph, text, {"x": x}) == oracle(model, x), text


@given(model=rich_models(), x=_PARAM_VALUES)
@settings(max_examples=150, deadline=None)
def test_battery_matches_oracle(model, x):
    assert_battery(model, x)


@given(model=rich_models(), x=_PARAM_VALUES)
@settings(max_examples=80, deadline=None)
def test_battery_matches_oracle_after_mutation(model, x):
    """Queries on an incrementally updated CSR snapshot."""
    model.graph.columnar()              # compile, so mutations go incremental
    node_ids = list(model.nodes)
    model.update_node(node_ids[0], {"v": 3, "u": "après"})
    model.add_node("extra", "A", {"k": 100, "v": 1, "u": x})
    model.add_edge("x1", "R", node_ids[0], "extra", {"w": 1})
    model.add_edge("x2", "S", "extra", "extra")
    if model.edges:
        model.remove_edge(next(iter(model.edges)))
    if len(node_ids) > 1:
        model.remove_node(node_ids[-1])
    assert model.graph.columnar().origin == "incremental"
    assert_battery(model, x)


@given(model=rich_models())
@settings(max_examples=60, deadline=None)
def test_create_then_merge_matches_oracle(model):
    """MERGE matches what CREATE wrote earlier in the same query, and
    a second MERGE matches what the first one created."""
    starts = len(model.of_label("A"))
    graph = model.graph
    graph.columnar()
    created = execute(
        graph,
        "MATCH (a:A) CREATE (a)-[:T]->(:M {k: a.k}) "
        "WITH a MERGE (a)-[:T]->(m:M) RETURN a.k = m.k AS same",
    )
    assert created.values() == [True] * starts
    merged = execute(
        graph,
        "MATCH (a:A) MERGE (a)-[:U]->(m:M2) "
        "WITH a, m MERGE (a)-[:U]->(m2:M2) RETURN m = m2 AS same",
    )
    assert merged.values() == [True] * starts
    assert graph.node_count("M") == graph.edge_count("T") == starts
    assert graph.node_count("M2") == graph.edge_count("U") == starts


# ----------------------------------------------------------------------
# count pushdown: snapshot counters vs. the general path vs. an oracle
# ----------------------------------------------------------------------
#: ``s`` holds strings and numbers only (2 and 2.0 are one value), so
#: the uniqueness shape is answered from the value counts; ``m`` mixes
#: in booleans and lists, which send it back to the general path
_S_VALUES = (None, "å", "日本", "", "🎈", 2, 2.0, 3)
_M_VALUES = (None, "å", 1, 1.0, True, False, 0, 2, 2.0, [1, 2])
_W_VALUES = (None, 1, 1.0, True, "å")
_LABEL_SETS = ((), ("A",), ("B",), ("A", "B"))


@st.composite
def count_models(draw):
    """Multi-label and unlabeled nodes, self-loops, stored nulls."""
    model = Model()
    node_count = draw(st.integers(min_value=1, max_value=8))
    for index in range(node_count):
        properties = {}
        for key, pool in (("s", _S_VALUES), ("m", _M_VALUES)):
            if draw(st.booleans()):
                properties[key] = draw(st.sampled_from(pool))
        model.add_node(
            f"n{index}", draw(st.sampled_from(_LABEL_SETS)), properties
        )
    for number in range(draw(st.integers(0, 2 * node_count))):
        src = draw(st.integers(0, node_count - 1))
        dst = src if draw(st.integers(0, 2)) == 0 else draw(
            st.integers(0, node_count - 1)
        )
        properties = {"w": draw(st.sampled_from(_W_VALUES))} if draw(
            st.booleans()
        ) else {}
        model.add_edge(
            f"e{number}", draw(st.sampled_from(RELS)),
            f"n{src}", f"n{dst}", properties,
        )
    return model


def cy_eq(value, literal):
    """Cypher ``=`` on stored scalars/lists vs. a scalar literal: null
    is unknown, booleans never equal numbers, 2 equals 2.0."""
    if value is None:
        return False
    if isinstance(value, bool) or isinstance(literal, bool):
        return type(value) is type(literal) and value == literal
    if isinstance(value, (int, float)) and isinstance(literal, (int, float)):
        return float(value) == float(literal)
    return type(value) is type(literal) and value == literal


def cy_in(value, literals):
    """Cypher ``value IN [literals]`` is true: some item equals it."""
    return any(cy_eq(value, literal) for literal in literals)


def labelled(model, node_id, *labels):
    return set(labels) <= set(model.nodes[node_id][0])


def node_prop(model, node_id, key):
    return model.nodes[node_id][1].get(key)


def count_nodes(model, keep):
    return sum(1 for n in model.nodes if keep(n))


def count_hops(model, rels, direction, keep):
    """Matches of one hop: ``keep(edge props, start, end)`` per binding;
    an undirected hop binds each edge once per endpoint (loops twice)."""
    total = 0
    for src, rel, dst, props in model.edges.values():
        if rels and rel not in rels:
            continue
        ends = {"out": [(src, dst)], "in": [(dst, src)],
                "any": [(src, dst), (dst, src)]}[direction]
        total += sum(1 for a, b in ends if keep(props, a, b))
    return total


def unique_values(model, label, key):
    """Groups of size one, grouped the way the engine's ``_canonical``
    groups (Python equality: 2 == 2.0 and true == 1; lists by items)."""
    groups = Counter(
        tuple(v) if isinstance(v, list) else v
        for v in (node_prop(model, n, key) for n in model.nodes
                  if labelled(model, n, label))
        if v is not None
    )
    return sum(1 for size in groups.values() if size == 1)


def _unique(label, key):
    return (
        f"MATCH (n:{label}) WHERE n.{key} IS NOT NULL "
        f"WITH n.{key} AS value, count(*) AS occurrences "
        "WHERE occurrences = 1 RETURN count(*) AS c"
    )


# each entry: (query, planned shape or None for an ineligible query,
# oracle(model) -> count)
COUNT_BATTERY = (
    ("MATCH (n) RETURN count(*) AS c", "label_size",
     lambda m: len(m.nodes)),
    ("MATCH (n:A) RETURN count(*) AS c", "label_size",
     lambda m: count_nodes(m, lambda n: labelled(m, n, "A"))),
    ("MATCH (n:Nope) RETURN count(*) AS c", "label_size", lambda m: 0),
    ("MATCH (n:A:B) RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: labelled(m, n, "A", "B"))),
    ("MATCH (n:B) WHERE n.s = 2 RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: labelled(m, n, "B")
                           and cy_eq(node_prop(m, n, "s"), 2))),
    ("MATCH (n) WHERE n.m = true RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: cy_eq(node_prop(m, n, "m"), True))),
    ("MATCH (n) WHERE 1 = n.m RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: cy_eq(node_prop(m, n, "m"), 1))),
    ("MATCH (n:A) WHERE n.s IS NULL RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: labelled(m, n, "A")
                           and node_prop(m, n, "s") is None)),
    ("MATCH (n {s: '日本'}) RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: node_prop(m, n, "s") == "日本")),
    ("MATCH (n) WHERE n.s IS NOT NULL AND n.m = 2.0 RETURN count(*) AS c",
     "node_scan",
     lambda m: count_nodes(m, lambda n: node_prop(m, n, "s") is not None
                           and cy_eq(node_prop(m, n, "m"), 2))),
    ("MATCH (n:A) WHERE n.s IN ['å', 2] RETURN count(*) AS c", "node_scan",
     lambda m: count_nodes(m, lambda n: labelled(m, n, "A")
                           and cy_in(node_prop(m, n, "s"), ("å", 2)))),
    ("MATCH (n) WHERE n.m IN [true, 2.0, null] RETURN count(*) AS c",
     "node_scan",
     lambda m: count_nodes(m, lambda n: cy_in(node_prop(m, n, "m"),
                                              (True, 2.0, None)))),
    ("MATCH (n:B) WHERE n.m IN [] RETURN count(*) AS c", "node_scan",
     lambda m: 0),
    ("MATCH ()-[:R]->() RETURN count(*) AS c", "type_count",
     lambda m: count_hops(m, {"R"}, "out", lambda p, a, b: True)),
    ("MATCH ()<-[:R|S|Nope]-() RETURN count(*) AS c", "type_count",
     lambda m: count_hops(m, {"R", "S"}, "in", lambda p, a, b: True)),
    ("MATCH ()-[r:S]-() RETURN count(*) AS c", "type_count",
     lambda m: count_hops(m, {"S"}, "any", lambda p, a, b: True)),
    ("MATCH ()-[]->() RETURN count(*) AS c", "type_count",
     lambda m: len(m.edges)),
    ("MATCH ()-[:Nope]->() RETURN count(*) AS c", "type_count",
     lambda m: 0),
    ("MATCH (a:A)-[:R]->(b) RETURN count(*) AS c", "hop_scan",
     lambda m: count_hops(m, {"R"}, "out",
                          lambda p, a, b: labelled(m, a, "A"))),
    ("MATCH (a)-[r:S]-(b:B) WHERE r.w = 1 RETURN count(*) AS c", "hop_scan",
     lambda m: count_hops(m, {"S"}, "any",
                          lambda p, a, b: labelled(m, b, "B")
                          and cy_eq(p.get("w"), 1))),
    ("MATCH (a:A:B)<-[:R]-(b) WHERE a.s IS NOT NULL AND b.m IS NULL "
     "RETURN count(*) AS c", "hop_scan",
     lambda m: count_hops(m, {"R"}, "in",
                          lambda p, a, b: labelled(m, a, "A", "B")
                          and node_prop(m, a, "s") is not None
                          and node_prop(m, b, "m") is None)),
    ("MATCH (a)-[:R|S {w: true}]->(b {s: 2.0}) RETURN count(*) AS c",
     "hop_scan",
     lambda m: count_hops(m, {"R", "S"}, "out",
                          lambda p, a, b: cy_eq(p.get("w"), True)
                          and cy_eq(node_prop(m, b, "s"), 2))),
    ("MATCH (a)-[r:R|S]->(b:A) WHERE r.w IN [1, 'å'] AND b.s IN [2] "
     "RETURN count(*) AS c", "hop_scan",
     lambda m: count_hops(m, {"R", "S"}, "out",
                          lambda p, a, b: labelled(m, b, "A")
                          and cy_in(p.get("w"), (1, "å"))
                          and cy_in(node_prop(m, b, "s"), (2,)))),
    ("MATCH (a)-[r]->(b:B) WHERE r.w IS NULL RETURN count(*) AS c",
     "hop_scan",
     lambda m: count_hops(m, set(), "out",
                          lambda p, a, b: labelled(m, b, "B")
                          and p.get("w") is None)),
    (_unique("A", "s"), "unique_key", lambda m: unique_values(m, "A", "s")),
    (_unique("B", "m"), "unique_key", lambda m: unique_values(m, "B", "m")),
    (_unique("B", "nope"), "unique_key", lambda m: 0),
    # ineligible shapes run the general path
    ("MATCH (a)-[:R]->(a) RETURN count(*) AS c", None,
     lambda m: count_hops(m, {"R"}, "out", lambda p, a, b: a == b)),
    ("MATCH (n) WHERE n.m IN [[1, 2], 0] RETURN count(*) AS c", None,
     lambda m: count_nodes(m, lambda n: cy_in(node_prop(m, n, "m"),
                                              ([1, 2], 0)))),
    ("MATCH (n) WHERE n.s IN [n.m] RETURN count(*) AS c", None,
     lambda m: count_nodes(m, lambda n: node_prop(m, n, "s") is not None
                           and cy_eq(node_prop(m, n, "s"),
                                     node_prop(m, n, "m")))),
    ("MATCH (n) WHERE n.m = [1, 2] RETURN count(*) AS c", None,
     lambda m: count_nodes(m, lambda n: node_prop(m, n, "m") == [1, 2])),
    ("OPTIONAL MATCH (n:Nope) RETURN count(*) AS c", None, lambda m: 1),
    ("MATCH (n:A) RETURN count(n) AS c", None,
     lambda m: count_nodes(m, lambda n: labelled(m, n, "A"))),
    ("MATCH (a)-[:R*1..2]->(b) RETURN count(*) AS c", None,
     lambda m: sum(len(m.trails(a, "R", 1, 2, "out")) for a in m.nodes)),
    ("MATCH (n:A) WHERE n.s IS NOT NULL "
     "WITH n.s AS value, count(*) AS occurrences "
     "WHERE occurrences = 2 RETURN count(*) AS c", None,
     lambda m: sum(1 for size in Counter(
         node_prop(m, n, "s") for n in m.nodes
         if labelled(m, n, "A") and node_prop(m, n, "s") is not None
     ).values() if size == 2)),
)


def _run_count(graph, text, **executor_options):
    """``(count, count path)``; ``planner=None`` selects the general
    (unplanned) path."""
    executor = Executor(graph, **executor_options)
    return executor.run(parse(text)).scalar(), executor.count_path


def assert_count_battery(model):
    graph = model.graph
    for text, shape, oracle in COUNT_BATTERY:
        expected = oracle(model)
        pushed, path = _run_count(graph, text)
        general, _path = _run_count(graph, text, planner=None)
        assert (pushed, general) == (expected, expected), text
        plan = default_planner().plan(parse(text), graph)
        assert (plan.count.shape if plan.count else None) == shape, text
        if shape is None:
            assert path == "match", text
        elif text != _unique("B", "m"):
            # only the bool/number/list column may send a pushdown back
            assert path == "pushdown", text


@given(model=count_models())
@settings(max_examples=120, deadline=None)
def test_count_pushdown_matches_oracle(model):
    assert_count_battery(model)


@given(model=count_models())
@settings(max_examples=60, deadline=None)
def test_count_pushdown_matches_oracle_after_mutation(model):
    """Pushdown on an incremental snapshot with tombstoned elements."""
    first = next(iter(model.nodes))
    # a list value on a tombstoned node must not send unique_key back
    model.add_node("doomed", ("A", "B"), {"s": ["gone"], "m": 1})
    model.add_edge("d1", "R", "doomed", first, {"w": 1})
    model.add_edge("loop", "S", first, first, {"w": 1})
    model.graph.columnar()              # compile, so mutations go incremental
    model.update_node(first, {"s": 2.0, "m": None})
    model.add_node("extra", ("A", "B"), {"s": "å", "m": True})
    model.add_edge("x1", "R", first, "extra", {"w": 1.0})
    model.add_edge("x2", "S", "extra", "extra", {"w": True})
    model.remove_edge("loop")
    model.remove_node("doomed")         # detaches d1 as well
    snapshot = model.graph.columnar()
    assert snapshot.origin == "incremental"
    assert snapshot.dead_nodes and snapshot.dead_edges
    assert_count_battery(model)


def test_unique_key_falls_back_on_mixed_columns():
    """Each data condition that rules the value counts out."""
    for values in ([True, 1, 2], [[1], [1], 3], [2 ** 53 + 1, 2.0 ** 53],
                   [float("nan"), 1]):
        model = Model()
        for index, value in enumerate(values):
            model.add_node(f"n{index}", ("A",), {"s": value})
        pushed, path = _run_count(model.graph, _unique("A", "s"))
        general, _path = _run_count(
            model.graph, _unique("A", "s"), planner=None
        )
        assert path == "match", values
        assert pushed == general, values
