"""Graph pattern matching for MATCH clauses, over the CSR snapshot.

Implements Cypher's matching semantics for the supported subset:

* label and property-map filters on nodes and relationships;
* all three directions (``->``, ``<-``, undirected);
* simple variable-length relationships ``*m..n``;
* *relationship uniqueness* within a single MATCH clause (the same edge
  cannot be traversed twice, Cypher's "relationship isomorphism");
* re-use of already-bound variables (joins across patterns and clauses).

Matching is a depth-first search over the int-id columnar snapshot
(:class:`repro.graph.columnar.ColumnarGraph`) of the graph's current
epoch:

* frontiers expand over contiguous CSR adjacency slices — a single-type
  relationship reads exactly its typed segment, so edges of other types
  are never touched (``MatchStats.visits`` measures this);
* label filtering compares interned label codes;
* pushed-down WHERE prefilters of the shape ``var.key = <literal>`` /
  ``var.key IS [NOT] NULL`` are evaluated against the property columns
  *before* a bindings dict is materialized — only the order-preserved
  remainder goes through the general evaluator;
* relationship uniqueness is one mutable set of dense edge ids shared by
  every pattern of the clause, variable-length hops included (add on
  descent, discard on backtrack).

By default a pattern seeds from its bound variable, else its first label,
else every node.  The cost-based planner in :mod:`repro.cypher.planner`
can instead supply a :class:`SeedSpec` per pattern (property-index
lookups, cheapest label) plus per-position predicate *checks* — WHERE
conjuncts pushed down to the earliest DFS step where their variables are
bound.  Pattern predicates (``WHERE (n)-[:R]->()``), MERGE and unplanned
clauses run the same search with written-order patterns and no seed.

:func:`count_pattern` serves the executor's count pushdown: the same
seeds, label codes and column tests over a single node or hop, counted
in dense ids without building a bindings dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    InList,
    IsNull,
    ListLiteral,
    Literal,
    NodePattern,
    PathPattern,
    PropertyAccess,
    RelPattern,
    Variable,
)
from repro.cypher.errors import CypherError, CypherSemanticError
from repro.cypher.evaluator import EvalContext, _equals, evaluate
from repro.graph.columnar import ColumnarGraph
from repro.graph.model import Edge, Node
from repro.graph.store import PropertyGraph, property_index_key

#: ``checks`` maps a node-element index (0, 2, 4, ...) to the pushed-down
#: predicates to evaluate once that element (and its preceding
#: relationship) is bound
Checks = Mapping[int, Sequence[Expression]]

#: a column prefilter: ("eq", key, literal), ("in", key, literals) or
#: ("null", key, negated)
ColumnTest = tuple[str, str, object]

#: prepared patterns kept per snapshot before the memo is reset
_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class SeedSpec:
    """How to enumerate candidate start nodes for one path pattern.

    ``kind`` is ``"bound"`` (variable already bound), ``"index"``
    (property-index lookup on ``(label, key) = value``), ``"label"``
    (label-index scan, not necessarily the pattern's first label) or
    ``"scan"`` (all nodes).  Seeds are advisory: the matcher re-verifies
    every candidate against the full pattern, and an index seed whose
    value turns out unindexable (null, list) or unevaluable falls back
    to the label scan, so a stale or wrong seed can never change results.
    """

    kind: str
    label: str | None = None
    key: str | None = None
    value: Expression | None = None


class MatchStats:
    """Mutable node-expansion counters for one match run.

    ``expansions`` counts (edge, neighbour) pairs surviving the
    relationship-type filter; ``visits`` counts adjacency entries
    touched, which for a typed CSR slice is the same set.
    """

    __slots__ = ("seeds", "expansions", "visits", "frontiers")

    def __init__(self) -> None:
        self.seeds = 0          # candidate start nodes enumerated
        self.expansions = 0     # (edge, neighbour) pairs considered
        self.visits = 0         # adjacency entries touched pre-filter
        self.frontiers = 0      # contiguous CSR slices fetched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchStats(seeds={self.seeds}, expansions={self.expansions}, "
            f"visits={self.visits}, frontiers={self.frontiers})"
        )


class Path:
    """A matched path: alternating nodes and edges."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[object]) -> None:
        self.elements = tuple(elements)

    def nodes(self) -> list[Node]:
        return [e for e in self.elements if isinstance(e, Node)]

    def relationships(self) -> list[Edge]:
        return [e for e in self.elements if isinstance(e, Edge)]

    def __len__(self) -> int:
        return len(self.relationships())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and [
            getattr(e, "id", e) for e in self.elements
        ] == [getattr(e, "id", e) for e in other.elements]

    def __hash__(self) -> int:
        return hash(tuple(getattr(e, "id", e) for e in self.elements))

    def __repr__(self) -> str:
        return f"Path(len={len(self)})"


# ----------------------------------------------------------------------
# object-level filters (bound elements, property maps, general checks)
# ----------------------------------------------------------------------
def _node_satisfies(
    graph: PropertyGraph,
    node: Node,
    pattern: NodePattern,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    if any(label not in node.labels for label in pattern.labels):
        return False
    return _properties_match(
        graph, node, pattern.properties, bindings, parameters
    )


def _edge_satisfies(
    graph: PropertyGraph,
    edge: Edge,
    pattern: RelPattern,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    if pattern.types and edge.label not in pattern.types:
        return False
    return _properties_match(
        graph, edge, pattern.properties, bindings, parameters
    )


def _properties_match(
    graph: PropertyGraph,
    element: Node | Edge,
    property_filters: tuple,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    if not property_filters:
        return True
    ctx = EvalContext(
        graph=graph, parameters=parameters or {}, bindings=dict(bindings)
    )
    for key, value_expr in property_filters:
        expected = evaluate(value_expr, ctx)
        if _equals(element.properties.get(key), expected) is not True:
            return False
    return True


def _checks_pass(
    predicates: Sequence[Expression] | None,
    graph: PropertyGraph,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    """Evaluate pushed-down conjuncts; all must be exactly True.

    The planner only pushes conjuncts that evaluate to a boolean or
    null, so ``is True`` here matches the ternary semantics the full
    WHERE would have applied after matching.
    """
    if not predicates:
        return True
    ctx = EvalContext(
        graph=graph, parameters=parameters or {}, bindings=dict(bindings)
    )
    return all(evaluate(pred, ctx) is True for pred in predicates)


# ----------------------------------------------------------------------
# column prefilters
# ----------------------------------------------------------------------
def column_test(
    predicate: Expression, variable: str | None
) -> ColumnTest | None:
    """Compile one pushed conjunct into a column test, if it only reads
    ``variable``'s own properties against constants (such a test cannot
    raise and cannot see any other binding)."""
    if variable is None:
        return None
    if isinstance(predicate, IsNull):
        operand = predicate.operand
        if (
            isinstance(operand, PropertyAccess)
            and isinstance(operand.subject, Variable)
            and operand.subject.name == variable
        ):
            return ("null", operand.key, predicate.negated)
        return None
    if isinstance(predicate, BinaryOp) and predicate.op == "=":
        sides = (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        )
        for prop, literal in sides:
            if (
                isinstance(prop, PropertyAccess)
                and isinstance(prop.subject, Variable)
                and prop.subject.name == variable
                and isinstance(literal, Literal)
            ):
                return ("eq", prop.key, literal.value)
        return None
    if isinstance(predicate, InList):
        prop, items = predicate.needle, predicate.haystack
        if (
            isinstance(prop, PropertyAccess)
            and isinstance(prop.subject, Variable)
            and prop.subject.name == variable
            and isinstance(items, ListLiteral)
            and all(isinstance(item, Literal) for item in items.items)
        ):
            return ("in", prop.key, tuple(item.value for item in items.items))
    return None


def _column_prefix(
    predicates: Sequence[Expression] | None, variable: str | None
) -> tuple[tuple[ColumnTest, ...], tuple[Expression, ...]]:
    """Split pushed conjuncts into a *leading* run of column tests plus
    the order-preserved remainder.

    Only a prefix may be hoisted: ``all()`` evaluates conjuncts in order
    and a later conjunct may raise, so skipping ahead of one would
    change error semantics.
    """
    if not predicates:
        return (), ()
    fast: list[ColumnTest] = []
    remainder = list(predicates)
    while remainder:
        test = column_test(remainder[0], variable)
        if test is None:
            break
        fast.append(test)
        remainder.pop(0)
    return tuple(fast), tuple(remainder)


def _prepare_pattern(
    snapshot: ColumnarGraph,
    pattern: PathPattern,
    checks: Checks | None,
) -> dict[int, object]:
    """Per-element int-domain metadata: the typed-slice code for each
    relationship, and (label codes, column prefilters, residual checks)
    for each node element.

    Memoized on the snapshot by pattern and checks identity (both are
    held by the memo, so their ids cannot be reused while cached): a
    pattern predicate re-runs for every row of its clause, and its
    set-up must not be paid per row.
    """
    memo = snapshot.memo
    key = (id(pattern), id(checks))
    cached = memo.get(key)
    if cached is not None:
        return cached[2]
    meta: dict[int, object] = {}
    for index, element in enumerate(pattern.elements):
        if isinstance(element, RelPattern):
            meta[index] = (
                snapshot.single_type_code(element.types[0])
                if len(element.types) == 1
                else None
            )
        else:
            codes = tuple(
                snapshot.label_code.get(label, -1)
                for label in element.labels
            )
            fast, rest = _column_prefix(
                checks.get(index) if checks else None, element.variable
            )
            meta[index] = (
                codes,
                _row_filter(snapshot.node_cols, snapshot.pkey_code, fast),
                rest,
            )
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = (pattern, checks, meta)
    return meta


# ----------------------------------------------------------------------
# the depth-first search
# ----------------------------------------------------------------------
def _seed_nids(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    pattern: NodePattern,
    seed: SeedSpec | None,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> Iterator[int]:
    """Dense ids of the raw candidate start nodes chosen by the seed
    spec (candidates are still verified against the pattern)."""
    if seed is not None and seed.kind == "index":
        ctx = EvalContext(
            graph=graph, parameters=parameters or {},
            bindings=dict(bindings),
        )
        try:
            value = evaluate(seed.value, ctx)
        except CypherError:
            value = None  # unevaluable now; fall back to the label scan
        if value is not None:
            index_key = property_index_key(value)
            if index_key is not None:
                return snapshot.index_candidates(
                    seed.label, seed.key, index_key
                )
        return snapshot.label_candidates(seed.label)
    if seed is not None and seed.kind == "label":
        return snapshot.label_candidates(seed.label)
    if seed is not None and seed.kind == "scan":
        return snapshot.all_candidates()
    # default: the pattern's first label index, else a full scan
    if pattern.labels:
        return snapshot.label_candidates(pattern.labels[0])
    return snapshot.all_candidates()


def _adjacent(
    snapshot: ColumnarGraph,
    nid: int,
    rel: RelPattern,
    rel_tc: int | None,
    stats: MatchStats | None,
) -> Iterator[tuple[int, int]]:
    """(edge, neighbour) dense-id frontier for one relationship step.

    Each direction is one contiguous slice fetch; ``visits`` counts the
    entries actually touched (for a typed slice, only matching edges).
    An undirected step reads the outgoing slice, then the incoming one.
    """
    if nid < 0:
        return
    if rel.direction in ("out", "any"):
        if stats is not None:
            stats.frontiers += 1
        for pair in snapshot.adjacency(nid, rel_tc, True):
            if stats is not None:
                stats.visits += 1
            yield pair
    if rel.direction in ("in", "any"):
        if stats is not None:
            stats.frontiers += 1
        for pair in snapshot.adjacency(nid, rel_tc, False):
            if stats is not None:
                stats.visits += 1
            yield pair


def _walk(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    elements: Sequence[object],
    index: int,
    nid: int,
    bindings: dict[str, object],
    used: set[int],
    trail: list[object],
    checks: Checks,
    meta: Mapping[int, object],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[tuple[dict[str, object], list[object]]]:
    """DFS over the remaining (rel, node) element pairs, in dense ids.

    ``trail`` ends with the current node object.  Check order per edge:
    uniqueness, relationship filters, rel-bound identity, node filters,
    node-bound identity, then pushed checks (column prefix first — it is
    the leading run of the same conjunct list).
    """
    if index >= len(elements):
        yield bindings, trail
        return

    rel: RelPattern = elements[index]          # type: ignore[assignment]
    if rel.is_variable_length:
        yield from _walk_var_length(
            graph, snapshot, elements, index, nid, bindings, used, trail,
            checks, meta, parameters, stats,
        )
        return
    next_pattern: NodePattern = elements[index + 1]  # type: ignore
    rel_tc = meta[index]
    codes, fast, rest = meta[index + 1]
    rel_bound = rel.variable is not None and rel.variable in bindings
    node_bound = (
        next_pattern.variable is not None
        and next_pattern.variable in bindings
    )

    for eid, nbr in _adjacent(snapshot, nid, rel, rel_tc, stats):
        if stats is not None:
            stats.expansions += 1
        if eid in used:
            continue
        edge = snapshot.edge_objs[eid]
        if not _edge_satisfies(graph, edge, rel, bindings, parameters):
            continue
        if rel_bound:
            bound = bindings[rel.variable]
            if not isinstance(bound, Edge) or bound.id != edge.id:
                continue
        if codes and not snapshot.has_labels(nbr, codes):
            continue
        neighbour = snapshot.node_objs[nbr]
        if next_pattern.properties and not _properties_match(
            graph, neighbour, next_pattern.properties, bindings, parameters
        ):
            continue
        if node_bound:
            bound = bindings[next_pattern.variable]
            if not isinstance(bound, Node) or bound.id != neighbour.id:
                continue
        if fast is not None and not fast(nbr):
            continue
        new_bindings = dict(bindings)
        if rel.variable:
            new_bindings[rel.variable] = edge
        if next_pattern.variable:
            new_bindings[next_pattern.variable] = neighbour
        if rest and not _checks_pass(rest, graph, new_bindings, parameters):
            continue
        used.add(eid)
        try:
            yield from _walk(
                graph, snapshot, elements, index + 2, nbr,
                new_bindings, used, trail + [edge, neighbour],
                checks, meta, parameters, stats,
            )
        finally:
            used.discard(eid)


def _walk_var_length(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    elements: Sequence[object],
    index: int,
    nid: int,
    bindings: dict[str, object],
    used: set[int],
    trail: list[object],
    checks: Checks,
    meta: Mapping[int, object],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[tuple[dict[str, object], list[object]]]:
    """A ``*m..n`` step: depth-first expansion over CSR slices.

    Endpoints are yielded pre-order (a path of ``h`` hops before its
    extensions), each hop holding its edge in the clause's shared
    ``used`` set while the rest of the pattern matches beyond it.  The
    relationship variable binds to the list of traversed edges.  A
    zero-hop endpoint is the current node *object* (a bound start may be
    stale), so endpoints are verified through the object, not columns.
    """
    rel: RelPattern = elements[index]          # type: ignore[assignment]
    next_pattern: NodePattern = elements[index + 1]  # type: ignore
    rel_tc = meta[index]

    for eids, end in _hops(
        graph, snapshot, rel, rel_tc, nid, 0, [],
        bindings, used, parameters, stats,
    ):
        endpoint = snapshot.node_objs[end] if eids else trail[-1]
        if not _node_satisfies(
            graph, endpoint, next_pattern, bindings, parameters
        ):
            continue
        if (
            next_pattern.variable
            and next_pattern.variable in bindings
        ):
            bound = bindings[next_pattern.variable]
            if not isinstance(bound, Node) or bound.id != endpoint.id:
                continue
        edges = [snapshot.edge_objs[eid] for eid in eids]
        new_bindings = dict(bindings)
        if rel.variable:
            new_bindings[rel.variable] = edges
        if next_pattern.variable:
            new_bindings[next_pattern.variable] = endpoint
        if not _checks_pass(
            checks.get(index + 1), graph, new_bindings, parameters
        ):
            continue
        # the hops generator is suspended here still holding its edges
        # in ``used``, which is exactly the uniqueness state the rest of
        # the path must see
        yield from _walk(
            graph, snapshot, elements, index + 2, end,
            new_bindings, used, trail + edges + [endpoint],
            checks, meta, parameters, stats,
        )


def _hops(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    rel: RelPattern,
    rel_tc: int | None,
    at: int,
    depth: int,
    eids: list[int],
    bindings: dict[str, object],
    used: set[int],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[tuple[list[int], int]]:
    """(edge ids, endpoint) of every ``*m..n`` expansion from ``at``,
    pre-order.  Module level rather than a closure: a self-recursive
    closure is a reference cycle that would keep ``snapshot`` alive
    until the cyclic collector runs."""
    if depth >= rel.min_hops:
        yield eids, at
    if depth >= rel.max_hops:
        return
    for eid, nbr in _adjacent(snapshot, at, rel, rel_tc, stats):
        if stats is not None:
            stats.expansions += 1
        if eid in used:
            continue
        if not _edge_satisfies(
            graph, snapshot.edge_objs[eid], rel, bindings, parameters
        ):
            continue
        used.add(eid)
        try:
            yield from _hops(
                graph, snapshot, rel, rel_tc, nbr, depth + 1, eids + [eid],
                bindings, used, parameters, stats,
            )
        finally:
            used.discard(eid)


def _match_path(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    pattern: PathPattern,
    bindings: dict[str, object],
    used: set[int],
    seed: SeedSpec | None,
    checks: Checks,
    meta: Mapping[int, object],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[dict[str, object]]:
    """All bindings extensions matching one path pattern."""
    if not pattern.elements:
        return
    first = pattern.elements[0]
    if not isinstance(first, NodePattern):
        raise CypherSemanticError("path pattern must start with a node")

    def finish(
        start_bindings: dict[str, object], nid: int, start: Node
    ) -> Iterator[dict[str, object]]:
        for final_bindings, trail in _walk(
            graph, snapshot, pattern.elements, 1, nid,
            start_bindings, used, [start], checks, meta, parameters, stats,
        ):
            if pattern.variable:
                final_bindings = dict(final_bindings)
                final_bindings[pattern.variable] = Path(trail)
            yield final_bindings

    if first.variable is not None and first.variable in bindings:
        # a bound start may be a stale object (rebound across write
        # clauses); filters and checks must see *that* object, so the
        # columns are not consulted here — only its adjacency is,
        # resolved by id (absent ids expand to nothing, like the store)
        bound = bindings[first.variable]
        if stats is not None:
            stats.seeds += 1
        if not (
            isinstance(bound, Node)
            and _node_satisfies(graph, bound, first, bindings, parameters)
        ):
            return
        start_bindings = dict(bindings)
        start_bindings[first.variable] = bound
        if not _checks_pass(checks.get(0), graph, start_bindings, parameters):
            return
        nid = snapshot.node_index.get(bound.id, -1)
        yield from finish(start_bindings, nid, bound)
        return

    codes, fast, rest = meta[0]
    for nid in _seed_nids(
        graph, snapshot, first, seed, bindings, parameters
    ):
        if stats is not None:
            stats.seeds += 1
        if codes and not snapshot.has_labels(nid, codes):
            continue
        start = snapshot.node_objs[nid]
        if first.properties and not _properties_match(
            graph, start, first.properties, bindings, parameters
        ):
            continue
        if fast is not None and not fast(nid):
            continue
        start_bindings = dict(bindings)
        if first.variable:
            start_bindings[first.variable] = start
        if rest and not _checks_pass(rest, graph, start_bindings, parameters):
            continue
        yield from finish(start_bindings, nid, start)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def match_patterns(
    graph: PropertyGraph,
    patterns: Sequence[PathPattern],
    bindings: dict[str, object],
    *,
    plan: object | None = None,
    parameters: Mapping[str, object] | None = None,
    stats: MatchStats | None = None,
) -> Iterator[dict[str, object]]:
    """Match a comma-separated pattern list (one MATCH clause).

    Relationship uniqueness applies across all patterns of the clause.
    With a ``plan`` (a :class:`repro.cypher.planner.ClausePlan` or any
    object exposing ``steps`` of (pattern, seed, checks)), the planned
    pattern order, orientations, seeds and pushed-down checks are used
    instead of the written order; ``patterns`` is then ignored.
    """
    if plan is not None:
        steps = tuple(
            (step.pattern, step.seed, step.checks) for step in plan.steps
        )
    else:
        steps = tuple((pattern, None, None) for pattern in patterns)
    snapshot = graph.columnar()
    used: set[int] = set()
    prepared = [
        (pattern, seed, checks or {},
         _prepare_pattern(snapshot, pattern, checks))
        for pattern, seed, checks in steps
    ]
    yield from _match_steps(
        graph, snapshot, prepared, 0, bindings, used, parameters, stats
    )


def _match_steps(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    prepared: Sequence[tuple],
    index: int,
    bindings: dict[str, object],
    used: set[int],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[dict[str, object]]:
    """Extensions of ``bindings`` matching ``prepared[index:]`` in order
    (module level for the same no-cycle reason as :func:`_hops`)."""
    if index >= len(prepared):
        yield bindings
        return
    pattern, seed, checks, meta = prepared[index]
    for new_bindings in _match_path(
        graph, snapshot, pattern, bindings, used,
        seed, checks, meta, parameters, stats,
    ):
        yield from _match_steps(
            graph, snapshot, prepared, index + 1, new_bindings,
            used, parameters, stats,
        )


def pattern_exists(
    graph: PropertyGraph,
    pattern: PathPattern,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None = None,
) -> bool:
    """True if ``pattern`` has at least one match extending ``bindings``."""
    snapshot = graph.columnar()
    meta = _prepare_pattern(snapshot, pattern, None)
    for _match in _match_path(
        graph, snapshot, pattern, bindings, set(),
        None, {}, meta, parameters, None,
    ):
        return True
    return False


def count_pattern(
    graph: PropertyGraph,
    pattern: PathPattern,
    seed: SeedSpec | None,
    tests: Sequence[tuple[ColumnTest, ...]],
    parameters: Mapping[str, object] | None = None,
) -> int:
    """Number of matches of a single node or single fixed-length hop
    pattern, counted in dense ids without materializing any binding.

    ``tests[i]`` holds element ``i``'s column tests (its inline property
    map and its WHERE conjuncts, all of the ``column_test`` shape), so
    this is exactly the row count :func:`match_patterns` would yield for
    a pattern whose variables are all distinct and unbound: the seed,
    label codes and columns decide every candidate.  A hop scans the
    live edges of its types once and tests both ends (no adjacency call
    per start node); an undirected hop counts each edge once per end, a
    self-loop twice, as the DFS does.
    """
    snapshot = graph.columnar()
    elements = pattern.elements
    first = elements[0]
    start_codes = tuple(
        snapshot.label_code.get(label, -1) for label in first.labels
    )
    start_ok = _row_filter(snapshot.node_cols, snapshot.pkey_code, tests[0])
    starts = [
        nid
        for nid in _seed_nids(graph, snapshot, first, seed, {}, parameters)
        if (not start_codes or snapshot.has_labels(nid, start_codes))
        and (start_ok is None or start_ok(nid))
    ]
    if len(elements) == 1:
        return len(starts)

    rel: RelPattern = elements[1]              # type: ignore[assignment]
    end: NodePattern = elements[2]             # type: ignore[assignment]
    wanted = (
        {snapshot.etype_code[t] for t in rel.types if t in snapshot.etype_code}
        if rel.types else None
    )
    # the end of a live edge is a live node, so label members suffice
    ends = None
    for label in end.labels:
        members = set(
            snapshot.label_members.get(snapshot.label_code.get(label), ())
        )
        ends = members if ends is None else ends & members
    rel_ok = _row_filter(snapshot.edge_cols, snapshot.pkey_code, tests[1])
    end_ok = _row_filter(snapshot.node_cols, snapshot.pkey_code, tests[2])
    orientations = {
        "out": ((snapshot.edge_src, snapshot.edge_dst),),
        "in": ((snapshot.edge_dst, snapshot.edge_src),),
        "any": ((snapshot.edge_src, snapshot.edge_dst),
                (snapshot.edge_dst, snapshot.edge_src)),
    }[rel.direction]

    def holds(eid: int, nbr: int) -> bool:
        return (
            (ends is None or nbr in ends)
            and (rel_ok is None or rel_ok(eid))
            and (end_ok is None or end_ok(nbr))
        )

    dead = snapshot.dead_edges
    eids = [
        eid for eid, code in enumerate(snapshot.edge_types)
        if (wanted is None or code in wanted) and eid not in dead
    ]
    start_set = set(starts)
    return sum(
        sum(1 for eid in eids if near[eid] in start_set and holds(eid, far[eid]))
        for near, far in orientations
    )


def _row_filter(
    cols: Mapping[int, list],
    pkey_code: Mapping[str, int],
    tests: tuple[ColumnTest, ...],
) -> Callable[[int], bool] | None:
    """A predicate over row ids of one snapshot store (``node_cols`` or
    ``edge_cols``): all ``tests`` hold, each exactly as its WHERE
    conjunct would evaluate to true.  Columns are looked up once, here;
    None when there is nothing to test."""
    if not tests:
        return None
    resolved = [
        (kind, cols.get(pkey_code.get(key, -1), ()), payload)
        for kind, key, payload in tests
    ]

    def passes(row: int) -> bool:
        for kind, col, payload in resolved:
            value = col[row] if row < len(col) else None
            if kind == "eq":
                if _equals(value, payload) is not True:
                    return False
            elif kind == "in":
                # ``x IN [...]`` is true iff some item equals x (a null x
                # or a null item never makes it true)
                if not any(_equals(value, item) is True for item in payload):
                    return False
            elif (value is None) == payload:  # "null": payload = negated
                return False
        return True

    return passes
