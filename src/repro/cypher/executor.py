"""Clause pipeline execution: MATCH → WHERE → WITH → RETURN.

The executor streams *rows* (variable-binding dicts) through the query's
clauses.  Projections implement Cypher's implicit grouping: if any
projection item contains an aggregate, the non-aggregate items become the
grouping key and aggregates are computed per group (including the
one-empty-group rule for global aggregation over zero rows).

A query the planner marks for count pushdown (a lone ``RETURN count(*)``
over one node or hop, or the uniqueness shape) is instead answered from
the CSR snapshot's counters and columns without building any row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.cypher.ast_nodes import (
    CreateClause,
    DeleteClause,
    Expression,
    FunctionCall,
    MatchClause,
    MergeClause,
    NodePattern,
    OrderItem,
    PathPattern,
    ProjectionItem,
    Query,
    RelPattern,
    RemoveClause,
    ReturnClause,
    SetClause,
    SingleQuery,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)
from repro.cypher.errors import (
    CypherError,
    CypherSemanticError,
    CypherTypeError,
)
from repro.cypher.evaluator import EvalContext, contains_aggregate, evaluate
from repro.cypher.functions import aggregate, is_aggregate
from repro.cypher.matcher import (
    MatchStats,
    Path,
    count_pattern,
    match_patterns,
)
from repro.cypher.parser import parse
from repro.graph.model import Edge, Node
from repro.graph.store import PropertyGraph, property_index_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cypher.planner import (
        ClausePlan,
        CountPushdown,
        QueryPlan,
        QueryPlanner,
    )
    from repro.graph.columnar import ColumnarGraph

Row = dict[str, object]

#: sentinel meaning "use the process-wide default planner"
_DEFAULT = object()

#: ints beyond this magnitude are not exact as floats, so the value
#: index (keyed on floats) could merge values that grouping keeps apart
_FLOAT_EXACT_INT = 2 ** 53


@dataclass
class QueryResult:
    """The outcome of executing one query."""

    columns: list[str]
    rows: list[Row]
    stats: dict[str, int] = None  # write counters, when a write ran

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = {}

    def values(self, column: str | None = None) -> list[object]:
        """All values of one column (default: the first)."""
        key = column if column is not None else self.columns[0]
        return [row[key] for row in self.rows]

    def scalar(self) -> object:
        """The single value of a 1x1 result (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][self.columns[0]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _canonical(value: object) -> object:
    """A hashable, equality-faithful key for grouping/DISTINCT."""
    if isinstance(value, Node):
        return ("__node__", value.id)
    if isinstance(value, Edge):
        return ("__edge__", value.id)
    if isinstance(value, Path):
        return ("__path__", tuple(getattr(e, "id", e) for e in value.elements))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, float) and value.is_integer():
        return int(value)  # 2.0 groups with 2, like Cypher
    return value


_TYPE_ORDER = {
    "bool": 0, "int": 1, "float": 1, "str": 2, "list": 3, "tuple": 3,
    "dict": 4, "Node": 5, "Edge": 6, "Path": 7,
}


def _sort_key(value: object) -> tuple:
    """Total order across mixed types; None sorts last (Cypher default)."""
    if value is None:
        return (99, 0)
    rank = _TYPE_ORDER.get(type(value).__name__, 50)
    if isinstance(value, bool):
        return (rank, int(value))
    if isinstance(value, (int, float)):
        return (rank, value)
    if isinstance(value, str):
        return (rank, value)
    if isinstance(value, (list, tuple)):
        return (rank, tuple(_sort_key(item) for item in value))
    if isinstance(value, (Node, Edge)):
        return (rank, value.id)
    return (rank, repr(value))


def _collect_aggregates(expr: Expression) -> list[FunctionCall]:
    """Outermost aggregate calls inside ``expr`` (document order)."""
    found: list[FunctionCall] = []
    _visit_aggregates(expr, found)
    return found


def _visit_aggregates(node: Expression, found: list[FunctionCall]) -> None:
    # module level, not a closure: a self-recursive closure is a
    # reference cycle, left to the cyclic collector after every call
    if isinstance(node, FunctionCall) and is_aggregate(node.name):
        found.append(node)
        return  # aggregates cannot nest in Cypher
    for attr in getattr(node, "__dataclass_fields__", {}):
        value = getattr(node, attr)
        if isinstance(value, Expression):
            _visit_aggregates(value, found)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Expression):
                    _visit_aggregates(item, found)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, Expression):
                            _visit_aggregates(sub, found)


class _AggregateScope(EvalContext):
    """EvalContext that answers aggregate calls from a precomputed map."""

    def __init__(
        self,
        base: EvalContext,
        aggregate_values: Mapping[FunctionCall, object],
    ) -> None:
        super().__init__(
            graph=base.graph, parameters=base.parameters,
            bindings=base.bindings,
        )
        self.aggregate_values = aggregate_values


def _evaluate_with_aggregates(
    expr: Expression,
    ctx: "_AggregateScope",
) -> object:
    """Evaluate, substituting precomputed values for aggregate subtrees."""
    if isinstance(expr, FunctionCall) and is_aggregate(expr.name):
        return ctx.aggregate_values[expr]
    # rebuild children through the normal evaluator by temporarily
    # swapping aggregate subtrees for literals
    return evaluate(_substitute_aggregates(expr, ctx.aggregate_values), ctx)


def _substitute_aggregates(
    node: Expression, values: Mapping[FunctionCall, object]
) -> Expression:
    """``node`` with each aggregate subtree replaced by a literal of its
    precomputed value (module level, so no closure cycle per call)."""
    from repro.cypher import ast_nodes as ast

    if isinstance(node, FunctionCall) and is_aggregate(node.name):
        return ast.Literal(values[node])
    if not hasattr(node, "__dataclass_fields__"):
        return node
    changes = {}
    for attr in node.__dataclass_fields__:
        value = getattr(node, attr)
        if isinstance(value, Expression):
            new = _substitute_aggregates(value, values)
            if new is not value:
                changes[attr] = new
        elif isinstance(value, tuple):
            new_items = []
            changed = False
            for item in value:
                if isinstance(item, Expression):
                    new = _substitute_aggregates(item, values)
                    changed = changed or (new is not item)
                    new_items.append(new)
                elif isinstance(item, tuple):
                    new_sub = tuple(
                        _substitute_aggregates(s, values)
                        if isinstance(s, Expression) else s
                        for s in item
                    )
                    changed = changed or (new_sub != item)
                    new_items.append(new_sub)
                else:
                    new_items.append(item)
            if changed:
                changes[attr] = tuple(new_items)
    if changes:
        import dataclasses

        return dataclasses.replace(node, **changes)
    return node


class Executor:
    """Executes parsed queries against a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        parameters: Mapping[str, object] | None = None,
        planner: "QueryPlanner | None | object" = _DEFAULT,
    ) -> None:
        self.graph = graph
        self.parameters = dict(parameters or {})
        if planner is _DEFAULT:
            from repro.cypher.planner import default_planner

            planner = default_planner()
        # escape hatch: Executor(graph, planner=None) runs unplanned
        self.planner: "QueryPlanner | None" = planner
        #: how the last run was answered: "pushdown" or "match"
        self.count_path = "match"

    # ------------------------------------------------------------------
    def _plan(self, query: Query) -> "QueryPlan | None":
        if self.planner is None:
            return None
        try:
            return self.planner.plan(query, self.graph)
        except Exception:
            # a planning bug must never break a query; fall back to the
            # unplanned pipeline and record that it happened
            obs.inc("planner.errors")
            return None

    def run(self, query: Query) -> QueryResult:
        plan = self._plan(query)
        self.count_path = "match"
        if plan is not None and plan.count is not None:
            count = self._pushdown_count(plan.count)
            if count is not None:
                self.count_path = "pushdown"
                column = plan.count.column
                return QueryResult(columns=[column], rows=[{column: count}])
        if isinstance(query, UnionQuery):
            return self._run_union(query, plan)
        return self._run_single(query, plan)

    def _pushdown_count(self, pushdown: "CountPushdown") -> int | None:
        """Answer a count-pushdown query from the CSR snapshot; None when
        the data rules the shortcut out (the caller then matches)."""
        snapshot = self.graph.columnar()
        shape = pushdown.shape
        if shape == "unique_key":
            count = _unique_key_count(snapshot, pushdown.label, pushdown.key)
            if count is None:
                return None
        elif shape == "label_size":
            labels = pushdown.step.pattern.elements[0].labels
            count = (
                snapshot.label_sizes.get(snapshot.label_code.get(labels[0]), 0)
                if labels else snapshot.node_count()
            )
        elif shape == "type_count":
            rel = pushdown.step.pattern.elements[1]
            count = (
                sum(
                    snapshot.etype_counts.get(snapshot.etype_code.get(t), 0)
                    for t in set(rel.types)
                )
                if rel.types else snapshot.edge_count()
            )
            if rel.direction == "any":
                count *= 2  # each edge matches once per endpoint
        else:  # node_scan / hop_scan
            step = pushdown.step
            count = count_pattern(
                self.graph, step.pattern, step.seed, pushdown.tests,
                self.parameters,
            )
        obs.inc("cypher.count_pushdown", shape=shape)
        return count

    def _run_union(
        self, query: UnionQuery, plan: "QueryPlan | None" = None
    ) -> QueryResult:
        results = [
            self._run_single(sub, plan, branch)
            for branch, sub in enumerate(query.queries)
        ]
        columns = results[0].columns
        for result in results[1:]:
            if result.columns != columns:
                raise CypherSemanticError(
                    "UNION branches must return the same columns"
                )
        rows: list[Row] = []
        seen: set = set()
        for result in results:
            for row in result.rows:
                if query.all:
                    rows.append(row)
                    continue
                key = tuple(_canonical(row[c]) for c in columns)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        return QueryResult(columns=columns, rows=rows)

    def _run_single(
        self,
        query: SingleQuery,
        plan: "QueryPlan | None" = None,
        branch: int = 0,
    ) -> QueryResult:
        rows: list[Row] = [{}]
        columns: list[str] = []
        self._stats: dict[str, int] = {}
        for clause_index, clause in enumerate(query.clauses):
            if isinstance(clause, MatchClause):
                clause_plan = (
                    plan.clause_plan(branch, clause_index)
                    if plan is not None
                    else None
                )
                rows = list(self._apply_match(clause, rows, clause_plan))
            elif isinstance(clause, UnwindClause):
                rows = list(self._apply_unwind(clause, rows))
            elif isinstance(clause, CreateClause):
                rows = [self._apply_create(clause, row) for row in rows]
            elif isinstance(clause, MergeClause):
                rows = [self._apply_merge(clause, row) for row in rows]
            elif isinstance(clause, SetClause):
                rows = [self._apply_set(clause, row) for row in rows]
            elif isinstance(clause, RemoveClause):
                rows = [self._apply_remove(clause, row) for row in rows]
            elif isinstance(clause, DeleteClause):
                rows = self._apply_delete(clause, rows)
            elif isinstance(clause, WithClause):
                columns, rows = self._apply_projection(
                    clause.items, clause.distinct, clause.order_by,
                    clause.skip, clause.limit, rows, star=clause.star,
                )
                if clause.where is not None:
                    rows = [
                        row for row in rows
                        if evaluate(clause.where, self._ctx(row)) is True
                    ]
            elif isinstance(clause, ReturnClause):
                columns, rows = self._apply_projection(
                    clause.items, clause.distinct, clause.order_by,
                    clause.skip, clause.limit, rows, star=clause.star,
                )
            else:  # pragma: no cover - parser prevents this
                raise CypherSemanticError(
                    f"unsupported clause {type(clause).__name__}"
                )
        if query.return_clause is None:
            rows = []
        return QueryResult(columns=columns, rows=rows, stats=self._stats)

    # ------------------------------------------------------------------
    # write clauses
    # ------------------------------------------------------------------
    def _bump(self, counter: str, amount: int = 1) -> None:
        self._stats[counter] = self._stats.get(counter, 0) + amount

    def _fresh_id(self, prefix: str) -> str:
        counter = getattr(self, "_id_counter", 0)
        while True:
            counter += 1
            candidate = f"{prefix}{counter}"
            if not (self.graph.has_node(candidate)
                    or self.graph.has_edge(candidate)):
                self._id_counter = counter
                return candidate

    def _instantiate_pattern(
        self, pattern: PathPattern, row: Row
    ) -> Row:
        """Create every unbound element of ``pattern`` (CREATE semantics)."""
        new_row = dict(row)
        elements = pattern.elements
        current: Node | None = None
        index = 0
        while index < len(elements):
            element = elements[index]
            if isinstance(element, NodePattern):
                current = self._create_or_reuse_node(element, new_row)
                index += 1
                continue
            assert isinstance(element, RelPattern)
            next_node_pattern = elements[index + 1]
            next_node = self._create_or_reuse_node(
                next_node_pattern, new_row
            )
            self._create_edge(element, current, next_node, new_row)
            current = next_node
            index += 2
        return new_row

    def _create_or_reuse_node(
        self, pattern: NodePattern, row: Row
    ) -> Node:
        if pattern.variable and pattern.variable in row:
            bound = row[pattern.variable]
            if not isinstance(bound, Node):
                raise CypherSemanticError(
                    f"variable {pattern.variable!r} is not a node"
                )
            return bound
        properties = {
            key: evaluate(value, self._ctx(row))
            for key, value in pattern.properties
        }
        node = self.graph.add_node(
            self._fresh_id("_n"), pattern.labels, properties
        )
        self._bump("nodes_created")
        if pattern.variable:
            row[pattern.variable] = node
        return node

    def _create_edge(
        self, pattern: RelPattern, left: Node, right: Node, row: Row
    ) -> Edge:
        if len(pattern.types) != 1:
            raise CypherSemanticError(
                "CREATE requires exactly one relationship type"
            )
        if pattern.direction == "any":
            raise CypherSemanticError(
                "CREATE requires a directed relationship"
            )
        if pattern.is_variable_length:
            raise CypherSemanticError(
                "CREATE cannot use variable-length relationships"
            )
        src, dst = (left, right) if pattern.direction == "out" \
            else (right, left)
        properties = {
            key: evaluate(value, self._ctx(row))
            for key, value in pattern.properties
        }
        edge = self.graph.add_edge(
            self._fresh_id("_e"), pattern.types[0], src.id, dst.id,
            properties,
        )
        self._bump("relationships_created")
        if pattern.variable:
            row[pattern.variable] = edge
        return edge

    def _apply_create(self, clause: CreateClause, row: Row) -> Row:
        new_row = dict(row)
        for pattern in clause.patterns:
            new_row = self._instantiate_pattern(pattern, new_row)
        return new_row

    def _apply_merge(self, clause: MergeClause, row: Row) -> Row:
        matches = list(match_patterns(
            self.graph, (clause.pattern,), dict(row),
            parameters=self.parameters,
        ))
        if matches:
            return matches[0]
        return self._instantiate_pattern(clause.pattern, dict(row))

    def _apply_set(self, clause: SetClause, row: Row) -> Row:
        new_row = dict(row)
        for item in clause.items:
            element = new_row.get(item.target)
            if element is None:
                continue  # SET on null is a no-op, as in Cypher
            if not isinstance(element, (Node, Edge)):
                raise CypherSemanticError(
                    f"SET target {item.target!r} is not a node or "
                    "relationship"
                )
            value = evaluate(item.value, self._ctx(new_row))
            if item.key is not None:
                updated = self._write_property(element, item.key, value)
            else:
                if not isinstance(value, Mapping):
                    raise CypherTypeError("SET ... = / += expects a map")
                updated = element
                if item.replace:
                    for key in list(element.properties):
                        updated = self._write_property(updated, key, None)
                for key, entry in value.items():
                    updated = self._write_property(updated, key, entry)
            new_row[item.target] = updated
        return new_row

    def _write_property(self, element, key: str, value):
        """Set (or, for None, remove) one property; returns the fresh
        element snapshot."""
        if isinstance(element, Node):
            if value is None:
                updated = self.graph.remove_node_property(element.id, key)
            else:
                updated = self.graph.update_node(element.id, {key: value})
            self._bump("properties_set")
            return updated
        if value is None:
            # edges have no remove-property helper; rebuild in place
            remaining = {
                k: v for k, v in element.properties.items() if k != key
            }
            self.graph.remove_edge(element.id)
            updated = self.graph.add_edge(
                element.id, element.label, element.src, element.dst,
                remaining,
            )
        else:
            updated = self.graph.update_edge(element.id, {key: value})
        self._bump("properties_set")
        return updated

    def _apply_remove(self, clause: RemoveClause, row: Row) -> Row:
        new_row = dict(row)
        for item in clause.items:
            element = new_row.get(item.target)
            if element is None:
                continue
            if not isinstance(element, (Node, Edge)):
                raise CypherSemanticError(
                    f"REMOVE target {item.target!r} is not a node or "
                    "relationship"
                )
            new_row[item.target] = self._write_property(
                element, item.key, None
            )
        return new_row

    def _apply_delete(
        self, clause: DeleteClause, rows: list[Row]
    ) -> list[Row]:
        deleted_nodes: set[str] = set()
        deleted_edges: set[str] = set()
        for row in rows:
            for expression in clause.expressions:
                value = evaluate(expression, self._ctx(row))
                if value is None:
                    continue
                if isinstance(value, Edge):
                    if value.id not in deleted_edges \
                            and self.graph.has_edge(value.id):
                        self.graph.remove_edge(value.id)
                        deleted_edges.add(value.id)
                        self._bump("relationships_deleted")
                elif isinstance(value, Node):
                    if value.id in deleted_nodes \
                            or not self.graph.has_node(value.id):
                        continue
                    degree = self.graph.degree(value.id)
                    if degree and not clause.detach:
                        raise CypherSemanticError(
                            f"cannot delete node {value.id!r} with "
                            "relationships; use DETACH DELETE"
                        )
                    self._bump("relationships_deleted", degree)
                    self.graph.remove_node(value.id)
                    deleted_nodes.add(value.id)
                    self._bump("nodes_deleted")
                else:
                    raise CypherTypeError(
                        "DELETE expects nodes or relationships"
                    )
        return rows

    # ------------------------------------------------------------------
    def _ctx(self, row: Row) -> EvalContext:
        return EvalContext(
            graph=self.graph, parameters=self.parameters, bindings=row
        )

    def _apply_match(
        self,
        clause: MatchClause,
        rows: Iterable[Row],
        clause_plan: "ClausePlan | None" = None,
    ) -> Iterable[Row]:
        pattern_variables = self._pattern_variables(clause)
        stats = MatchStats()
        matched_total = 0
        try:
            for row in rows:
                matched_any = False
                for bindings in self._match_row(
                    clause, clause_plan, row, stats
                ):
                    matched_any = True
                    matched_total += 1
                    yield bindings
                if clause.optional and not matched_any:
                    padded = dict(row)
                    for variable in pattern_variables:
                        padded.setdefault(variable, None)
                    yield padded
        finally:
            obs.inc("matcher.seeds", stats.seeds)
            obs.inc("matcher.expansions", stats.expansions)
            obs.inc("matcher.visits", stats.visits)
            obs.inc("matcher.csr.frontier_expansions", stats.frontiers)
            if clause_plan is not None:
                obs.observe("planner.estimated_rows", clause_plan.estimate)
                obs.observe("planner.actual_rows", matched_total)

    def _match_row(
        self,
        clause: MatchClause,
        clause_plan: "ClausePlan | None",
        row: Row,
        stats: MatchStats,
    ) -> Iterable[Row]:
        """Matches of one input row, WHERE already applied."""
        if clause_plan is not None:
            try:
                prefilter_ok = all(
                    evaluate(predicate, self._ctx(row)) is True
                    for predicate in clause_plan.prefilter
                )
            except CypherError:
                # unplanned semantics raise such errors only on rows that
                # have at least one pattern match; re-run unplanned so
                # the error surfaces with identical timing (or not at
                # all, when nothing matches)
                clause_plan = None
            else:
                if not prefilter_ok:
                    return
                for bindings in match_patterns(
                    self.graph,
                    clause.patterns,
                    dict(row),
                    plan=clause_plan,
                    parameters=self.parameters,
                    stats=stats,
                ):
                    if clause_plan.residual is not None:
                        residual = evaluate(
                            clause_plan.residual, self._ctx(bindings)
                        )
                        if residual is not True:
                            continue
                    yield bindings
                return
        for bindings in match_patterns(
            self.graph, clause.patterns, dict(row),
            parameters=self.parameters, stats=stats,
        ):
            if clause.where is not None:
                if evaluate(clause.where, self._ctx(bindings)) is not True:
                    continue
            yield bindings

    @staticmethod
    def _pattern_variables(clause: MatchClause) -> list[str]:
        names: list[str] = []
        for pattern in clause.patterns:
            if pattern.variable:
                names.append(pattern.variable)
            for element in pattern.elements:
                if element.variable:
                    names.append(element.variable)
        return names

    def _apply_unwind(
        self, clause: UnwindClause, rows: Iterable[Row]
    ) -> Iterable[Row]:
        for row in rows:
            value = evaluate(clause.expression, self._ctx(row))
            if value is None:
                continue
            items = value if isinstance(value, (list, tuple)) else [value]
            for item in items:
                new_row = dict(row)
                new_row[clause.alias] = item
                yield new_row

    # ------------------------------------------------------------------
    def _apply_projection(
        self,
        items: Sequence[ProjectionItem],
        distinct: bool,
        order_by: Sequence[OrderItem],
        skip: Optional[Expression],
        limit: Optional[Expression],
        rows: list[Row],
        star: bool = False,
    ) -> tuple[list[str], list[Row]]:
        if star:
            variables = sorted({name for row in rows for name in row})
            items = tuple(
                ProjectionItem(expression=Variable(name), alias=None, text=name)
                for name in variables
            )

        has_aggregate = any(
            contains_aggregate(item.expression) for item in items
        )
        columns = [item.column_name for item in items]
        if len(set(columns)) != len(columns):
            raise CypherSemanticError("duplicate column names in projection")

        # each projected row keeps the source bindings it came from, so
        # ORDER BY can reference pre-projection variables (Cypher allows
        # ``RETURN t.name AS team ORDER BY t.name``)
        if has_aggregate:
            projected = [
                (row, dict(row)) for row in self._project_grouped(items, rows)
            ]
        else:
            projected = []
            for row in rows:
                out = {
                    item.column_name: evaluate(item.expression, self._ctx(row))
                    for item in items
                }
                projected.append((out, {**row, **out}))

        if distinct:
            unique: list[tuple[Row, Row]] = []
            seen: set = set()
            for pair in projected:
                key = tuple(_canonical(pair[0][c]) for c in columns)
                if key not in seen:
                    seen.add(key)
                    unique.append(pair)
            projected = unique

        if order_by:
            def order_key(pair: tuple[Row, Row]) -> tuple:
                keys = []
                for item in order_by:
                    value = self._eval_order_expr(item.expression, pair[1])
                    key = _sort_key(value)
                    keys.append(
                        _InvertedKey(key) if item.descending else key
                    )
                return tuple(keys)

            projected = sorted(projected, key=order_key)

        if skip is not None:
            count = self._non_negative_int(skip, "SKIP")
            projected = projected[count:]
        if limit is not None:
            count = self._non_negative_int(limit, "LIMIT")
            projected = projected[:count]
        return columns, [pair[0] for pair in projected]

    def _eval_order_expr(self, expr: Expression, row: Row) -> object:
        return evaluate(expr, self._ctx(row))

    def _non_negative_int(self, expr: Expression, what: str) -> int:
        value = evaluate(expr, self._ctx({}))
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CypherTypeError(f"{what} must be a non-negative integer")
        return value

    def _project_grouped(
        self, items: Sequence[ProjectionItem], rows: list[Row]
    ) -> list[Row]:
        group_items = [
            item for item in items if not contains_aggregate(item.expression)
        ]
        aggregate_calls: list[FunctionCall] = []
        for item in items:
            aggregate_calls.extend(_collect_aggregates(item.expression))

        # group rows by the values of non-aggregate items
        groups: dict[tuple, tuple[Row, list[Row]]] = {}
        order: list[tuple] = []
        for row in rows:
            key_values = {
                item.column_name: evaluate(item.expression, self._ctx(row))
                for item in group_items
            }
            key = tuple(_canonical(key_values[i.column_name]) for i in group_items)
            if key not in groups:
                groups[key] = (key_values, [])
                order.append(key)
            groups[key][1].append(row)

        if not group_items and not rows:
            # global aggregation over empty input: one empty group
            groups[()] = ({}, [])
            order.append(())

        projected: list[Row] = []
        for key in order:
            key_values, member_rows = groups[key]
            agg_values: dict[FunctionCall, object] = {}
            for call in aggregate_calls:
                if call in agg_values:
                    continue
                agg_values[call] = self._evaluate_aggregate(call, member_rows)
            out: Row = {}
            for item in items:
                if contains_aggregate(item.expression):
                    scope = _AggregateScope(
                        self._ctx(member_rows[0] if member_rows else {}),
                        agg_values,
                    )
                    out[item.column_name] = _evaluate_with_aggregates(
                        item.expression, scope
                    )
                else:
                    out[item.column_name] = key_values[item.column_name]
            projected.append(out)
        return projected

    def _evaluate_aggregate(
        self, call: FunctionCall, rows: list[Row]
    ) -> object:
        if call.star:
            if call.name != "count":
                raise CypherSemanticError(f"{call.name}(*) is not valid")
            return len(rows)
        if len(call.args) != 1:
            raise CypherSemanticError(
                f"aggregate {call.name}() takes exactly one argument"
            )
        values = [evaluate(call.args[0], self._ctx(row)) for row in rows]
        values = [_hashable_for_distinct(v) if call.distinct else v
                  for v in values]
        return aggregate(call.name, values, call.distinct)


def _unique_key_count(
    snapshot: "ColumnarGraph", label: str, key: str
) -> int | None:
    """Distinct non-null ``key`` values held by exactly one live ``label``
    node, read off the snapshot's value counts (``pair_counts``).

    None when those counts could group differently from
    :func:`_canonical`: a value the index skips (list, map, NaN), a
    boolean beside numbers (``_canonical`` groups ``true`` with ``1``,
    the index keeps them apart), or an int too large to be exact as a
    float.  One pass over the label's column decides it.
    """
    lc = snapshot.label_code.get(label)
    kc = snapshot.pkey_code.get(key)
    if lc is None or kc is None:
        return 0
    column = snapshot.node_cols.get(kc, ())
    width = len(column)
    dead = snapshot.dead_nodes
    has_bool = has_number = False
    for nid in snapshot.label_members.get(lc, ()):
        if nid >= width or nid in dead:
            continue
        value = column[nid]
        if value is None:
            continue
        if property_index_key(value) is None:
            return None
        if isinstance(value, bool):
            has_bool = True
        elif isinstance(value, (int, float)):
            if isinstance(value, int) and abs(value) > _FLOAT_EXACT_INT:
                return None
            has_number = True
    if has_bool and has_number:
        return None
    counts = snapshot.pair_counts.get((lc, kc), {})
    return sum(1 for occurrences in counts.values() if occurrences == 1)


def _hashable_for_distinct(value: object) -> object:
    # aggregate() deduplicates with list membership, so unhashable values
    # are fine as-is; this hook exists for symmetry/future optimisation
    return value


class _InvertedKey:
    """Wrapper inverting comparison order, for ORDER BY ... DESC."""

    __slots__ = ("key",)

    def __init__(self, key: object) -> None:
        self.key = key

    def __lt__(self, other: "_InvertedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _InvertedKey) and self.key == other.key


@lru_cache(maxsize=512)
def _parse_cached(query_text: str) -> Query:
    """Parse with memoization (ASTs are immutable, so sharing is safe).

    Raising parses are not cached — ``lru_cache`` only stores returns.
    """
    return parse(query_text)


def execute(
    graph: PropertyGraph,
    query_text: str,
    parameters: Mapping[str, object] | None = None,
) -> QueryResult:
    """Parse and execute ``query_text`` against ``graph``."""
    with obs.span("cypher.execute") as sp:
        started = time.perf_counter()
        query = _parse_cached(query_text)
        executor = Executor(graph, parameters)
        result = executor.run(query)
        elapsed = time.perf_counter() - started
        sp.set_attribute("rows", len(result.rows))
        sp.set_attribute("count_path", executor.count_path)
        obs.inc("cypher.queries")
        obs.inc("cypher.rows", len(result.rows))
        obs.observe("cypher.eval_seconds", elapsed)
    return result
