"""Canonicalization: alpha-renaming plus a pattern normal form.

Two mined rules frequently differ only in surface dress — variable names
(``(a)-[r]->(b)`` vs ``(x)-[e]->(y)``), edge orientation
(``(a)-[:R]->(b)`` vs ``(b)<-[:R]-(a)``) or comparison direction
(``a.x > 5`` vs ``5 < a.x``).  The paper counts such rules once; a
naive text key counts them many times.  This pass rewrites a query into
a normal form that erases those degrees of freedom and hashes it into a
compact **semantic signature** for :func:`repro.rules.dedup.deduplicate`
and the correction classifier.

The normal form is *best effort*: two queries with the same signature
are structurally equivalent under renaming/orientation, while
semantically equal queries of genuinely different shape may still get
different signatures.  That direction of error only costs a missed
dedup, never a wrong merge.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

from repro.cypher.ast_nodes import (
    BinaryOp,
    CaseExpression,
    CreateClause,
    ExistsExpression,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LabelPredicate,
    ListComprehension,
    ListIndex,
    ListLiteral,
    ListSlice,
    Literal,
    MapLiteral,
    MatchClause,
    MergeClause,
    NodePattern,
    Parameter,
    PathPattern,
    PatternExpression,
    PropertyAccess,
    RegexMatch,
    RelPattern,
    ReturnClause,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)
from repro.analysis.dataflow import iter_variables
from repro.analysis.satisfiability import flatten_and
from repro.cypher.render import render_expression

_FLIP_COMPARISON = {">": "<", ">=": "<="}
_COMMUTATIVE = ("=", "<>", "AND", "OR", "XOR")


# ----------------------------------------------------------------------
# expression normal form
# ----------------------------------------------------------------------
def _flatten(op: str, expr: Expression) -> list[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == op:
        return _flatten(op, expr.left) + _flatten(op, expr.right)
    return [expr]


class _Renamer:
    """Rewrites an expression under a variable renaming while folding
    orientation freedom out of comparisons and commutative operators."""

    def __init__(self, rename: dict[str, str]) -> None:
        self.rename = rename
        self.depth = 0

    def name(self, original: str) -> str:
        return self.rename.get(original, f"?{original}")

    def text(self, expr: Expression) -> str:
        return render_expression(self.transform(expr))

    def transform(self, expr: Expression) -> Expression:
        if isinstance(expr, Variable):
            return Variable(self.name(expr.name))
        if isinstance(expr, (Literal, Parameter)):
            return expr
        if isinstance(expr, PropertyAccess):
            return PropertyAccess(self.transform(expr.subject), expr.key)
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.transform(expr.operand))
        if isinstance(expr, FunctionCall):
            args = tuple(self.transform(a) for a in expr.args)
            return FunctionCall(expr.name, args, expr.distinct, expr.star)
        if isinstance(expr, ListLiteral):
            return ListLiteral(tuple(self.transform(i) for i in expr.items))
        if isinstance(expr, MapLiteral):
            entries = tuple(
                (key, self.transform(value))
                for key, value in sorted(expr.entries, key=lambda e: e[0])
            )
            return MapLiteral(entries)
        if isinstance(expr, IsNull):
            return IsNull(self.transform(expr.operand), expr.negated)
        if isinstance(expr, InList):
            haystack = self.transform(expr.haystack)
            if isinstance(haystack, ListLiteral):
                haystack = ListLiteral(tuple(sorted(
                    haystack.items, key=render_expression
                )))
            return InList(self.transform(expr.needle), haystack)
        if isinstance(expr, StringPredicate):
            return StringPredicate(
                expr.kind, self.transform(expr.left),
                self.transform(expr.right),
            )
        if isinstance(expr, RegexMatch):
            return RegexMatch(
                self.transform(expr.left), self.transform(expr.right)
            )
        if isinstance(expr, CaseExpression):
            return CaseExpression(
                self.transform(expr.operand) if expr.operand else None,
                tuple(
                    (self.transform(c), self.transform(r))
                    for c, r in expr.whens
                ),
                self.transform(expr.default) if expr.default else None,
            )
        if isinstance(expr, LabelPredicate):
            return LabelPredicate(
                self.transform(expr.subject), tuple(sorted(expr.labels))
            )
        if isinstance(expr, ListIndex):
            return ListIndex(
                self.transform(expr.subject), self.transform(expr.index)
            )
        if isinstance(expr, ListSlice):
            return ListSlice(
                self.transform(expr.subject),
                self.transform(expr.start) if expr.start else None,
                self.transform(expr.end) if expr.end else None,
            )
        if isinstance(expr, ListComprehension):
            scoped = f"_cv{self.depth}"
            self.depth += 1
            inner = _Renamer({**self.rename, expr.variable: scoped})
            inner.depth = self.depth
            result = ListComprehension(
                scoped,
                self.transform(expr.source),
                inner.transform(expr.predicate) if expr.predicate else None,
                inner.transform(expr.projection)
                if expr.projection else None,
            )
            self.depth -= 1
            return result
        if isinstance(expr, PatternExpression):
            return PatternExpression(self.transform_path(expr.pattern))
        if isinstance(expr, ExistsExpression):
            return ExistsExpression(self.transform(expr.operand))
        return expr

    def _binary(self, expr: BinaryOp) -> Expression:
        if expr.op in ("AND", "OR", "XOR"):
            operands = [
                self.transform(item) for item in _flatten(expr.op, expr)
            ]
            operands.sort(key=render_expression)
            result = operands[0]
            for operand in operands[1:]:
                result = BinaryOp(expr.op, result, operand)
            return result
        left = self.transform(expr.left)
        right = self.transform(expr.right)
        op = expr.op
        if op in _FLIP_COMPARISON:
            # only < and <= survive canonicalization
            op = _FLIP_COMPARISON[op]
            left, right = right, left
        elif op in ("=", "<>") and (
            render_expression(right) < render_expression(left)
        ):
            left, right = right, left
        return BinaryOp(op, left, right)

    # -- patterns -------------------------------------------------------
    def transform_node(self, node: NodePattern) -> NodePattern:
        properties = tuple(
            (key, self.transform(value))
            for key, value in sorted(node.properties, key=lambda p: p[0])
        )
        variable = self.name(node.variable) if node.variable else None
        return NodePattern(variable, tuple(sorted(node.labels)), properties)

    def transform_rel(self, rel: RelPattern) -> RelPattern:
        properties = tuple(
            (key, self.transform(value))
            for key, value in sorted(rel.properties, key=lambda p: p[0])
        )
        variable = self.name(rel.variable) if rel.variable else None
        return RelPattern(
            variable, tuple(sorted(rel.types)), rel.direction,
            properties, rel.min_hops, rel.max_hops,
        )

    def transform_path(self, pattern: PathPattern) -> PathPattern:
        elements = tuple(
            self.transform_node(e) if isinstance(e, NodePattern)
            else self.transform_rel(e)
            for e in pattern.elements
        )
        variable = self.name(pattern.variable) if pattern.variable else None
        return PathPattern(variable, elements)


# ----------------------------------------------------------------------
# variable invariants → canonical renaming
# ----------------------------------------------------------------------
class _Eraser(_Renamer):
    """A renamer mapping every variable to ``?``."""

    def name(self, original: str) -> str:
        return "?"


def _shape_text(expr: Expression) -> str:
    """Render with every variable erased — a name-free conjunct shape."""
    return _Eraser({}).text(expr)


def _collect_variables(query: SingleQuery) -> dict[str, list]:
    """variable → [kind, sorted labels, first-occurrence index]."""
    order: dict[str, int] = {}
    kinds: dict[str, str] = {}
    labels: dict[str, set] = {}

    def seen(name: str, kind: str, new_labels=()) -> None:
        order.setdefault(name, len(order))
        kinds.setdefault(name, kind)
        labels.setdefault(name, set()).update(new_labels)

    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            for pattern in clause.patterns:
                if pattern.variable:
                    seen(pattern.variable, "path")
                for element in pattern.elements:
                    if element.variable is None:
                        continue
                    if isinstance(element, NodePattern):
                        seen(element.variable, "node", element.labels)
                    else:
                        seen(element.variable, "edge", element.types)
        elif isinstance(clause, UnwindClause):
            seen(clause.alias, "value")
        elif isinstance(clause, WithClause) and not clause.star:
            for item in clause.items:
                seen(item.column_name, "value")
        elif isinstance(clause, (CreateClause, MergeClause)):
            patterns = (
                clause.patterns if isinstance(clause, CreateClause)
                else (clause.pattern,)
            )
            for pattern in patterns:
                for element in pattern.elements:
                    if element.variable is None:
                        continue
                    kind = (
                        "node" if isinstance(element, NodePattern)
                        else "edge"
                    )
                    seen(element.variable, kind,
                         element.labels if isinstance(element, NodePattern)
                         else element.types)
    return {
        name: [kinds[name], tuple(sorted(labels[name])), order[name]]
        for name in order
    }


def _invariants(query: SingleQuery) -> dict[str, str]:
    """One refinement round of structural invariants per variable."""
    variables = _collect_variables(query)
    base: dict[str, str] = {
        name: f"{kind}|{','.join(labels)}"
        for name, (kind, labels, _idx) in variables.items()
    }

    # WHERE-shape usage: each conjunct shape tags the variables it uses
    usage: dict[str, list[str]] = {name: [] for name in base}

    def note_usage(expr: Optional[Expression]) -> None:
        if expr is None:
            return
        for conjunct in flatten_and(expr):
            shape = _shape_text(conjunct)
            for name in set(iter_variables(conjunct)):
                if name in usage:
                    usage[name].append(shape)

    # neighbour refinement over pattern edges
    neighbours: dict[str, list[str]] = {name: [] for name in base}
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            note_usage(clause.where)
            for pattern in clause.patterns:
                elements = pattern.elements
                for index, element in enumerate(elements):
                    if not isinstance(element, RelPattern):
                        continue
                    left = elements[index - 1] if index > 0 else None
                    right = (
                        elements[index + 1]
                        if index + 1 < len(elements) else None
                    )
                    edge_tag = (
                        f"{','.join(sorted(element.types))}"
                        f"*{element.min_hops}..{element.max_hops}"
                    )
                    for end, other in ((left, right), (right, left)):
                        if (
                            isinstance(end, NodePattern)
                            and end.variable in neighbours
                        ):
                            other_tag = (
                                ",".join(sorted(other.labels))
                                if isinstance(other, NodePattern) else ""
                            )
                            neighbours[end.variable].append(
                                f"{edge_tag}~{other_tag}"
                            )
                    if element.variable in neighbours:
                        end_tags = sorted(
                            ",".join(sorted(end.labels))
                            for end in (left, right)
                            if isinstance(end, NodePattern)
                        )
                        neighbours[element.variable].append(
                            "|".join(end_tags)
                        )
        elif isinstance(clause, WithClause):
            note_usage(clause.where)

    refined: dict[str, str] = {}
    for name, tag in base.items():
        refined[name] = (
            tag
            + "#" + ";".join(sorted(neighbours[name]))
            + "#" + ";".join(sorted(usage[name]))
        )
    return refined


def canonical_renaming(query: SingleQuery) -> dict[str, str]:
    """original variable name → canonical ``v0``/``v1``/... name.

    Ordering is by structural invariant, so any alpha-renaming of the
    query yields the same map image; ties fall back to first-occurrence
    order, which is also preserved under pure renaming.
    """
    variables = _collect_variables(query)
    invariants = _invariants(query)
    ordered = sorted(
        variables,
        key=lambda name: (invariants[name], variables[name][2]),
    )
    return {name: f"v{index}" for index, name in enumerate(ordered)}


# ----------------------------------------------------------------------
# clause normal form
# ----------------------------------------------------------------------
def _pattern_atoms(
    pattern: PathPattern, renamer: _Renamer, prefix: str
) -> list[str]:
    """Decompose one path into node and edge atoms.

    Edge atoms orient ``in`` edges as ``out`` (swapping endpoints) and
    sort the endpoints of undirected edges, erasing the two ways of
    writing the same structural edge.
    """
    atoms: list[str] = []
    transformed = renamer.transform_path(pattern)
    elements = transformed.elements
    if transformed.variable:
        inner = "".join(
            _endpoint_text(e) if isinstance(e, NodePattern)
            else _edge_core(e)
            for e in elements
        )
        atoms.append(f"{prefix}path({transformed.variable} = {inner})")
    for element in elements:
        if isinstance(element, NodePattern):
            atoms.append(f"{prefix}node{_endpoint_text(element)}")
    for index, element in enumerate(elements):
        if not isinstance(element, RelPattern):
            continue
        left = elements[index - 1] if index > 0 else None
        right = elements[index + 1] if index + 1 < len(elements) else None
        source = _endpoint_text(left)
        target = _endpoint_text(right)
        direction = element.direction
        if direction == "in":
            source, target = target, source
            direction = "out"
        elif direction == "any" and target < source:
            source, target = target, source
        arrow = "->" if direction == "out" else "-"
        atoms.append(
            f"{prefix}edge({source} -{_edge_core(element)}{arrow} {target})"
        )
    return atoms


def _endpoint_text(node: Optional[Union[NodePattern, RelPattern]]) -> str:
    if not isinstance(node, NodePattern):
        return "()"
    body = node.variable or "_"
    body += "".join(f":{label}" for label in node.labels)
    if node.properties:
        entries = ", ".join(
            f"{key}: {render_expression(value)}"
            for key, value in node.properties
        )
        body += " {" + entries + "}"
    return f"({body})"


def _edge_core(rel: RelPattern) -> str:
    detail = rel.variable or "_"
    if rel.types:
        detail += ":" + "|".join(rel.types)
    if rel.is_variable_length:
        detail += f"*{rel.min_hops}..{rel.max_hops}"
    if rel.properties:
        entries = ", ".join(
            f"{key}: {render_expression(value)}"
            for key, value in rel.properties
        )
        detail += " {" + entries + "}"
    return f"[{detail}]"


def _where_atoms(
    where: Optional[Expression], renamer: _Renamer
) -> list[str]:
    if where is None:
        return []
    return sorted(
        f"where({renamer.text(conjunct)})"
        for conjunct in flatten_and(where)
    )


def _canonical_single(query: SingleQuery) -> str:
    renamer = _Renamer(canonical_renaming(query))
    lines: list[str] = []
    segment: list[str] = []

    def flush() -> None:
        if segment:
            lines.extend(sorted(segment))
            segment.clear()

    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            prefix = "optional-" if clause.optional else ""
            for pattern in clause.patterns:
                segment.extend(_pattern_atoms(pattern, renamer, prefix))
            segment.extend(_where_atoms(clause.where, renamer))
        elif isinstance(clause, UnwindClause):
            flush()
            lines.append(
                f"unwind({renamer.text(clause.expression)} "
                f"AS {renamer.name(clause.alias)})"
            )
        elif isinstance(clause, WithClause):
            flush()
            if clause.star:
                items = ["*"]
            else:
                items = sorted(
                    f"{renamer.text(item.expression)} "
                    f"AS {renamer.name(item.column_name)}"
                    for item in clause.items
                )
            head = "with-distinct" if clause.distinct else "with"
            lines.append(f"{head}({'; '.join(items)})")
            lines.extend(_order_atoms(clause, renamer))
            lines.extend(_where_atoms(clause.where, renamer))
        elif isinstance(clause, ReturnClause):
            flush()
            if clause.star:
                items = ["*"]
            else:
                # aliases are the rule's output columns: keep them verbatim
                items = sorted(
                    f"{renamer.text(item.expression)}"
                    + (f" AS {item.alias}" if item.alias else "")
                    for item in clause.items
                )
            head = "return-distinct" if clause.distinct else "return"
            lines.append(f"{head}({'; '.join(items)})")
            lines.extend(_order_atoms(clause, renamer))
        elif isinstance(clause, (CreateClause, MergeClause)):
            flush()
            keyword = "create" if isinstance(clause, CreateClause) else (
                "merge"
            )
            patterns = (
                clause.patterns if isinstance(clause, CreateClause)
                else (clause.pattern,)
            )
            for pattern in patterns:
                for atom in _pattern_atoms(
                    pattern, renamer, f"{keyword}-"
                ):
                    lines.append(atom)
        else:
            flush()
            # mutation clauses keep their rendered (renamed) text
            lines.append(f"clause({type(clause).__name__})")
    flush()
    return "\n".join(lines)


def _order_atoms(clause, renamer: _Renamer) -> list[str]:
    atoms = []
    if clause.order_by:
        rendered = ", ".join(
            renamer.text(item.expression)
            + (" DESC" if item.descending else "")
            for item in clause.order_by
        )
        atoms.append(f"order({rendered})")
    if clause.skip is not None:
        atoms.append(f"skip({renamer.text(clause.skip)})")
    if clause.limit is not None:
        atoms.append(f"limit({renamer.text(clause.limit)})")
    return atoms


def canonical_form(query) -> str:
    """The human-readable normal form (one atom per line)."""
    if isinstance(query, UnionQuery):
        branches = sorted(_canonical_single(sub) for sub in query.queries)
        keyword = "union-all" if query.all else "union"
        return f"{keyword}:\n" + "\n--\n".join(branches)
    return _canonical_single(query)


def canonical_signature(query) -> str:
    """Stable semantic signature: versioned hash of the normal form."""
    form = canonical_form(query)
    digest = hashlib.sha256(form.encode("utf-8")).hexdigest()
    return f"cq1:{digest[:20]}"
