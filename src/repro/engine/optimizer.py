"""Rule-based logical-plan optimizer (the Catalyst-analogue layer).

Three rewrite rules, all driven by the same schema-level metadata the
provenance capture already maintains (``accessed_paths`` /
``manipulation_pairs``, paper Tab. 5):

* **Filter pushdown** (``pushdown``): moves a filter below a select,
  flatten, or with_column when every path its predicate accesses can be
  rewritten through the child's projections.  Pushing a filter changes
  which operator drops each row -- and therefore the captured id
  associations -- so the rule only fires when no attached capture hook
  demands plan fidelity (i.e. in plain runs and metric-only runs).
* **Projection pruning** (``prune``): computes, per plan edge, the set of
  top-level attributes some downstream operator still accesses, and inserts
  a physical :class:`~repro.engine.physical.PruneOp` at the head of fused
  chains whose input carries attributes nobody needs.  Requirements are
  seeded with *everything* at the sink and only narrowed by operators that
  provably rebuild their output (select, aggregate); operators whose
  capture metadata is derived from the runtime schema (map, distinct, join,
  union) conservatively require everything, which keeps registered
  accessed/manipulated paths, runtime error behaviour, and backtrace
  answers identical to the unoptimized path.
* **Operator fusion** (``fuse``): consecutive narrow operators whose
  intermediate result has a single consumer execute as one pipelined stage
  (see :mod:`repro.engine.physical`).

:func:`plan_physical` is the compiler entry the executor calls: it applies
the enabled rules and returns the compiled :class:`PhysicalPlan` plus an
:class:`OptimizationReport` of what fired (surfaced by ``repro explain``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.paths import Path
from repro.engine.config import EngineConfig
from repro.engine.expressions import (
    AliasedExpr,
    BinaryExpr,
    ColumnExpr,
    Expression,
    FunctionExpr,
    LiteralExpr,
    StructExpr,
    UnaryExpr,
)
from repro.engine.hooks import CaptureHook
from repro.engine.physical import PhysicalPlan, compile_stages
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    FlattenNode,
    JoinNode,
    LimitNode,
    MapNode,
    PlanNode,
    SelectNode,
    SortNode,
    UnionNode,
    WithColumnNode,
)
from repro.errors import ExecutionError

__all__ = [
    "AppliedRule",
    "OptimizationReport",
    "plan_physical",
    "pushdown_filters",
    "prune_attribute_sets",
]


class AppliedRule:
    """One rewrite the optimizer performed."""

    __slots__ = ("rule", "description")

    def __init__(self, rule: str, description: str):
        self.rule = rule
        self.description = description

    def __repr__(self) -> str:
        return f"AppliedRule({self.rule}: {self.description})"


class OptimizationReport:
    """The rewrites applied while compiling one plan."""

    def __init__(self) -> None:
        self.applied: list[AppliedRule] = []

    def add(self, rule: str, description: str) -> None:
        self.applied.append(AppliedRule(rule, description))

    def rules_fired(self) -> tuple[str, ...]:
        seen: list[str] = []
        for entry in self.applied:
            if entry.rule not in seen:
                seen.append(entry.rule)
        return tuple(seen)

    def describe(self) -> str:
        if not self.applied:
            return "(no rewrites applied)"
        return "\n".join(f"[{entry.rule}] {entry.description}" for entry in self.applied)

    def __repr__(self) -> str:
        return f"OptimizationReport({len(self.applied)} rewrites)"


# ---------------------------------------------------------------------------
# Filter pushdown
# ---------------------------------------------------------------------------


def _consumer_counts(root: PlanNode) -> dict[int, int]:
    counts: dict[int, int] = {}
    for node in root.walk():
        for child in node.children:
            counts[child.oid] = counts.get(child.oid, 0) + 1
    return counts


def _clone_with_children(node: PlanNode, children: Sequence[PlanNode]) -> PlanNode:
    """Re-create *node* (same oid and parameters) over new children."""
    with_children = getattr(node, "with_children", None)
    if with_children is not None:
        # Nodes outside the core set (e.g. windowed aggregations) rebuild
        # themselves; checked before the isinstance ladder so subclasses are
        # not silently downcast to their base operator.
        return with_children(children)
    if isinstance(node, FilterNode):
        return FilterNode(node.oid, children[0], node.predicate)
    if isinstance(node, SelectNode):
        return SelectNode(node.oid, children[0], node.projections)
    if isinstance(node, MapNode):
        return MapNode(node.oid, children[0], node.fn, node.name)
    if isinstance(node, FlattenNode):
        return FlattenNode(node.oid, children[0], node.col_path, node.new_name, node.outer)
    if isinstance(node, WithColumnNode):
        return WithColumnNode(node.oid, children[0], node.name, node.expression)
    if isinstance(node, AggregateNode):
        return AggregateNode(node.oid, children[0], node.keys, node.aggregates)
    if isinstance(node, DistinctNode):
        return DistinctNode(node.oid, children[0])
    if isinstance(node, SortNode):
        return SortNode(node.oid, children[0], node.keys, node.descending)
    if isinstance(node, LimitNode):
        return LimitNode(node.oid, children[0], node.n)
    if isinstance(node, JoinNode):
        return JoinNode(node.oid, children[0], children[1], node.condition)
    if isinstance(node, UnionNode):
        return UnionNode(node.oid, children[0], children[1])
    raise ExecutionError(f"cannot clone plan node {type(node).__name__}")


def _unalias(expr: Expression) -> Expression:
    while isinstance(expr, AliasedExpr):
        expr = expr.inner
    return expr


def _resolve_through_projection(projection: Expression, rest: Path) -> Path | None:
    """Map an access *below* one projected attribute back to an input path."""
    projection = _unalias(projection)
    if isinstance(projection, ColumnExpr):
        return projection.path.concat(rest)
    if isinstance(projection, StructExpr):
        if rest.is_empty():
            return None  # whole-struct access has no single input path
        head = rest.head()
        if head.pos is not None:
            return None
        for name, member in projection.fields:
            if name == head.name:
                return _resolve_through_projection(member, rest.tail())
        return None
    return None  # computed value: not a copied subtree


def _rewrite_predicate_through_select(
    predicate: Expression, select: SelectNode
) -> Expression | None:
    """Rewrite *predicate* to run below *select*, or ``None`` if impossible."""
    projections = dict(zip(select.output_names, select.projections))

    def resolve(path: Path) -> Path | None:
        head = path.head()
        if head.pos is not None:
            return None
        projection = projections.get(head.name)
        if projection is None:
            return None  # attribute absent after select; evaluation differs below
        return _resolve_through_projection(projection, path.tail())

    def substitute(expr: Expression) -> Expression | None:
        if isinstance(expr, ColumnExpr):
            path = resolve(expr.path)
            return ColumnExpr(path) if path is not None else None
        if isinstance(expr, LiteralExpr):
            return expr
        if isinstance(expr, AliasedExpr):
            inner = substitute(expr.inner)
            return AliasedExpr(inner, expr.name) if inner is not None else None
        if isinstance(expr, UnaryExpr):
            operand = substitute(expr.operand)
            return UnaryExpr(expr.name, operand, expr.fn) if operand is not None else None
        if isinstance(expr, BinaryExpr):
            left = substitute(expr.left)
            right = substitute(expr.right)
            if left is None or right is None:
                return None
            return BinaryExpr(expr.name, left, right, expr.fn)
        if isinstance(expr, FunctionExpr):
            operands = [substitute(operand) for operand in expr.operands]
            if any(operand is None for operand in operands):
                return None
            return FunctionExpr(expr.name, operands, expr.fn)  # type: ignore[arg-type]
        if isinstance(expr, StructExpr):
            fields = [(name, substitute(member)) for name, member in expr.fields]
            if any(member is None for _, member in fields):
                return None
            return StructExpr([(name, member) for name, member in fields])  # type: ignore[list-item]
        return None

    return substitute(predicate)


def _accessed_heads(expr: Expression) -> set[str]:
    return {path.head().name for path in expr.accessed_paths() if not path.is_empty()}


def pushdown_filters(root: PlanNode, report: OptimizationReport) -> PlanNode:
    """Push filters below select/flatten/with_column where paths permit.

    Result-preserving but *association-changing* (rows are dropped by a
    different operator), so callers gate it on no plan-fidelity hooks being
    attached.  Only fires across edges whose producer has a single consumer;
    shared sub-plans are never duplicated.
    """
    consumers = _consumer_counts(root)
    memo: dict[int, PlanNode] = {}

    def push(node: FilterNode) -> PlanNode:
        child = node.children[0]
        if consumers.get(child.oid, 0) != 1:
            return node
        if isinstance(child, SelectNode):
            rewritten = _rewrite_predicate_through_select(node.predicate, child)
            if rewritten is None:
                return node
            report.add(
                "pushdown",
                f"push filter (oid {node.oid}) below select (oid {child.oid})",
            )
            inner = push(FilterNode(node.oid, child.children[0], rewritten))
            return SelectNode(child.oid, inner, child.projections)
        if isinstance(child, FlattenNode):
            if child.new_name in _accessed_heads(node.predicate):
                return node
            report.add(
                "pushdown",
                f"push filter (oid {node.oid}) below flatten (oid {child.oid})",
            )
            inner = push(FilterNode(node.oid, child.children[0], node.predicate))
            return FlattenNode(child.oid, inner, child.col_path, child.new_name, child.outer)
        if isinstance(child, WithColumnNode):
            if child.name in _accessed_heads(node.predicate):
                return node
            report.add(
                "pushdown",
                f"push filter (oid {node.oid}) below with_column (oid {child.oid})",
            )
            inner = push(FilterNode(node.oid, child.children[0], node.predicate))
            return WithColumnNode(child.oid, inner, child.name, child.expression)
        return node

    def rewrite(node: PlanNode) -> PlanNode:
        cached = memo.get(node.oid)
        if cached is not None:
            return cached
        children = tuple(rewrite(child) for child in node.children)
        current = node if children == node.children else _clone_with_children(node, children)
        if isinstance(current, FilterNode):
            current = push(current)
        memo[node.oid] = current
        return current

    return rewrite(root)


# ---------------------------------------------------------------------------
# Projection pruning: required-attribute analysis
# ---------------------------------------------------------------------------

#: Sentinel requirement: every attribute must survive.
_ALL = None


def _heads(paths: Iterable[Path]) -> set[str]:
    return {path.head().name for path in paths if not path.is_empty()}


def _merge(into: dict[int, set[str] | None], oid: int, requirement: set[str] | None) -> None:
    if requirement is _ALL or into.get(oid, set()) is _ALL:
        into[oid] = _ALL
        return
    existing = into.setdefault(oid, set())
    assert existing is not None
    existing.update(requirement)


def _child_requirements(
    node: PlanNode, out_req: set[str] | None
) -> list[set[str] | None]:
    """Requirement each child's output must satisfy, given the node's own."""
    if isinstance(node, SelectNode):
        return [_heads(node.accessed_paths(0))]
    if isinstance(node, AggregateNode):
        return [_heads(node.accessed_paths(0))]
    if isinstance(node, (FilterNode, SortNode)):
        if out_req is _ALL:
            return [_ALL]
        return [set(out_req) | _heads(node.accessed_paths(0))]
    if isinstance(node, LimitNode):
        return [_ALL if out_req is _ALL else set(out_req)]
    if isinstance(node, FlattenNode):
        if out_req is _ALL:
            return [_ALL]
        required = set(out_req) - {node.new_name}
        required.add(node.col_path.head().name)
        return [required]
    if isinstance(node, WithColumnNode):
        if out_req is _ALL:
            return [_ALL]
        required = set(out_req) - {node.name}
        required |= _heads(node.accessed_paths(0))
        return [required]
    # map (opaque UDF), distinct / join / union (capture metadata and error
    # behaviour derive from the full runtime schema): require everything.
    return [_ALL for _ in node.children]


def prune_attribute_sets(root: PlanNode) -> dict[int, frozenset[str]]:
    """Per-node attribute sets that must survive the node's output.

    Returns entries only for nodes where pruning is possible (requirement
    narrower than *everything*).  Names any flatten introduces are globally
    protected so a name-clash that would raise in the unoptimized plan still
    raises.
    """
    protected = {
        node.new_name for node in root.walk() if isinstance(node, FlattenNode)
    }
    required: dict[int, set[str] | None] = {root.oid: _ALL}
    for node in reversed(root.walk()):
        out_req = required.get(node.oid, set())
        for child, child_req in zip(node.children, _child_requirements(node, out_req)):
            _merge(required, child.oid, child_req)
    sets: dict[int, frozenset[str]] = {}
    for oid, requirement in required.items():
        if requirement is not _ALL:
            sets[oid] = frozenset(requirement | protected)
    return sets


# ---------------------------------------------------------------------------
# Compiler entry
# ---------------------------------------------------------------------------


def plan_physical(
    root: PlanNode,
    config: EngineConfig,
    hooks: Sequence[CaptureHook] = (),
) -> PhysicalPlan:
    """Optimize *root* under *config* and compile it into a physical plan."""
    report = OptimizationReport()
    preserve_store = any(hook.needs_ids or hook.plan_fidelity for hook in hooks)
    executed = root
    if config.rule_enabled("pushdown") and not preserve_store:
        executed = pushdown_filters(executed, report)
    prune_sets: dict[int, frozenset[str]] = {}
    if config.rule_enabled("prune"):
        prune_sets = prune_attribute_sets(executed)
    return compile_stages(
        root,
        executed,
        fuse=config.rule_enabled("fuse"),
        prune_sets=prune_sets,
        report=report,
    )
