"""Logical plan DAG (paper Def. 4.6).

A data analytics program is a DAG of operator nodes.  Every node carries a
unique operator identifier (``oid``), its children (data-flow predecessors),
and the operator-specific parameters.  Nodes also know how to describe their
own provenance-capture metadata on a schema level (the accessed paths ``A``
and manipulation pairs ``M`` of Tab. 5); the executor combines this static
description with the per-item id associations it gathers while running.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.paths import POS, Path, Step, parse_path
from repro.engine.expressions import AggregateExpr, Expression, as_expression
from repro.errors import PlanError
from repro.nested.values import DataItem

__all__ = [
    "PlanNode",
    "ReadNode",
    "FilterNode",
    "SelectNode",
    "MapNode",
    "JoinNode",
    "UnionNode",
    "FlattenNode",
    "AggregateNode",
    "DistinctNode",
    "SortNode",
    "LimitNode",
    "WithColumnNode",
    "collection_element_path",
]


def collection_element_path(col_path: Path) -> Path:
    """Return the schema-level path to the *elements* of a collection path.

    ``user_mentions`` becomes ``user_mentions[pos]`` -- the paper's
    ``(a_col[pos])`` notation for the flattened elements.
    """
    if col_path.is_empty():
        raise PlanError("flatten needs a non-empty collection path")
    last = col_path.last()
    if last.pos is not None:
        raise PlanError(f"collection path must not carry a position: {col_path}")
    return Path(col_path.parent().steps + (Step(last.name, POS),))


class PlanNode:
    """Base class of all logical operators."""

    op_type: str = "abstract"

    def __init__(self, oid: int, children: Sequence["PlanNode"]):
        self.oid = oid
        self.children: tuple[PlanNode, ...] = tuple(children)

    def label(self) -> str:
        """Human-readable operator label for metrics and reports."""
        return self.op_type

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        """Schema-level accessed paths ``A`` on the given input (Tab. 5)."""
        return set()

    def manipulation_pairs(self) -> list[tuple[Path, Path]]:
        """Schema-level manipulation pairs ``M`` (input path, output path)."""
        return []

    def walk(self) -> list["PlanNode"]:
        """Return all nodes of the sub-DAG in topological (children-first) order."""
        seen: set[int] = set()
        ordered: list[PlanNode] = []

        def visit(node: "PlanNode") -> None:
            if node.oid in seen:
                return
            seen.add(node.oid)
            for child in node.children:
                visit(child)
            ordered.append(node)

        visit(self)
        return ordered

    def consumer_counts(self) -> dict[int, int]:
        """``oid -> number of parent edges reading it`` within the sub-DAG."""
        counts: dict[int, int] = {}
        for node in self.walk():
            for child in node.children:
                counts[child.oid] = counts.get(child.oid, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"{type(self).__name__}(oid={self.oid})"


class ReadNode(PlanNode):
    """A source operator: reads a named collection of data items.

    ``loader`` is a zero-argument callable producing the items, so JSONL
    files and in-memory datasets share one node type.
    """

    op_type = "read"

    def __init__(self, oid: int, name: str, loader: Callable[[], list[DataItem]]):
        super().__init__(oid, ())
        self.name = name
        self.loader = loader

    def label(self) -> str:
        return f"read {self.name}"


class FilterNode(PlanNode):
    """Keeps items whose predicate evaluates truthy (Tab. 5: M = empty set)."""

    op_type = "filter"

    def __init__(self, oid: int, child: PlanNode, predicate: Expression):
        super().__init__(oid, (child,))
        self.predicate = predicate

    def label(self) -> str:
        return f"filter {self.predicate}"

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        return {path.schematic() for path in self.predicate.accessed_paths()}


class SelectNode(PlanNode):
    """Projects each item to the given expressions (Tab. 5 select rule)."""

    op_type = "select"

    def __init__(self, oid: int, child: PlanNode, projections: Sequence[Expression]):
        if not projections:
            raise PlanError("select needs at least one projection")
        super().__init__(oid, (child,))
        self.projections: tuple[Expression, ...] = tuple(projections)
        names = [projection.output_name() for projection in self.projections]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise PlanError(f"duplicate output attributes in select: {sorted(duplicates)}")
        self.output_names: tuple[str, ...] = tuple(names)

    def label(self) -> str:
        return "select " + ", ".join(self.output_names)

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        paths: set[Path] = set()
        for projection in self.projections:
            paths |= {path.schematic() for path in projection.accessed_paths()}
        return paths

    def manipulation_pairs(self) -> list[tuple[Path, Path]]:
        pairs: list[tuple[Path, Path]] = []
        for projection, name in zip(self.projections, self.output_names):
            pairs.extend(projection.manipulation_pairs(Path().child(name)))
        return pairs


class MapNode(PlanNode):
    """Applies an arbitrary item-level function (Tab. 5: A = M = undefined)."""

    op_type = "map"

    def __init__(self, oid: int, child: PlanNode, fn: Callable[[DataItem], Any], name: str = "udf"):
        super().__init__(oid, (child,))
        self.fn = fn
        self.name = name

    def label(self) -> str:
        return f"map {self.name}"


class JoinNode(PlanNode):
    """Inner join on a boolean condition over both inputs (Tab. 5 join rule).

    The result item is the attribute concatenation ``<i, j>``; attribute
    names must therefore be disjoint across the two inputs.
    """

    op_type = "join"

    def __init__(self, oid: int, left: PlanNode, right: PlanNode, condition: Expression):
        super().__init__(oid, (left, right))
        self.condition = condition

    def label(self) -> str:
        return f"join on {self.condition}"

    def condition_paths(self) -> set[Path]:
        """All schema-level paths the condition accesses (both sides)."""
        return {path.schematic() for path in self.condition.accessed_paths()}


class UnionNode(PlanNode):
    """Bag union of two schema-compatible inputs (Tab. 5: A = M = empty)."""

    op_type = "union"

    def __init__(self, oid: int, left: PlanNode, right: PlanNode):
        super().__init__(oid, (left, right))


class FlattenNode(PlanNode):
    """Unnests a collection attribute into a new attribute (Tab. 5 flatten).

    For each element ``j`` at position ``pos`` of ``item.a_col``, emits
    ``<item, a_new: j>``.  With ``outer=True``, items whose collection is
    empty or null survive with ``a_new = None`` (SparkSQL's
    ``explode_outer``); the default drops them, like ``explode``.
    """

    op_type = "flatten"

    def __init__(
        self,
        oid: int,
        child: PlanNode,
        col_path: Path | str,
        new_name: str,
        outer: bool = False,
    ):
        super().__init__(oid, (child,))
        self.col_path = parse_path(col_path) if isinstance(col_path, str) else col_path
        if self.col_path.is_empty():
            raise PlanError("flatten needs a collection path")
        if not new_name:
            raise PlanError("flatten needs a new attribute name")
        self.new_name = new_name
        self.outer = outer
        self.element_path = collection_element_path(self.col_path)

    def label(self) -> str:
        return f"flatten {self.col_path} -> {self.new_name}"

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        return {self.element_path}

    def manipulation_pairs(self) -> list[tuple[Path, Path]]:
        return [(self.element_path, Path().child(self.new_name))]


class AggregateNode(PlanNode):
    """GroupBy plus aggregation (Tab. 5 grouping and aggregation rules).

    ``keys`` are grouping expressions; each key becomes an output attribute
    that holds the group's (unique) key value.  ``aggregates`` mix scalar
    functions (count, sum, ...) and nested collectors (collect_list,
    collect_set).  For nested collectors, the i-th input item of a group
    produced the i-th element of the output collection -- the positional
    correspondence the aggregation backtracing (Alg. 4) exploits.
    """

    op_type = "aggregate"

    def __init__(
        self,
        oid: int,
        child: PlanNode,
        keys: Sequence[Any],
        aggregates: Sequence[AggregateExpr],
    ):
        if not aggregates:
            raise PlanError("aggregation needs at least one aggregate function")
        super().__init__(oid, (child,))
        self.keys: tuple[Expression, ...] = tuple(as_expression(key) for key in keys)
        self.aggregates: tuple[AggregateExpr, ...] = tuple(aggregates)
        names = [key.output_name() for key in self.keys]
        names.extend(aggregate.output_name() for aggregate in self.aggregates)
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise PlanError(f"duplicate output attributes in aggregation: {sorted(duplicates)}")
        self.key_names: tuple[str, ...] = tuple(key.output_name() for key in self.keys)

    def label(self) -> str:
        keys = ", ".join(self.key_names)
        aggs = ", ".join(str(aggregate) for aggregate in self.aggregates)
        return f"groupBy({keys}).agg({aggs})"

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        paths: set[Path] = set()
        for key in self.keys:
            paths |= {path.schematic() for path in key.accessed_paths()}
        for aggregate in self.aggregates:
            paths |= {path.schematic() for path in aggregate.accessed_paths()}
        return paths

    def manipulation_pairs(self) -> list[tuple[Path, Path]]:
        """Map aggregated input paths to the new output attributes.

        Nested collectors map into the elements of the new collection
        (``tweet -> tweets[pos]``); scalar aggregates map to the plain output
        attribute.  Group keys pass through unchanged and are therefore
        recorded in ``A`` only (matching Fig. 2, where grouping *accesses*
        the ``user`` subtree but does not manipulate it).
        """
        pairs: list[tuple[Path, Path]] = []
        for aggregate in self.aggregates:
            out_name = aggregate.output_name()
            if aggregate.is_nested:
                out_path = Path().child(out_name, POS)
                if aggregate.column.is_projection():
                    # A struct collector maps each constituent input path to
                    # its field inside the collection's elements, a plain
                    # column collector maps the column to the element itself.
                    pairs.extend(
                        (in_path.schematic(), mapped)
                        for in_path, mapped in aggregate.column.manipulation_pairs(out_path)
                    )
                    continue
            else:
                out_path = Path().child(out_name)
            for in_path in sorted(aggregate.accessed_paths(), key=str):
                pairs.append((in_path.schematic(), out_path))
        for key, name in zip(self.keys, self.key_names):
            if not key.is_projection():
                continue
            key_pairs = key.manipulation_pairs(Path().child(name))
            for in_path, out_path in key_pairs:
                if in_path != out_path:
                    # A renaming key restructures the data; identity
                    # pass-through keys do not (access only).
                    pairs.append((in_path, out_path))
        return pairs


class DistinctNode(PlanNode):
    """Removes duplicate items (bag -> set semantics).

    Provenance-wise a distinct behaves like a grouping on the whole item:
    *every* duplicate input contributes to the surviving output item, so the
    id associations take the aggregation shape of Tab. 6, and the operator
    accesses every top-level attribute (it compares whole items).
    """

    op_type = "distinct"

    def __init__(self, oid: int, child: PlanNode):
        super().__init__(oid, (child,))

    def label(self) -> str:
        return "distinct"


class SortNode(PlanNode):
    """Globally orders items by key expressions.

    Sorting rearranges items but neither drops nor restructures them:
    ``M`` is empty and the sort keys are *accessed* -- they influence every
    result position without contributing data.
    """

    op_type = "sort"

    def __init__(
        self,
        oid: int,
        child: PlanNode,
        keys: Sequence[Any],
        descending: bool = False,
    ):
        if not keys:
            raise PlanError("sort needs at least one key expression")
        super().__init__(oid, (child,))
        self.keys: tuple[Expression, ...] = tuple(as_expression(key) for key in keys)
        self.descending = descending

    def label(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"sort {', '.join(str(key) for key in self.keys)} {direction}"

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        paths: set[Path] = set()
        for key in self.keys:
            paths |= {path.schematic() for path in key.accessed_paths()}
        return paths


class LimitNode(PlanNode):
    """Keeps the first *n* items (in the dataset's deterministic order)."""

    op_type = "limit"

    def __init__(self, oid: int, child: PlanNode, n: int):
        if n < 0:
            raise PlanError(f"limit must be non-negative, got {n}")
        super().__init__(oid, (child,))
        self.n = n

    def label(self) -> str:
        return f"limit {self.n}"


class WithColumnNode(PlanNode):
    """Adds (or replaces) one attribute computed from the item.

    All other attributes pass through untouched (like a filter's structure
    preservation); only the new attribute carries manipulation pairs, which
    map each accessed input path to it so backtracing reaches the inputs of
    the derived value.
    """

    op_type = "with_column"

    def __init__(self, oid: int, child: PlanNode, name: str, expression: Any):
        if not name:
            raise PlanError("with_column needs a non-empty attribute name")
        super().__init__(oid, (child,))
        self.name = name
        self.expression: Expression = as_expression(expression)

    def label(self) -> str:
        return f"with_column {self.name} = {self.expression}"

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        return {path.schematic() for path in self.expression.accessed_paths()}

    def manipulation_pairs(self) -> list[tuple[Path, Path]]:
        return self.expression.manipulation_pairs(Path().child(self.name))
