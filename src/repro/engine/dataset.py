"""The Dataset API: a DataFrame-like, lazily evaluated view on a plan.

A :class:`Dataset` wraps a logical plan node and a
:class:`~repro.engine.session.Session`.  Transformations
(``filter``/``select``/``map``/``join``/``union``/``flatten``/``group_by``)
build new plan nodes without executing anything; actions (``collect``,
``count``, ``execute``) run the plan.  This mirrors the paper's execution
model (Def. 4.6) and the SparkSQL surface Pebble wraps.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.engine.executor import ExecutionResult, Executor
from repro.engine.expressions import AggregateExpr, Expression, as_expression
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
from repro.errors import PlanError
from repro.nested.values import DataItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import Session

__all__ = ["Dataset", "GroupedDataset"]


class Dataset:
    """A lazily evaluated nested dataset."""

    def __init__(self, session: "Session", plan: PlanNode):
        self.session = session
        self.plan = plan

    # -- transformations ------------------------------------------------------

    def _derive(self, plan: PlanNode) -> "Dataset":
        return Dataset(self.session, plan)

    def filter(self, predicate: Expression) -> "Dataset":
        """Keep items for which *predicate* evaluates truthy."""
        return self._derive(FilterNode(self.session.next_oid(), self.plan, predicate))

    def where(self, predicate: Expression) -> "Dataset":
        """Alias of :meth:`filter` (SparkSQL parlance)."""
        return self.filter(predicate)

    def select(self, *projections: Any) -> "Dataset":
        """Project each item to the given expressions or column names."""
        exprs = [as_expression(projection) for projection in projections]
        return self._derive(SelectNode(self.session.next_oid(), self.plan, exprs))

    def map(self, fn: Callable[[DataItem], Any], name: str = "udf") -> "Dataset":
        """Apply an arbitrary item-level function (provenance: A = M = unknown)."""
        return self._derive(MapNode(self.session.next_oid(), self.plan, fn, name))

    def join(self, other: "Dataset", condition: Expression) -> "Dataset":
        """Inner join with *other* on a boolean condition."""
        self._check_same_session(other)
        return self._derive(JoinNode(self.session.next_oid(), self.plan, other.plan, condition))

    def union(self, other: "Dataset") -> "Dataset":
        """Bag union with a schema-compatible dataset."""
        self._check_same_session(other)
        return self._derive(UnionNode(self.session.next_oid(), self.plan, other.plan))

    def flatten(self, col_path: str, new_name: str, outer: bool = False) -> "Dataset":
        """Unnest the collection at *col_path* into attribute *new_name*."""
        return self._derive(
            FlattenNode(self.session.next_oid(), self.plan, col_path, new_name, outer)
        )

    def group_by(self, *keys: Any) -> "GroupedDataset":
        """Group by the given key expressions; follow with ``.agg(...)``."""
        return GroupedDataset(self, list(keys))

    def distinct(self) -> "Dataset":
        """Remove duplicate items (bag -> set); all duplicates contribute."""
        return self._derive(DistinctNode(self.session.next_oid(), self.plan))

    def sort(self, *keys: Any, descending: bool = False) -> "Dataset":
        """Globally order by key expressions (provenance: keys are accessed)."""
        return self._derive(
            SortNode(self.session.next_oid(), self.plan, list(keys), descending)
        )

    def limit(self, n: int) -> "Dataset":
        """Keep the first *n* items of the dataset's deterministic order."""
        return self._derive(LimitNode(self.session.next_oid(), self.plan, n))

    def with_column(self, name: str, expression: Any) -> "Dataset":
        """Add (or replace) one attribute computed from each item."""
        return self._derive(
            WithColumnNode(self.session.next_oid(), self.plan, name, expression)
        )

    # -- actions ---------------------------------------------------------------

    def execute(self, capture: bool = False) -> ExecutionResult:
        """Run the plan under the session's engine config; ``capture=True``
        fills the result's provenance store."""
        executor = Executor(capture=capture, config=self.session.config)
        return executor.execute(self.plan)

    def collect(self) -> list[DataItem]:
        """Run the plan and return the result items."""
        return self.execute().items()

    def count(self) -> int:
        """Run the plan and return the number of result items."""
        return len(self.execute())

    def take(self, n: int) -> list[DataItem]:
        """Run the plan and return the first *n* result items."""
        return self.collect()[:n]

    def show(self, n: int = 20) -> str:
        """Render the first *n* items as text (and return the text)."""
        lines = [repr(item) for item in self.take(n)]
        rendered = "\n".join(lines)
        print(rendered)
        return rendered

    def explain(self) -> str:
        """Return a textual rendering of the logical plan DAG."""
        lines = []
        for node in self.plan.walk():
            children = ", ".join(str(child.oid) for child in node.children) or "-"
            lines.append(f"[{node.oid}] {node.label()}  <- {children}")
        return "\n".join(lines)

    def _check_same_session(self, other: "Dataset") -> None:
        if other.session is not self.session:
            raise PlanError("cannot combine datasets from different sessions")

    def __repr__(self) -> str:
        return f"Dataset(plan=[{self.plan.oid}] {self.plan.label()})"


class GroupedDataset:
    """Intermediate result of ``group_by``; call :meth:`agg` to aggregate."""

    def __init__(self, dataset: Dataset, keys: Sequence[Any]):
        self._dataset = dataset
        self._keys = list(keys)

    def agg(self, *aggregates: AggregateExpr) -> Dataset:
        """Aggregate each group with the given functions (Tab. 5 rules)."""
        if not all(isinstance(aggregate, AggregateExpr) for aggregate in aggregates):
            raise PlanError("agg(...) expects aggregate expressions (count, collect_list, ...)")
        node = AggregateNode(
            self._dataset.session.next_oid(),
            self._dataset.plan,
            self._keys,
            list(aggregates),
        )
        return Dataset(self._dataset.session, node)
