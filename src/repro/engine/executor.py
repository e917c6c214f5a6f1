"""The executor: compile, optimize, run.

The seed executor was a monolithic operator-at-a-time interpreter.  It is now
split into two layers (mirroring the classic logical/physical separation):

1. :mod:`repro.engine.optimizer` rewrites the logical plan (filter pushdown,
   projection pruning, operator fusion) and compiles it into a
   :class:`~repro.engine.physical.PhysicalPlan` -- an ordered list of stages.
2. This module executes the stages in order, serially, once, on the calling
   thread (DESIGN.md Sec. 12 records why there is no scheduler and no
   retry).  Every operator output is one list of rows.  Source scans and
   wide stages (join, aggregate, union, distinct, sort, limit) run the
   seed's handler logic; **fused stages** run their narrow-operator chain
   over the input's item list without building a row list per operator.

Provenance capture is no longer hard-wired: the executor emits events to
:class:`~repro.engine.hooks.CaptureHook` instances (structural capture,
lineage-only baseline, metrics).  The legacy ``capture`` / ``lineage_only``
flags are still accepted and translate to the corresponding hooks.

Equivalence with the seed path is an invariant, not an accident: stages run
in the logical walk order, a fused chain assigns provenance ids operator by
operator from each operator's trace (the seed's global id sequence), and
schema handling (propagation vs ``SCHEMA_SAMPLE`` inference) follows the
seed rules per operator.  Rows are ``(pid, item)`` pairs; ``pid`` is
``None`` when no hook needs ids, so the plain path carries no provenance
cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.paths import Path
from repro.core.store import ProvenanceStoreProtocol
from repro.engine.config import EngineConfig
from repro.engine.expressions import BinaryExpr, ColumnExpr, Expression
from repro.engine.hooks import (
    CaptureHook,
    MetricsHook,
    hooks_for,
    provenance_store,
)
from repro.engine.metrics import ExecutionMetrics, StageMetrics
from repro.engine.optimizer import plan_physical
from repro.engine.physical import (
    SCHEMA_SAMPLE,
    FusedStage,
    NarrowOp,
    PhysicalPlan,
    ReadStage,
    Stage,
    WideStage,
)
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    JoinNode,
    LimitNode,
    PlanNode,
    SortNode,
    UnionNode,
)
from repro.errors import ExecutionError, PlanError, SchemaMismatchError
from repro.obs.tracer import timed
from repro.nested.schema import Schema, infer_schema
from repro.nested.types import StructType
from repro.nested.values import DataItem

__all__ = ["Executor", "ExecutionResult", "SCHEMA_SAMPLE"]

Row = tuple[Any, DataItem]  # (pid or None, item)

#: Per-operator stat rows a stage runner reports: ``(node, rows_in, rows_out)``
#: (``rows_in`` is ``None`` except for sources, matching the seed metrics).
_OpStats = list[tuple[PlanNode, int | None, int]]


class ExecutionResult:
    """The outcome of executing one plan: rows, schema, provenance, metrics."""

    def __init__(
        self,
        root: PlanNode,
        rows: list[Row],
        schema: Schema,
        store: ProvenanceStoreProtocol | None,
        metrics: ExecutionMetrics,
        physical: PhysicalPlan,
    ):
        self.root = root
        self._rows = rows
        self.schema = schema
        #: Captured provenance, or ``None`` when capture was disabled.
        self.store = store
        self.metrics = metrics
        #: The physical plan that produced this result.
        self.physical = physical

    def rows(self) -> list[Row]:
        """Return all ``(pid, item)`` rows in deterministic order."""
        return list(self._rows)

    def items(self) -> list[DataItem]:
        """Return the result data items (provenance ids stripped)."""
        return [item for _, item in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        captured = "captured" if self.store is not None else "plain"
        return f"ExecutionResult({len(self)} rows, {captured})"


class Executor:
    """Executes one plan DAG; create a fresh instance per run.

    ``Executor(capture=True)`` keeps its seed meaning; the richer form
    passes an :class:`EngineConfig` (optimizer rules) and/or an
    explicit list of capture hooks.
    """

    def __init__(
        self,
        capture: bool = False,
        lineage_only: bool = False,
        *,
        config: EngineConfig | None = None,
        hooks: Sequence[CaptureHook] | None = None,
    ):
        self._config = config if config is not None else EngineConfig.from_env()
        hook_list = list(hooks) if hooks is not None else hooks_for(capture, lineage_only)
        metrics_hook = next(
            (hook for hook in hook_list if isinstance(hook, MetricsHook)), None
        )
        if metrics_hook is None:
            metrics_hook = MetricsHook()
            hook_list.append(metrics_hook)
        self._hooks: tuple[CaptureHook, ...] = tuple(hook_list)
        self._metrics = metrics_hook.metrics
        #: Whether any hook needs per-row provenance ids (the seed ``capture``).
        self._capturing = any(hook.needs_ids for hook in hook_list)
        self._store = provenance_store(hook_list)
        self._next_id = 1
        self._rows: dict[int, list[Row]] = {}
        self._schemas: dict[int, Schema] = {}

    @property
    def config(self) -> EngineConfig:
        return self._config

    # -- public entry --------------------------------------------------------

    def compile(self, root: PlanNode) -> PhysicalPlan:
        """Optimize and compile *root* without executing it (``repro explain``)."""
        return plan_physical(root, self._config, self._hooks)

    def execute(self, root: PlanNode) -> ExecutionResult:
        """Execute the plan rooted at *root* and return its result."""
        physical = self.compile(root)
        with timed(
            "run",
            "run",
            optimize=self._config.optimize,
            capture=self._capturing,
            stages=len(physical.stages),
        ) as run_span:
            for index, stage in enumerate(physical.stages):
                self._execute_stage(index, stage)
        self._metrics.total_seconds = run_span.duration
        self._metrics.publish()
        root_oid = physical.root_oid
        return ExecutionResult(
            root,
            self._rows[root_oid],
            self._schemas[root_oid],
            self._store,
            self._metrics,
            physical=physical,
        )

    # -- stage driver --------------------------------------------------------

    def _execute_stage(self, index: int, stage: Stage) -> None:
        with timed(
            f"stage-{index} {stage.kind}", "stage", label=stage.label()
        ) as stage_span:
            if isinstance(stage, ReadStage):
                rows_in, rows_out, op_stats = self._run_read_stage(stage)
            elif isinstance(stage, FusedStage):
                rows_in, rows_out, op_stats = self._run_fused_stage(stage)
            else:
                assert isinstance(stage, WideStage)
                rows_in, rows_out, op_stats = self._run_wide_stage(stage)
            stage_span.set(rows_in=rows_in, rows_out=rows_out)
        for node, node_rows_in, node_rows_out in op_stats:
            slot = self._metrics.operator(node.oid, node.op_type, node.label())
            if node_rows_in is not None:
                slot.rows_in = node_rows_in
            slot.rows_out = node_rows_out
        stage_metrics = StageMetrics(index, stage.kind, stage.label(), stage.logical_oids())
        stage_metrics.span_id = stage_span.span_id
        stage_metrics.rows_in = rows_in
        stage_metrics.rows_out = rows_out
        stage_metrics.seconds = stage_span.duration
        for hook in self._hooks:
            hook.on_stage(stage_metrics)

    def _finish(self, oid: int, rows: list[Row], schema: Schema) -> int:
        self._rows[oid] = rows
        self._schemas[oid] = schema
        return len(rows)

    def _fresh_id(self) -> int:
        assigned = self._next_id
        self._next_id += 1
        return assigned

    def _schema_of(self, items: Iterable[DataItem]) -> Schema:
        """Infer a schema from the first ``SCHEMA_SAMPLE`` of *items*."""
        sample = list(islice(items, SCHEMA_SAMPLE))
        if not sample:
            return Schema(StructType())
        return infer_schema(sample)

    @contextmanager
    def _capture(self, node: PlanNode) -> Iterator[None]:
        """Run the body as *node*'s capture work: one ``capture`` span whose
        duration adds to the operator's ``capture_seconds``."""
        with timed(f"capture op-{node.oid}", "capture") as clock:
            yield
        slot = self._metrics.operator(node.oid, node.op_type, node.label())
        slot.capture_seconds += clock.duration

    def _notify(self, node, inputs, manipulations, associations) -> None:
        for hook in self._hooks:
            hook.on_operator(node, inputs, manipulations, associations)

    def _emit_operator(self, node, inputs, manipulations, associations) -> None:
        """Hand one operator's provenance to the hooks, timed as capture."""
        with self._capture(node):
            self._notify(node, inputs, manipulations, associations)

    def _child_state(self, node: PlanNode, index: int = 0) -> tuple[list[Row], Schema]:
        child = node.children[index]
        return self._rows[child.oid], self._schemas[child.oid]

    # -- source scans --------------------------------------------------------

    def _run_read_stage(self, stage: ReadStage) -> tuple[int, int, _OpStats]:
        node = stage.node
        items = node.loader()
        rows: list[Row] = []
        if self._capturing:
            with self._capture(node):
                associations = ReadAssociations()
                by_id: dict[int, DataItem] = {}
                for item in items:
                    pid = self._fresh_id()
                    associations.add(pid)
                    by_id[pid] = item
                    rows.append((pid, item))
                self._notify(node, (), (), associations)
                for hook in self._hooks:
                    hook.on_source(node, by_id)
        else:
            rows = [(None, item) for item in items]
        total = self._finish(node.oid, rows, self._schema_of(item for _, item in rows))
        return total, total, [(node, total, total)]

    # -- fused pipelines -----------------------------------------------------

    def _run_fused_stage(self, stage: FusedStage) -> tuple[int, int, _OpStats]:
        """Run the chain once, operator by operator, over one item list.

        Each operator's input schema is checked before it runs (a flatten's
        name clash), and a rebuilding operator's output schema is inferred
        from its first ``SCHEMA_SAMPLE`` items -- the seed's rules.
        """
        in_rows = self._rows[stage.input_oid]
        schema = self._schemas[stage.input_oid]
        items = [item for _, item in in_rows]
        ids = [pid for pid, _ in in_rows] if self._capturing else []
        op_stats: _OpStats = []
        for op in stage.ops:
            op.check_input_schema(schema)
            traced = self._capturing and op.registers
            out, entries = op.apply(items, traced)
            if traced:
                ids = self._assign_ids(op, ids, entries, schema)
            next_schema = op.propagate_schema(schema)
            schema = next_schema if next_schema is not None else self._schema_of(out)
            items = out
            if op.node is not None:
                op_stats.append((op.node, None, len(out)))
        if self._capturing:
            rows = list(zip(ids, items))
        else:
            rows = [(None, item) for item in items]
        rows_out = self._finish(stage.output_oid, rows, schema)
        return len(in_rows), rows_out, op_stats

    def _assign_ids(
        self, op: NarrowOp, in_ids: list[int], entries: Any, schema: Schema
    ) -> list[int]:
        """Give *op*'s outputs fresh ids from its trace and register it.

        *entries* decodes by ``op.entry_kind``: ``None`` (1:1), kept input
        indices (filter), or ``(input index, position)`` pairs (flatten).
        Returns the output ids in output order.
        """
        node = op.node
        assert node is not None
        with self._capture(node):
            associations = op.new_associations()
            out_ids: list[int] = []
            if op.entry_kind == "identity":
                for src_id in in_ids:
                    out_id = self._fresh_id()
                    associations.add(src_id, out_id)
                    out_ids.append(out_id)
            elif op.entry_kind == "filter":
                for src_index in entries:
                    out_id = self._fresh_id()
                    associations.add(in_ids[src_index], out_id)
                    out_ids.append(out_id)
            else:  # flatten: (source index, 1-based position) pairs
                for src_index, element_pos in entries:
                    out_id = self._fresh_id()
                    associations.add(in_ids[src_index], element_pos, out_id)
                    out_ids.append(out_id)
            accessed, manipulations = op.input_spec()
            spec = (node.children[0].oid, accessed, schema)
            self._notify(node, (spec,), manipulations, associations)
        return out_ids

    # -- wide stages (joins, groupings, global order, multi-input merges) ---

    def _run_wide_stage(self, stage: WideStage) -> tuple[int, int, _OpStats]:
        node = stage.node
        handler = self._WIDE_HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError(f"no handler for plan node {type(node).__name__}")
        rows_in = sum(len(self._rows[child.oid]) for child in node.children)
        rows, schema = handler(self, node)
        rows_out = self._finish(node.oid, rows, schema)
        return rows_in, rows_out, [(node, None, rows_out)]

    def _run_union(self, node: UnionNode) -> tuple[list[Row], Schema]:
        left_rows, left_schema = self._child_state(node, 0)
        right_rows, right_schema = self._child_state(node, 1)
        try:
            schema = left_schema.merged_with(right_schema)
        except Exception as exc:
            raise SchemaMismatchError(f"union over incompatible schemas: {exc}") from exc
        if not self._capturing:
            return left_rows + right_rows, schema
        associations = BinaryAssociations()
        unioned: list[Row] = []
        for pid, item in left_rows:
            out_id = self._fresh_id()
            associations.add(pid, None, out_id)
            unioned.append((out_id, item))
        for pid, item in right_rows:
            out_id = self._fresh_id()
            associations.add(None, pid, out_id)
            unioned.append((out_id, item))
        inputs = (
            (node.children[0].oid, frozenset(), left_schema),
            (node.children[1].oid, frozenset(), right_schema),
        )
        self._emit_operator(node, inputs, (), associations)
        return unioned, schema

    def _run_join(self, node: JoinNode) -> tuple[list[Row], Schema]:
        left_rows, left_schema = self._child_state(node, 0)
        right_rows, right_schema = self._child_state(node, 1)
        clash = set(left_schema.attribute_names()) & set(right_schema.attribute_names())
        if clash:
            raise PlanError(
                f"join inputs share attribute names {sorted(clash)}; rename before joining"
            )
        associations = BinaryAssociations() if self._capturing else None
        equi_keys = _extract_equi_keys(node.condition, left_schema, right_schema)
        out_rows: list[Row] = []

        def emit(left_row: Row, right_row: Row) -> None:
            left_pid, left_item = left_row
            right_pid, right_item = right_row
            out_item = left_item.merged_with(right_item)
            if associations is not None:
                out_id = self._fresh_id()
                associations.add(left_pid, right_pid, out_id)
                out_rows.append((out_id, out_item))
            else:
                out_rows.append((None, out_item))

        if equi_keys is not None:
            # Hash join: one build table over the left input, probed by the
            # right input in arrival order.
            left_keys, right_keys = equi_keys
            build: dict[tuple[Any, ...], list[Row]] = {}
            for row in left_rows:
                key = tuple(expr.evaluate(row[1]) for expr in left_keys)
                build.setdefault(key, []).append(row)
            for right_row in right_rows:
                key = tuple(expr.evaluate(right_row[1]) for expr in right_keys)
                for left_row in build.get(key, ()):
                    emit(left_row, right_row)
        else:
            for left_row in left_rows:
                for right_row in right_rows:
                    merged = left_row[1].merged_with(right_row[1])
                    if node.condition.evaluate(merged):
                        emit(left_row, right_row)
        if associations is not None:
            condition_paths = node.condition_paths()
            left_accessed = {path for path in condition_paths if left_schema.contains(path)}
            right_accessed = {path for path in condition_paths if right_schema.contains(path)}
            manipulations = [
                (Path().child(name), Path().child(name))
                for name in left_schema.attribute_names()
            ]
            manipulations.extend(
                (Path().child(name), Path().child(name))
                for name in right_schema.attribute_names()
            )
            inputs = (
                (node.children[0].oid, left_accessed, left_schema),
                (node.children[1].oid, right_accessed, right_schema),
            )
            self._emit_operator(node, inputs, manipulations, associations)
        return out_rows, self._schema_of(item for _, item in out_rows)

    def _run_aggregate(self, node: AggregateNode) -> tuple[list[Row], Schema]:
        child_rows, child_schema = self._child_state(node)
        associations = AggregationAssociations() if self._capturing else None
        # Groups in order of their first row's arrival.
        groups: dict[tuple[Any, ...], list[Row]] = {}
        for row in child_rows:
            group = tuple(key.evaluate(row[1]) for key in node.keys)
            groups.setdefault(group, []).append(row)
        out_rows: list[Row] = []
        for key_values, members in groups.items():
            fields: list[tuple[str, Any]] = list(zip(node.key_names, key_values))
            for aggregate in node.aggregates:
                values = [aggregate.column.evaluate(item) for _, item in members]
                fields.append((aggregate.output_name(), aggregate.apply(values)))
            out_item = DataItem(fields)
            if associations is not None:
                out_id = self._fresh_id()
                associations.add([pid for pid, _ in members], out_id)
                out_rows.append((out_id, out_item))
            else:
                out_rows.append((None, out_item))
        if associations is not None:
            spec = (node.children[0].oid, node.accessed_paths(0), child_schema)
            self._emit_operator(node, (spec,), node.manipulation_pairs(), associations)
        return out_rows, self._schema_of(item for _, item in out_rows)

    def _run_distinct(self, node: DistinctNode) -> tuple[list[Row], Schema]:
        rows, child_schema = self._child_state(node)
        groups: dict[DataItem, list[Any]] = {}
        for pid, item in rows:
            groups.setdefault(item, []).append(pid)
        associations = AggregationAssociations() if self._capturing else None
        distinct_rows: list[Row] = []
        for item, pids in groups.items():
            if associations is not None:
                out_id = self._fresh_id()
                associations.add(pids, out_id)
                distinct_rows.append((out_id, item))
            else:
                distinct_rows.append((None, item))
        if associations is not None:
            # Comparing whole items accesses every top-level attribute.
            accessed = {Path().child(name) for name in child_schema.attribute_names()}
            spec = (node.children[0].oid, accessed, child_schema)
            self._emit_operator(node, (spec,), (), associations)
        return distinct_rows, child_schema

    def _run_sort(self, node: SortNode) -> tuple[list[Row], Schema]:
        rows, child_schema = self._child_state(node)

        def sort_key(row: Row) -> tuple:
            # None sorts first; mixed types are kept apart by type name.
            values = []
            for key in node.keys:
                value = key.evaluate(row[1])
                values.append((value is not None, type(value).__name__, value))
            return tuple(values)

        ordered = sorted(rows, key=sort_key, reverse=node.descending)
        return self._reassign_rows(node, ordered, child_schema)

    def _run_limit(self, node: LimitNode) -> tuple[list[Row], Schema]:
        rows, child_schema = self._child_state(node)
        return self._reassign_rows(node, rows[: node.n], child_schema)

    def _reassign_rows(
        self, node: PlanNode, rows: list[Row], child_schema: Schema
    ) -> tuple[list[Row], Schema]:
        """Shared tail of sort/limit: fresh unary associations over *rows*."""
        if not self._capturing:
            return rows, child_schema
        associations = UnaryAssociations()
        out_rows: list[Row] = []
        for pid, item in rows:
            out_id = self._fresh_id()
            associations.add(pid, out_id)
            out_rows.append((out_id, item))
        spec = (node.children[0].oid, node.accessed_paths(0), child_schema)
        self._emit_operator(node, (spec,), [], associations)
        return out_rows, child_schema

    _WIDE_HANDLERS: dict[type, Any] = {}


Executor._WIDE_HANDLERS = {
    UnionNode: Executor._run_union,
    JoinNode: Executor._run_join,
    AggregateNode: Executor._run_aggregate,
    DistinctNode: Executor._run_distinct,
    SortNode: Executor._run_sort,
    LimitNode: Executor._run_limit,
}


def _extract_equi_keys(
    condition: Expression, left_schema: Schema, right_schema: Schema
) -> tuple[list[Expression], list[Expression]] | None:
    """Extract hash-join keys from a conjunction of column equalities.

    Returns ``(left_keys, right_keys)`` if the whole condition is a
    conjunction of ``col == col`` terms whose sides resolve unambiguously to
    the two inputs; otherwise ``None`` (the join falls back to a nested-loop
    evaluation of the condition on the merged item).
    """
    conjuncts: list[Expression] = []

    def split(expr: Expression) -> bool:
        if isinstance(expr, BinaryExpr) and expr.name == "and":
            return split(expr.left) and split(expr.right)
        conjuncts.append(expr)
        return True

    split(condition)
    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryExpr) and conjunct.name == "=="):
            return None
        sides = [conjunct.left, conjunct.right]
        if not all(isinstance(side, ColumnExpr) for side in sides):
            return None
        first, second = sides
        assert isinstance(first, ColumnExpr) and isinstance(second, ColumnExpr)
        first_left = left_schema.contains(first.path.schematic())
        first_right = right_schema.contains(first.path.schematic())
        second_left = left_schema.contains(second.path.schematic())
        second_right = right_schema.contains(second.path.schematic())
        if first_left and second_right and not (first_right or second_left):
            left_keys.append(first)
            right_keys.append(second)
        elif first_right and second_left and not (first_left or second_right):
            left_keys.append(second)
            right_keys.append(first)
        else:
            return None
    return (left_keys, right_keys) if left_keys else None
