"""The executor: compile, optimize, run.

The seed executor was a monolithic operator-at-a-time interpreter.  It is now
split into two layers (mirroring the classic logical/physical separation):

1. :mod:`repro.engine.optimizer` rewrites the logical plan (filter pushdown,
   projection pruning, operator fusion) and compiles it into a
   :class:`~repro.engine.physical.PhysicalPlan` -- an ordered list of stages.
2. This module executes the stages in order.  Source scans and wide stages
   (join, aggregate, union, distinct, sort, limit) run the seed's handler
   logic; **fused stages** run their narrow-operator chain partition-at-a-time
   as independent per-partition tasks, serially, once, on the calling thread
   (DESIGN.md Sec. 12 records why there is no scheduler and no retry).

Provenance capture is no longer hard-wired: the executor emits events to
:class:`~repro.engine.hooks.CaptureHook` instances (structural capture,
lineage-only baseline, metrics).  The legacy ``capture`` / ``lineage_only``
flags are still accepted and translate to the corresponding hooks.

Equivalence with the seed path is an invariant, not an accident: stages run
in the logical walk order, fused chains assign provenance ids in a serial
finalisation pass that replays per-partition traces operator-by-operator
(reproducing the seed's global id sequence exactly), and schema handling
(propagation vs ``SCHEMA_SAMPLE`` inference) follows the seed rules
per operator.  Rows are ``(pid, item)`` pairs; ``pid`` is ``None`` when no
hook needs ids, so the plain path carries no provenance cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Sequence

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
    capture_spec,
    hooks_for,
    provenance_store,
)
from repro.engine.metrics import ExecutionMetrics, StageMetrics
from repro.engine.optimizer import plan_physical
from repro.engine.partition import concat_partitions, hash_partition, partition_rows
from repro.engine.physical import (
    SCHEMA_SAMPLE,
    FlattenOp,
    FusedStage,
    NarrowOp,
    PhysicalPlan,
    ReadStage,
    Stage,
    StageTask,
    WideStage,
)
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ReadNode,
    SortNode,
    UnionNode,
)
from repro.errors import ExecutionError, PlanError, SchemaMismatchError
from repro.obs.tracer import span, timed
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
        partitions: list[list[Row]],
        schema: Schema,
        store: ProvenanceStoreProtocol | None,
        metrics: ExecutionMetrics,
        physical: PhysicalPlan,
    ):
        self.root = root
        self.partitions = partitions
        self.schema = schema
        #: Captured provenance, or ``None`` when capture was disabled.
        self.store = store
        self.metrics = metrics
        #: The physical plan that produced this result.
        self.physical = physical

    def rows(self) -> list[Row]:
        """Return all ``(pid, item)`` rows in deterministic order."""
        return concat_partitions(self.partitions)

    def items(self) -> list[DataItem]:
        """Return the result data items (provenance ids stripped)."""
        return [item for _, item in self.rows()]

    def __len__(self) -> int:
        return sum(len(partition) for partition in self.partitions)

    def __repr__(self) -> str:
        captured = "captured" if self.store is not None else "plain"
        return f"ExecutionResult({len(self)} rows, {captured})"


class Executor:
    """Executes one plan DAG; create a fresh instance per run.

    ``Executor(n, capture=True)`` keeps its seed meaning; the richer form
    passes an :class:`EngineConfig` (optimizer rules) and/or an
    explicit list of capture hooks.
    """

    def __init__(
        self,
        num_partitions: int | None = None,
        capture: bool = False,
        lineage_only: bool = False,
        *,
        config: EngineConfig | None = None,
        hooks: Sequence[CaptureHook] | None = None,
    ):
        base = config if config is not None else EngineConfig.from_env()
        if num_partitions is not None:
            base = base.with_partitions(num_partitions)
        self._config = base
        self._num_partitions = base.num_partitions
        hook_list = list(hooks) if hooks is not None else hooks_for(capture, lineage_only)
        metrics_hook = next(
            (hook for hook in hook_list if isinstance(hook, MetricsHook)), None
        )
        if metrics_hook is None:
            metrics_hook = MetricsHook()
            hook_list.append(metrics_hook)
        self._hooks: tuple[CaptureHook, ...] = tuple(hook_list)
        self._metrics = metrics_hook.metrics
        #: Whether any hook needs per-row provenance ids (the seed ``capture``);
        #: this is the capture-hook spec shipped inside every ``StageTask``.
        self._capturing = capture_spec(hook_list)
        self._store = provenance_store(hook_list)
        self._next_id = 1
        self._partitions: dict[int, list[list[Row]]] = {}
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
            partitions=self._num_partitions,
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
            self._partitions[root_oid],
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
        stage_metrics.partition_rows = tuple(
            len(partition) for partition in self._partitions[stage.output_oid]
        )
        for hook in self._hooks:
            hook.on_stage(stage_metrics)

    def _finish(self, oid: int, partitions: list[list[Row]], schema: Schema) -> int:
        self._partitions[oid] = partitions
        self._schemas[oid] = schema
        return sum(len(partition) for partition in partitions)

    def _fresh_id(self) -> int:
        assigned = self._next_id
        self._next_id += 1
        return assigned

    def _schema_of(self, rows: list[Row]) -> Schema:
        sample = [item for _, item in rows[:SCHEMA_SAMPLE]]
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

    def _child_state(self, node: PlanNode, index: int = 0) -> tuple[list[list[Row]], Schema]:
        child = node.children[index]
        return self._partitions[child.oid], self._schemas[child.oid]

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
        total = self._finish(
            node.oid, partition_rows(rows, self._num_partitions), self._schema_of(rows)
        )
        return len(rows), total, [(node, len(rows), total)]

    # -- fused pipelines -----------------------------------------------------

    def _run_fused_stage(self, stage: FusedStage) -> tuple[int, int, _OpStats]:
        ops = stage.ops
        in_partitions = self._partitions[stage.input_oid]
        nparts = len(in_partitions)
        capturing = self._capturing
        stage_label = stage.label()
        sampling = [
            type(op).propagate_schema is NarrowOp.propagate_schema for op in ops
        ]

        # Segment the chain at flattens whose input schema is only known after
        # an earlier sampling operator has produced output: the name-clash
        # check (seed parity) needs that schema before the flatten may run.
        segments: list[list[int]] = []
        current: list[int] = []
        known = True
        for position, op in enumerate(ops):
            if isinstance(op, FlattenOp) and not known and current:
                segments.append(current)
                current = []
                known = True  # the barrier infers the schema
            current.append(position)
            if sampling[position]:
                known = False
        if current:
            segments.append(current)

        items_by_part: list[list[DataItem]] = [
            [item for _, item in partition] for partition in in_partitions
        ]
        rows_in = sum(len(items) for items in items_by_part)
        entries_by_part: list[list[Any]] = [[None] * len(ops) for _ in range(nparts)]
        counts: list[list[tuple[int, int]]] = [[(0, 0)] * len(ops) for _ in range(nparts)]
        samples: list[list[list[DataItem]]] = [
            [[] for _ in range(nparts)] for _ in ops
        ]
        schema_before: list[Schema] = [None] * len(ops)  # type: ignore[list-item]
        current_schema = self._schemas[stage.input_oid]

        for segment in segments:
            # Pre-checks over the statically trackable prefix of the segment
            # (only pure, structure-preserving ops precede a flatten here, so
            # raising before they run is unobservable -- the seed registered
            # their output but never surfaced it on the error path).
            schema: Schema | None = current_schema
            for position in segment:
                op = ops[position]
                if schema is not None:
                    op.check_input_schema(schema)
                    schema = op.propagate_schema(schema)

            tasks = [
                StageTask(
                    ops=tuple(ops[position] for position in segment),
                    sampling=tuple(sampling[position] for position in segment),
                    items=items_by_part[part],
                    capturing=capturing,
                    stage_label=stage_label,
                    part=part,
                )
                for part in range(nparts)
            ]
            # Serially, once, in submission order: the first failing
            # partition raises its own error.
            results = [task() for task in tasks]
            for part, result in enumerate(results):
                items_by_part[part] = result.items
                for offset, position in enumerate(segment):
                    entries_by_part[part][position] = result.entries[offset]
                    counts[part][position] = result.counts[offset]
                    if result.samples[offset] is not None:
                        samples[position][part] = result.samples[offset]

            # Runtime schemas along the executed segment: structure-preserving
            # ops propagate, rebuilding ops are inferred from the first
            # SCHEMA_SAMPLE outputs in partition order (the seed sample set).
            for position in segment:
                schema_before[position] = current_schema
                next_schema = ops[position].propagate_schema(current_schema)
                if next_schema is None:
                    sample_items: list[DataItem] = []
                    for part in range(nparts):
                        take = SCHEMA_SAMPLE - len(sample_items)
                        if take <= 0:
                            break
                        sample_items.extend(samples[position][part][:take])
                    next_schema = (
                        infer_schema(sample_items) if sample_items else Schema(StructType())
                    )
                current_schema = next_schema

        if capturing:
            in_pids = [[pid for pid, _ in partition] for partition in in_partitions]
            with span("capture-finalize", "capture", stage=stage_label):
                out_ids = self._finalize_fused(
                    ops, in_pids, entries_by_part, counts, schema_before
                )
            out_partitions = [
                list(zip(ids, items)) for ids, items in zip(out_ids, items_by_part)
            ]
        else:
            out_partitions = [
                [(None, item) for item in items] for items in items_by_part
            ]

        rows_out = self._finish(stage.output_oid, out_partitions, current_schema)
        op_stats: _OpStats = []
        for position, op in enumerate(ops):
            if op.node is not None:
                node_rows_out = sum(counts[part][position][1] for part in range(nparts))
                op_stats.append((op.node, None, node_rows_out))
        return rows_in, rows_out, op_stats

    def _finalize_fused(
        self,
        ops: list[NarrowOp],
        in_pids: list[list[int]],
        entries_by_part: list[list[Any]],
        counts: list[list[tuple[int, int]]],
        schema_before: list[Schema],
    ) -> list[list[int]]:
        """Serial id assignment: replay traces operator-by-operator.

        Iterating operators in chain order and partitions in order inside each
        operator reproduces the seed's global id sequence exactly, the
        sequence the operator-at-a-time path assigns.
        Returns the output id list per partition.
        """
        nparts = len(in_pids)
        frontier: list[list[int]] = in_pids
        for position, op in enumerate(ops):
            node = op.node
            if node is None or not op.registers:
                # Physical helper (prune keeps ids 1:1, limit-prefix truncates).
                frontier = [
                    ids[: counts[part][position][1]] for part, ids in enumerate(frontier)
                ]
                continue
            with self._capture(node):
                associations = op.new_associations()
                new_frontier: list[list[int]] = []
                for part in range(nparts):
                    in_ids = frontier[part]
                    out_ids: list[int] = []
                    if op.entry_kind == "identity":
                        for src_id in in_ids:
                            out_id = self._fresh_id()
                            associations.add(src_id, out_id)
                            out_ids.append(out_id)
                    elif op.entry_kind == "filter":
                        for src_index in entries_by_part[part][position]:
                            out_id = self._fresh_id()
                            associations.add(in_ids[src_index], out_id)
                            out_ids.append(out_id)
                    else:  # flatten: (source index, 1-based position) pairs
                        for src_index, element_pos in entries_by_part[part][position]:
                            out_id = self._fresh_id()
                            associations.add(in_ids[src_index], element_pos, out_id)
                            out_ids.append(out_id)
                    new_frontier.append(out_ids)
                frontier = new_frontier
                accessed, manipulations = op.input_spec()
                spec = (node.children[0].oid, accessed, schema_before[position])
                self._notify(node, (spec,), manipulations, associations)
        return frontier

    # -- wide stages (shuffles, global order, multi-input merges) ------------

    def _run_wide_stage(self, stage: WideStage) -> tuple[int, int, _OpStats]:
        node = stage.node
        handler = self._WIDE_HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError(f"no handler for plan node {type(node).__name__}")
        rows_in = sum(
            sum(len(partition) for partition in self._partitions[child.oid])
            for child in node.children
        )
        partitions, schema = handler(self, node)
        rows_out = self._finish(node.oid, partitions, schema)
        return rows_in, rows_out, [(node, None, rows_out)]

    def _run_union(self, node: UnionNode) -> tuple[list[list[Row]], Schema]:
        left_parts, left_schema = self._child_state(node, 0)
        right_parts, right_schema = self._child_state(node, 1)
        try:
            schema = left_schema.merged_with(right_schema)
        except Exception as exc:
            raise SchemaMismatchError(f"union over incompatible schemas: {exc}") from exc
        associations = BinaryAssociations() if self._capturing else None
        partitions: list[list[Row]] = []
        for partition in left_parts:
            unioned: list[Row] = []
            for pid, item in partition:
                if associations is not None:
                    out_id = self._fresh_id()
                    associations.add(pid, None, out_id)
                    unioned.append((out_id, item))
                else:
                    unioned.append((pid, item))
            partitions.append(unioned)
        for partition in right_parts:
            unioned = []
            for pid, item in partition:
                if associations is not None:
                    out_id = self._fresh_id()
                    associations.add(None, pid, out_id)
                    unioned.append((out_id, item))
                else:
                    unioned.append((pid, item))
            partitions.append(unioned)
        if associations is not None:
            inputs = (
                (node.children[0].oid, frozenset(), left_schema),
                (node.children[1].oid, frozenset(), right_schema),
            )
            self._emit_operator(node, inputs, (), associations)
        return partitions, schema

    def _run_join(self, node: JoinNode) -> tuple[list[list[Row]], Schema]:
        left_parts, left_schema = self._child_state(node, 0)
        right_parts, right_schema = self._child_state(node, 1)
        clash = set(left_schema.attribute_names()) & set(right_schema.attribute_names())
        if clash:
            raise PlanError(
                f"join inputs share attribute names {sorted(clash)}; rename before joining"
            )
        associations = BinaryAssociations() if self._capturing else None
        equi_keys = _extract_equi_keys(node.condition, left_schema, right_schema)
        out_partitions: list[list[Row]] = [[] for _ in range(self._num_partitions)]

        def emit(bucket: int, left_row: Row, right_row: Row) -> None:
            left_pid, left_item = left_row
            right_pid, right_item = right_row
            out_item = left_item.merged_with(right_item)
            if associations is not None:
                out_id = self._fresh_id()
                associations.add(left_pid, right_pid, out_id)
                out_partitions[bucket].append((out_id, out_item))
            else:
                out_partitions[bucket].append((None, out_item))

        if equi_keys is not None:
            left_keys, right_keys = equi_keys
            left_shuffled = hash_partition(
                concat_partitions(left_parts),
                self._num_partitions,
                lambda row: tuple(expr.evaluate(row[1]) for expr in left_keys),
            )
            right_shuffled = hash_partition(
                concat_partitions(right_parts),
                self._num_partitions,
                lambda row: tuple(expr.evaluate(row[1]) for expr in right_keys),
            )
            for bucket in range(self._num_partitions):
                build: dict[tuple[Any, ...], list[Row]] = {}
                for row in left_shuffled[bucket]:
                    key = tuple(expr.evaluate(row[1]) for expr in left_keys)
                    build.setdefault(key, []).append(row)
                for right_row in right_shuffled[bucket]:
                    key = tuple(expr.evaluate(right_row[1]) for expr in right_keys)
                    for left_row in build.get(key, ()):
                        emit(bucket, left_row, right_row)
        else:
            left_rows = concat_partitions(left_parts)
            right_rows = concat_partitions(right_parts)
            for index, left_row in enumerate(left_rows):
                bucket = index % self._num_partitions
                for right_row in right_rows:
                    merged = left_row[1].merged_with(right_row[1])
                    if node.condition.evaluate(merged):
                        emit(bucket, left_row, right_row)
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
        rows = concat_partitions(out_partitions)
        return out_partitions, self._schema_of(rows)

    def _run_aggregate(self, node: AggregateNode) -> tuple[list[list[Row]], Schema]:
        child_parts, child_schema = self._child_state(node)
        associations = AggregationAssociations() if self._capturing else None

        def key_of(row: Row) -> tuple[Any, ...]:
            return tuple(key.evaluate(row[1]) for key in node.keys)

        shuffled = hash_partition(
            concat_partitions(child_parts), self._num_partitions, key_of
        )
        partitions: list[list[Row]] = []
        for bucket_rows in shuffled:
            groups: dict[tuple[Any, ...], list[Row]] = {}
            for row in bucket_rows:
                groups.setdefault(key_of(row), []).append(row)
            aggregated: list[Row] = []
            for key_values, members in groups.items():
                fields: list[tuple[str, Any]] = list(zip(node.key_names, key_values))
                for aggregate in node.aggregates:
                    values = [aggregate.column.evaluate(item) for _, item in members]
                    fields.append((aggregate.output_name(), aggregate.apply(values)))
                out_item = DataItem(fields)
                if associations is not None:
                    out_id = self._fresh_id()
                    associations.add([pid for pid, _ in members], out_id)
                    aggregated.append((out_id, out_item))
                else:
                    aggregated.append((None, out_item))
            partitions.append(aggregated)
        if associations is not None:
            spec = (node.children[0].oid, node.accessed_paths(0), child_schema)
            self._emit_operator(node, (spec,), node.manipulation_pairs(), associations)
        rows = concat_partitions(partitions)
        return partitions, self._schema_of(rows)

    def _run_distinct(self, node: DistinctNode) -> tuple[list[list[Row]], Schema]:
        child_parts, child_schema = self._child_state(node)
        rows = concat_partitions(child_parts)
        groups: dict[DataItem, list[Any]] = {}
        order: list[DataItem] = []
        for pid, item in rows:
            if item not in groups:
                groups[item] = []
                order.append(item)
            groups[item].append(pid)
        associations = AggregationAssociations() if self._capturing else None
        distinct_rows: list[Row] = []
        for item in order:
            if associations is not None:
                out_id = self._fresh_id()
                associations.add(groups[item], out_id)
                distinct_rows.append((out_id, item))
            else:
                distinct_rows.append((None, item))
        if associations is not None:
            # Comparing whole items accesses every top-level attribute.
            accessed = {Path().child(name) for name in child_schema.attribute_names()}
            spec = (node.children[0].oid, accessed, child_schema)
            self._emit_operator(node, (spec,), (), associations)
        return partition_rows(distinct_rows, self._num_partitions), child_schema

    def _run_sort(self, node: SortNode) -> tuple[list[list[Row]], Schema]:
        child_parts, child_schema = self._child_state(node)
        rows = concat_partitions(child_parts)

        def sort_key(row: Row) -> tuple:
            # None sorts first; mixed types are kept apart by type name.
            values = []
            for key in node.keys:
                value = key.evaluate(row[1])
                values.append((value is not None, type(value).__name__, value))
            return tuple(values)

        ordered = sorted(rows, key=sort_key, reverse=node.descending)
        return self._reassign_rows(node, ordered, child_schema)

    def _run_limit(self, node: LimitNode) -> tuple[list[list[Row]], Schema]:
        child_parts, child_schema = self._child_state(node)
        rows = concat_partitions(child_parts)[: node.n]
        return self._reassign_rows(node, rows, child_schema)

    def _reassign_rows(
        self, node: PlanNode, rows: list[Row], child_schema: Schema
    ) -> tuple[list[list[Row]], Schema]:
        """Shared tail of sort/limit: fresh unary associations over *rows*."""
        associations = UnaryAssociations() if self._capturing else None
        out_rows: list[Row] = []
        for pid, item in rows:
            if associations is not None:
                out_id = self._fresh_id()
                associations.add(pid, out_id)
                out_rows.append((out_id, item))
            else:
                out_rows.append((pid, item))
        if associations is not None:
            spec = (node.children[0].oid, node.accessed_paths(0), child_schema)
            self._emit_operator(node, (spec,), [], associations)
        return partition_rows(out_rows, self._num_partitions), child_schema

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
