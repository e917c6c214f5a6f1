"""Physical plans: fused stages compiled from the logical DAG.

The logical plan (``engine/plan.py``) describes *what* to compute; a
:class:`PhysicalPlan` describes *how*: an ordered list of stages, each either
a source scan, a shuffle/materialisation point (join, aggregate, union,
distinct, sort, limit), or a **fused pipeline** of consecutive narrow
operators (filter / select / map / with_column / flatten and
optimizer-inserted helpers) that runs partition-at-a-time without
materialising intermediates between operators.

Two properties make fused execution equivalent to the seed's
operator-at-a-time interpreter:

* **Stage order** follows the logical DAG's children-first walk, the same
  order the seed's recursive ``_run`` executed operators in.
* **Id assignment is split out of computation.** A fused stage first runs
  its operator chain per partition (records, per operator, which input row
  produced each output row), then a finalisation pass replays those traces
  operator-by-operator across partitions in order, assigning provenance ids.
  That reproduces the seed's global id sequence byte-for-byte.

Schema handling mirrors the seed exactly: operators that preserve structure
(filter, sort, limit, distinct, and the optimizer's prune) propagate their
input schema; operators that rebuild items (select, map, flatten, join,
aggregate, read) fall back to inference over the first ``SCHEMA_SAMPLE``
output items.  Attribute-level schemas are additionally propagated statically
at compile time for planning and ``repro explain`` -- they become unknown
only downstream of a UDF (``map``) until a projection rebuilds the shape.
"""

from __future__ import annotations

from typing import Any

from repro.core.operator_provenance import (
    Associations,
    FlattenAssociations,
    UNDEFINED,
    UnaryAssociations,
)
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    FlattenNode,
    JoinNode,
    LimitNode,
    MapNode,
    PlanNode,
    ReadNode,
    SelectNode,
    SortNode,
    UnionNode,
    WithColumnNode,
)
from repro.errors import ExecutionError, PlanError
from repro.nested.schema import Schema
from repro.nested.types import StructType
from repro.nested.values import Bag, DataItem, NestedSet, coerce_value
from repro.obs.tracer import span

__all__ = [
    "SCHEMA_SAMPLE",
    "NarrowOp",
    "FilterOp",
    "SelectOp",
    "MapOp",
    "WithColumnOp",
    "FlattenOp",
    "PruneOp",
    "LimitPrefixOp",
    "Stage",
    "ReadStage",
    "FusedStage",
    "WideStage",
    "StageTask",
    "StageTaskResult",
    "PhysicalPlan",
    "compile_stages",
    "narrow_op_for",
    "NARROW_NODE_TYPES",
]

#: Number of items sampled when inferring a dataset schema at runtime.
SCHEMA_SAMPLE = 200


# ---------------------------------------------------------------------------
# Narrow operators: the per-partition building blocks of a fused stage
# ---------------------------------------------------------------------------


class NarrowOp:
    """One pipelined operator inside a fused stage.

    ``apply`` transforms a partition's items and -- when *traced* -- returns
    per-output entries describing which input row produced each output row,
    for the serial id-assignment pass.  ``entry_kind`` tells the finaliser
    how to decode the entries: ``"identity"`` (1:1 in order, entries is
    ``None``), ``"filter"`` (list of kept source indices), or ``"flatten"``
    (list of ``(source index, position)`` pairs).
    """

    #: The logical node this op realises; ``None`` for optimizer helpers.
    node: PlanNode | None = None
    #: Whether the op registers provenance (optimizer helpers do not).
    registers = True
    entry_kind = "identity"

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        raise NotImplementedError

    def propagate_schema(self, schema: Schema) -> Schema | None:
        """Exact output schema given the input schema, or ``None`` to sample."""
        return None

    def check_input_schema(self, schema: Schema) -> None:
        """Validate against the runtime input schema (may raise PlanError)."""

    def new_associations(self) -> Associations:
        return UnaryAssociations()

    def input_spec(self) -> tuple[object, object]:
        """``(accessed paths, manipulation pairs)`` for registration."""
        assert self.node is not None
        return self.node.accessed_paths(0), self.node.manipulation_pairs()

    def describe(self) -> str:
        return self.node.label() if self.node is not None else type(self).__name__

    def static_attributes(self, attrs: tuple[str, ...] | None) -> tuple[str, ...] | None:
        """Attribute-level output schema given the input attributes."""
        return attrs


class FilterOp(NarrowOp):
    entry_kind = "filter"

    def __init__(self, node: FilterNode):
        self.node = node

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        predicate = self.node.predicate
        if not traced:
            return [item for item in items if predicate.evaluate(item)], None
        kept: list[DataItem] = []
        entries: list[int] = []
        for index, item in enumerate(items):
            if predicate.evaluate(item):
                kept.append(item)
                entries.append(index)
        return kept, entries

    def propagate_schema(self, schema: Schema) -> Schema | None:
        return schema

    def input_spec(self) -> tuple[object, object]:
        return self.node.accessed_paths(0), []


class SelectOp(NarrowOp):
    def __init__(self, node: SelectNode):
        self.node = node

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        names = self.node.output_names
        projections = self.node.projections
        out = [
            DataItem(
                (name, projection.evaluate(item))
                for name, projection in zip(names, projections)
            )
            for item in items
        ]
        return out, None

    def static_attributes(self, attrs: tuple[str, ...] | None) -> tuple[str, ...] | None:
        return self.node.output_names


class MapOp(NarrowOp):
    def __init__(self, node: MapNode):
        self.node = node

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        node = self.node
        out: list[DataItem] = []
        for item in items:
            try:
                out_value = node.fn(item)
            except Exception as exc:
                raise ExecutionError(f"map {node.name!r} failed on item: {exc}") from exc
            out_item = coerce_value(out_value)
            if not isinstance(out_item, DataItem):
                raise ExecutionError(
                    f"map {node.name!r} must return a data item, got {type(out_value).__name__}"
                )
            out.append(out_item)
        return out, None

    def input_spec(self) -> tuple[object, object]:
        return UNDEFINED, UNDEFINED

    def static_attributes(self, attrs: tuple[str, ...] | None) -> tuple[str, ...] | None:
        return None  # UDF output: unknown until sampled


class WithColumnOp(NarrowOp):
    def __init__(self, node: WithColumnNode):
        self.node = node

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        name = self.node.name
        expression = self.node.expression
        out = [item.replace(**{name: expression.evaluate(item)}) for item in items]
        return out, None

    def static_attributes(self, attrs: tuple[str, ...] | None) -> tuple[str, ...] | None:
        if attrs is None:
            return None
        if self.node.name in attrs:
            return attrs
        return attrs + (self.node.name,)


class FlattenOp(NarrowOp):
    entry_kind = "flatten"

    def __init__(self, node: FlattenNode):
        self.node = node

    def check_input_schema(self, schema: Schema) -> None:
        if schema.struct.has_field(self.node.new_name):
            raise PlanError(f"flatten output attribute {self.node.new_name!r} already exists")

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        node = self.node
        out: list[DataItem] = []
        entries: list[tuple[int, int]] | None = [] if traced else None
        for index, item in enumerate(items):
            collection = (
                node.col_path.evaluate(item) if node.col_path.resolves_in(item) else None
            )
            if collection is None:
                elements: tuple[Any, ...] = ()
            elif isinstance(collection, (Bag, NestedSet)):
                elements = collection.items()
            else:
                raise ExecutionError(
                    f"flatten path {node.col_path} is not a collection "
                    f"(got {type(collection).__name__})"
                )
            if not elements and node.outer:
                out.append(item.replace(**{node.new_name: None}))
                if entries is not None:
                    entries.append((index, 0))
                continue
            for position, element in enumerate(elements, start=1):
                out.append(item.replace(**{node.new_name: element}))
                if entries is not None:
                    entries.append((index, position))
        return out, entries

    def new_associations(self) -> Associations:
        return FlattenAssociations()

    def static_attributes(self, attrs: tuple[str, ...] | None) -> tuple[str, ...] | None:
        if attrs is None:
            return None
        if self.node.new_name in attrs:
            return attrs  # runtime raises; keep planning honest
        return attrs + (self.node.new_name,)


class PruneOp(NarrowOp):
    """Optimizer-inserted projection: drop attributes nobody downstream reads.

    Purely physical -- it registers no provenance and every logical
    operator's associations are unchanged, because pruning only removes
    attributes that are re-built away by a downstream select/aggregate
    anyway.  Items that already carry only kept attributes pass through
    untouched (no copy).
    """

    registers = False

    def __init__(self, keep: frozenset[str]):
        self.keep = keep

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        keep = self.keep
        out: list[DataItem] = []
        for item in items:
            attributes = item.attributes()
            if all(name in keep for name in attributes):
                out.append(item)
            else:
                out.append(item.project(name for name in attributes if name in keep))
        return out, None

    def propagate_schema(self, schema: Schema) -> Schema | None:
        fields = [
            (name, typ) for name, typ in schema.struct.fields if name in self.keep
        ]
        return Schema(StructType(fields))

    def describe(self) -> str:
        return f"prune[keep {', '.join(sorted(self.keep))}]"

    def static_attributes(self, attrs: tuple[str, ...] | None) -> tuple[str, ...] | None:
        if attrs is None:
            return None
        return tuple(name for name in attrs if name in self.keep)


class LimitPrefixOp(NarrowOp):
    """Optimizer-inserted per-partition prefix for a downstream global limit.

    Keeping only the first *n* rows of every partition cannot change the
    first *n* rows of the partition concatenation, so the global limit stage
    downstream produces identical results; inserted only when no hook
    requires plan-faithful associations (upstream operators would otherwise
    lose association records for the truncated rows).
    """

    registers = False

    def __init__(self, n: int):
        self.n = n

    def apply(self, items: list[DataItem], traced: bool) -> tuple[list[DataItem], Any]:
        return items[: self.n], None

    def propagate_schema(self, schema: Schema) -> Schema | None:
        return schema

    def describe(self) -> str:
        return f"limit_prefix[{self.n}]"


NARROW_NODE_TYPES: tuple[type, ...] = (
    FilterNode,
    SelectNode,
    MapNode,
    WithColumnNode,
    FlattenNode,
)

_NARROW_OPS: dict[type, type[NarrowOp]] = {
    FilterNode: FilterOp,
    SelectNode: SelectOp,
    MapNode: MapOp,
    WithColumnNode: WithColumnOp,
    FlattenNode: FlattenOp,
}


def narrow_op_for(node: PlanNode) -> NarrowOp:
    """Wrap a narrow logical node in its physical operator."""
    op_type = _NARROW_OPS.get(type(node))
    if op_type is None:
        raise ExecutionError(f"{type(node).__name__} is not a narrow operator")
    return op_type(node)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class Stage:
    """One unit of physical execution."""

    kind = "abstract"

    def __init__(self) -> None:
        #: Attribute-level output schema, statically propagated at compile
        #: time; ``None`` downstream of a UDF until a projection rebuilds it.
        self.static_attrs: tuple[str, ...] | None = None
        #: ``"propagated"`` when the runtime schema is carried over from the
        #: input, ``"sampled"`` when it is inferred from SCHEMA_SAMPLE items.
        self.schema_mode = "sampled"

    @property
    def output_oid(self) -> int:
        raise NotImplementedError

    def input_oids(self) -> tuple[int, ...]:
        return ()

    def logical_oids(self) -> tuple[int, ...]:
        """Oids of the logical operators this stage realises."""
        return ()

    def label(self) -> str:
        raise NotImplementedError


class ReadStage(Stage):
    kind = "read"

    def __init__(self, node: ReadNode):
        super().__init__()
        self.node = node

    @property
    def output_oid(self) -> int:
        return self.node.oid

    def logical_oids(self) -> tuple[int, ...]:
        return (self.node.oid,)

    def label(self) -> str:
        return self.node.label()


class FusedStage(Stage):
    """A pipeline of narrow operators over the partitions of one input."""

    kind = "fused"

    def __init__(self, input_oid: int, ops: list[NarrowOp]):
        super().__init__()
        self.input_oid = input_oid
        self.ops = ops
        self.schema_mode = "propagated"  # updated as sampling ops are appended

    @property
    def output_oid(self) -> int:
        for op in reversed(self.ops):
            if op.node is not None:
                return op.node.oid
        raise ExecutionError("fused stage realises no logical operator")

    def input_oids(self) -> tuple[int, ...]:
        return (self.input_oid,)

    def logical_oids(self) -> tuple[int, ...]:
        return tuple(op.node.oid for op in self.ops if op.node is not None)

    def append(self, op: NarrowOp) -> None:
        self.ops.append(op)
        if op.propagate_schema.__func__ is NarrowOp.propagate_schema:  # type: ignore[attr-defined]
            self.schema_mode = "sampled"

    def label(self) -> str:
        return " | ".join(op.describe() for op in self.ops)


class WideStage(Stage):
    """A materialisation point: shuffle, global order, or multi-input merge."""

    kind = "wide"

    def __init__(self, node: PlanNode):
        super().__init__()
        self.node = node
        self.kind = node.op_type

    @property
    def output_oid(self) -> int:
        return self.node.oid

    def input_oids(self) -> tuple[int, ...]:
        return tuple(child.oid for child in self.node.children)

    def logical_oids(self) -> tuple[int, ...]:
        return (self.node.oid,)

    def label(self) -> str:
        return self.node.label()


class PhysicalPlan:
    """Ordered stages plus the (possibly rewritten) logical plan they realise."""

    def __init__(
        self,
        logical_root: PlanNode,
        executed_root: PlanNode,
        stages: list[Stage],
        report: "Any",
    ):
        self.logical_root = logical_root
        self.executed_root = executed_root
        self.stages = stages
        #: The :class:`~repro.engine.optimizer.OptimizationReport` of rewrites.
        self.report = report

    @property
    def root_oid(self) -> int:
        return self.executed_root.oid

    def describe(self) -> str:
        """Render the stages (the physical half of ``repro explain``)."""
        lines: list[str] = []
        for index, stage in enumerate(self.stages):
            attrs = (
                "<" + ", ".join(stage.static_attrs) + ">"
                if stage.static_attrs is not None
                else "inferred at runtime (SCHEMA_SAMPLE)"
            )
            lines.append(f"stage {index} [{stage.kind}] {stage.label()}")
            lines.append(f"    schema: {attrs} ({stage.schema_mode})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PhysicalPlan({len(self.stages)} stages, root oid {self.root_oid})"


# ---------------------------------------------------------------------------
# Stage compilation
# ---------------------------------------------------------------------------


def _consumer_counts(root: PlanNode) -> dict[int, int]:
    counts: dict[int, int] = {}
    for node in root.walk():
        for child in node.children:
            counts[child.oid] = counts.get(child.oid, 0) + 1
    return counts


def compile_stages(
    logical_root: PlanNode,
    executed_root: PlanNode,
    *,
    fuse: bool,
    prune_sets: dict[int, frozenset[str]] | None = None,
    limit_prefix: bool = False,
    report: Any = None,
) -> PhysicalPlan:
    """Compile the (rewritten) logical plan into an ordered stage list.

    ``fuse=False`` gives every narrow operator its own single-op stage --
    the un-optimized layout whose execution is step-for-step the seed path.
    ``prune_sets`` maps a node oid to the attribute set that must survive
    its output; a :class:`PruneOp` is inserted at the head of any fused
    chain reading such a node.  Chains are only extended across edges whose
    producer has exactly one consumer, so shared sub-plans stay materialised
    and memoised exactly like the seed's ``_memo``.
    """
    consumers = _consumer_counts(executed_root)
    prune_sets = prune_sets or {}
    stages: list[Stage] = []
    stage_of: dict[int, Stage] = {}

    def start_chain(child: PlanNode, first: NarrowOp) -> FusedStage:
        ops: list[NarrowOp] = []
        keep = prune_sets.get(child.oid)
        # A select rebuilds its items from scratch and only evaluates the
        # paths it projects; pruning in front of it adds a copy pass for no
        # saving, so the prune is only inserted ahead of copying operators
        # (filter chains, flattens, with_column).
        if keep is not None and isinstance(first, SelectOp):
            keep = None
        if keep is not None:
            ops.append(PruneOp(keep))
            if report is not None:
                report.add(
                    "prune",
                    f"prune input of oid {first.node.oid} to [{', '.join(sorted(keep))}]",
                )
        stage = FusedStage(child.oid, ops)
        stage.append(first)
        stages.append(stage)
        return stage

    for node in executed_root.walk():
        if isinstance(node, ReadNode):
            stage: Stage = ReadStage(node)
            stages.append(stage)
        elif isinstance(node, NARROW_NODE_TYPES):
            child = node.children[0]
            op = narrow_op_for(node)
            child_stage = stage_of[child.oid]
            if (
                fuse
                and isinstance(child_stage, FusedStage)
                and consumers.get(child.oid, 0) == 1
            ):
                child_stage.append(op)
                stage = child_stage
                if report is not None and len(stage.logical_oids()) == 2:
                    report.add("fuse", f"fuse chain starting at oid {stage.logical_oids()[0]}")
            else:
                stage = start_chain(child, op)
        else:
            if (
                limit_prefix
                and isinstance(node, LimitNode)
                and isinstance(stage_of.get(node.children[0].oid), FusedStage)
                and consumers.get(node.children[0].oid, 0) == 1
            ):
                upstream = stage_of[node.children[0].oid]
                assert isinstance(upstream, FusedStage)
                upstream.append(LimitPrefixOp(node.n))
                if report is not None:
                    report.add(
                        "fuse", f"push per-partition prefix of limit {node.n} into stage"
                    )
            stage = WideStage(node)
            stages.append(stage)
        stage_of[node.oid] = stage

    _propagate_static_attrs(stages, stage_of)
    plan = PhysicalPlan(logical_root, executed_root, stages, report)
    return plan


def _propagate_static_attrs(stages: list[Stage], stage_of: dict[int, Stage]) -> None:
    """Compile-time attribute-level schema propagation across stages."""
    attrs_of: dict[int, tuple[str, ...] | None] = {}
    for stage in stages:
        if isinstance(stage, ReadStage):
            out: tuple[str, ...] | None = None  # source shape is data-dependent
        elif isinstance(stage, FusedStage):
            out = attrs_of.get(stage.input_oid)
            for op in stage.ops:
                out = op.static_attributes(out)
        else:
            assert isinstance(stage, WideStage)
            out = _wide_static_attrs(stage.node, attrs_of)
        stage.static_attrs = out
        attrs_of[stage.output_oid] = out


def _wide_static_attrs(
    node: PlanNode, attrs_of: dict[int, tuple[str, ...] | None]
) -> tuple[str, ...] | None:
    child_attrs = [attrs_of.get(child.oid) for child in node.children]
    if isinstance(node, (DistinctNode, SortNode, LimitNode)):
        return child_attrs[0]
    if isinstance(node, AggregateNode):
        return node.key_names + tuple(agg.output_name() for agg in node.aggregates)
    if isinstance(node, UnionNode):
        left, right = child_attrs
        if left is None or right is None:
            return None
        return left + tuple(name for name in right if name not in left)
    if isinstance(node, JoinNode):
        left, right = child_attrs
        if left is None or right is None:
            return None
        return left + right
    return None


# ---------------------------------------------------------------------------
# Stage tasks: one partition's slice of a fused segment
# ---------------------------------------------------------------------------


class StageTaskResult:
    """What one executed :class:`StageTask` hands back to the executor.

    The partition's output items and the per-operator trace entries /
    cardinalities / schema samples the executor's finalisation pass needs.
    """

    __slots__ = ("items", "entries", "counts", "samples", "part")

    def __init__(
        self,
        items: list[DataItem],
        entries: list[Any],
        counts: list[tuple[int, int]],
        samples: list[list[DataItem] | None],
        part: int,
    ):
        self.items = items
        self.entries = entries
        self.counts = counts
        self.samples = samples
        self.part = part

    def __repr__(self) -> str:
        return f"StageTaskResult(p{self.part}, {len(self.items)} items)"


class StageTask:
    """One partition's slice of a fused segment, as a value.

    A ``StageTask`` carries everything its run needs -- the segment's
    operator chain, the partition's items and the capture flag -- instead of
    closing over the executor's local state.  The executor calls each task
    once, on the calling thread, and the task opens its ``task`` span there.

    Tasks are **pure**: they read only their own fields and return a fresh
    :class:`StageTaskResult`, so the result depends neither on how often nor
    on which thread a task runs (``test_stage_tasks.py`` pins both).
    """

    __slots__ = ("ops", "sampling", "items", "capturing", "stage_label", "part")

    def __init__(
        self,
        *,
        ops: tuple[NarrowOp, ...],
        sampling: tuple[bool, ...],
        items: list[DataItem],
        capturing: bool,
        stage_label: str,
        part: int,
    ):
        self.ops = ops
        self.sampling = sampling
        self.items = items
        self.capturing = capturing
        self.stage_label = stage_label
        self.part = part

    def __call__(self) -> StageTaskResult:
        items = list(self.items)
        entries_out: list[Any] = []
        counts_out: list[tuple[int, int]] = []
        samples_out: list[list[DataItem] | None] = []
        with span(
            f"task p{self.part}",
            "task",
            stage=self.stage_label,
            rows=len(items),
        ):
            for op, sampled in zip(self.ops, self.sampling):
                out, entries = op.apply(items, self.capturing and op.registers)
                entries_out.append(entries)
                counts_out.append((len(items), len(out)))
                samples_out.append(out[:SCHEMA_SAMPLE] if sampled else None)
                items = out
        return StageTaskResult(items, entries_out, counts_out, samples_out, self.part)

    def __repr__(self) -> str:
        chain = " | ".join(op.describe() for op in self.ops)
        return f"StageTask(p{self.part}: {chain}, {len(self.items)} items)"
