"""Capture hooks: pluggable per-operator observers of an execution.

The seed executor hard-wired provenance capture (``capture=True``) and the
Titian-style lineage baseline (``lineage_only=True``) into every operator
handler.  The physical-plan engine instead *emits* capture events -- one per
registered source and per executed logical operator, plus one per physical
stage -- and any number of :class:`CaptureHook` instances consume them:

* :class:`StructuralCaptureHook` -- Pebble's structural capture (Sec. 5.1):
  full accessed paths ``A``, manipulation pairs ``M``, id associations.
* :class:`LineageCaptureHook` -- the Titian baseline: id associations only,
  ``A`` and ``M`` blanked (Sec. 7.3.4 comparison).
* :class:`MetricsHook` -- wraps an :class:`ExecutionMetrics`; the stage and
  operator accounting the bench harness consumes.

Two class attributes tell the engine what a hook needs: ``needs_ids`` forces
the id-assignment phase (rows carry provenance ids), and ``plan_fidelity``
pins the executed plan to the logical plan operator-for-operator, disabling
rewrites that change the captured associations (e.g. filter pushdown).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.operator_provenance import (
    Associations,
    InputRef,
    OperatorProvenance,
    UNDEFINED,
)
from repro.core.paths import Path
from repro.core.store import ProvenanceStore
from repro.engine.metrics import ExecutionMetrics, StageMetrics
from repro.nested.schema import Schema
from repro.nested.values import DataItem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import PlanNode, ReadNode

__all__ = [
    "CaptureHook",
    "StructuralCaptureHook",
    "LineageCaptureHook",
    "MetricsHook",
    "hooks_for",
    "provenance_store",
]

#: ``(predecessor oid, accessed paths or UNDEFINED, input schema)`` -- the
#: raw material of an :class:`InputRef`; each hook decides what to keep.
InputSpec = tuple[int, object, Schema]


class CaptureHook:
    """Base class: every event is a no-op; subclasses override what they need."""

    #: Hook requires per-row provenance ids (the id-assignment phase runs).
    needs_ids = False
    #: Hook requires the executed plan to match the logical plan; disables
    #: result-preserving rewrites that change the captured associations.
    plan_fidelity = False
    #: The provenance store this hook fills, if any (surfaced on the
    #: :class:`~repro.engine.executor.ExecutionResult`).
    store: ProvenanceStore | None = None

    def on_source(self, node: "ReadNode", items_by_id: dict[int, DataItem]) -> None:
        """A read operator registered its items (capture runs only)."""

    def on_operator(
        self,
        node: "PlanNode",
        inputs: Sequence[InputSpec],
        manipulations: object,
        associations: Associations,
    ) -> None:
        """A logical operator finished; *manipulations* may be UNDEFINED."""

    def on_stage(self, stage: StageMetrics) -> None:
        """A physical stage finished executing."""


class StructuralCaptureHook(CaptureHook):
    """Pebble's structural provenance capture: the full 5-tuple per operator."""

    needs_ids = True
    plan_fidelity = True

    def __init__(self, store: ProvenanceStore | None = None):
        self.store = store if store is not None else ProvenanceStore()

    def _input_ref(self, spec: InputSpec) -> InputRef:
        predecessor, accessed, schema = spec
        return InputRef(predecessor, accessed, schema=schema)

    def on_source(self, node: "ReadNode", items_by_id: dict[int, DataItem]) -> None:
        assert self.store is not None
        self.store.register_source_items(node.oid, node.name, items_by_id)

    def on_operator(
        self,
        node: "PlanNode",
        inputs: Sequence[InputSpec],
        manipulations: object,
        associations: Associations,
    ) -> None:
        assert self.store is not None
        refs = tuple(self._input_ref(spec) for spec in inputs)
        self.store.register(
            OperatorProvenance(
                node.oid, node.op_type, refs, manipulations, associations, node.label()
            )
        )


class LineageCaptureHook(StructuralCaptureHook):
    """Titian-style baseline: id associations only, no structural paths.

    Mirrors the seed's ``lineage_only`` mode: accessed paths and manipulation
    pairs are blanked at registration time, so backtracing over the resulting
    store degrades to plain lineage.
    """

    def _input_ref(self, spec: InputSpec) -> InputRef:
        predecessor, _accessed, schema = spec
        return InputRef(predecessor, frozenset(), schema=schema)

    def on_operator(
        self,
        node: "PlanNode",
        inputs: Sequence[InputSpec],
        manipulations: object,
        associations: Associations,
    ) -> None:
        blanked: tuple[tuple[Path, Path], ...] = ()
        super().on_operator(node, inputs, blanked, associations)


class MetricsHook(CaptureHook):
    """Collects per-stage accounting into an :class:`ExecutionMetrics`.

    Needs neither ids nor plan fidelity: metrics observe whatever plan the
    optimizer produced.  The engine writes operator-level counters into the
    wrapped metrics object directly; this hook receives the stage events.
    """

    def __init__(self, metrics: ExecutionMetrics | None = None):
        self.metrics = metrics if metrics is not None else ExecutionMetrics()

    def on_stage(self, stage: StageMetrics) -> None:
        self.metrics.add_stage(stage)


def hooks_for(capture: bool, lineage_only: bool) -> list[CaptureHook]:
    """Translate the legacy ``capture``/``lineage_only`` flags into hooks."""
    hooks: list[CaptureHook] = []
    if capture:
        hooks.append(LineageCaptureHook() if lineage_only else StructuralCaptureHook())
    return hooks


def provenance_store(hooks: Iterable[CaptureHook]) -> ProvenanceStore | None:
    """Return the first store produced by *hooks*, or ``None``."""
    for hook in hooks:
        if hook.store is not None:
            return hook.store
    return None
