"""Unit tests for the capture hooks replacing the capture/lineage flags."""

from repro.core.operator_provenance import UNDEFINED
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.hooks import (
    CaptureHook,
    LineageCaptureHook,
    MetricsHook,
    StructuralCaptureHook,
    hooks_for,
    provenance_store,
)
from repro.engine.session import Session


def _pipeline(session):
    return (
        session.create_dataset(
            [{"a": index, "b": index * 2, "tags": ["x", "y"]} for index in range(6)],
            "in",
        )
        .filter(col("a") >= 1)
        .select(col("a"), col("tags"))
        .flatten("tags", "tag")
    )


class TestHooksFor:
    def test_flag_translation(self):
        assert hooks_for(capture=False, lineage_only=False) == []
        (structural,) = hooks_for(capture=True, lineage_only=False)
        assert type(structural) is StructuralCaptureHook
        (lineage,) = hooks_for(capture=True, lineage_only=True)
        assert type(lineage) is LineageCaptureHook

    def test_capture_hooks_demand_ids_and_fidelity(self):
        assert StructuralCaptureHook.needs_ids and StructuralCaptureHook.plan_fidelity
        assert LineageCaptureHook.needs_ids and LineageCaptureHook.plan_fidelity
        assert not MetricsHook.needs_ids and not MetricsHook.plan_fidelity

    def test_provenance_store_picks_first(self):
        structural = StructuralCaptureHook()
        assert provenance_store([MetricsHook(), structural]) is structural.store
        assert provenance_store([MetricsHook()]) is None
        assert provenance_store([]) is None


class TestStructuralVsLineage:
    def test_lineage_blanks_structure_keeps_associations(self):
        session = Session()
        plan = _pipeline(session).plan
        structural = Executor(hooks=[StructuralCaptureHook()]).execute(plan)
        lineage = Executor(hooks=[LineageCaptureHook()]).execute(plan)
        assert structural.items() == lineage.items()
        for full in structural.store.operators():
            blanked = lineage.store.get(full.oid)
            # Same id associations (what Titian keeps)...
            assert type(full.associations) is type(blanked.associations)
            # ...but no accessed paths or manipulations below the top level.
            assert all(not ref.accessed for ref in blanked.inputs)
            if full.manipulations is not UNDEFINED and full.manipulations:
                assert blanked.manipulations == ()


class TestMetricsHook:
    def test_stage_accounting(self):
        session = Session()
        execution = _pipeline(session).execute()
        metrics = execution.metrics
        assert metrics.stages(), "executor must emit per-stage metrics"
        assert metrics.stages()[0].kind == "read"
        for stage in metrics.stages():
            assert stage.rows_out >= 0
            assert stage.seconds >= 0.0
        payload = metrics.to_json()
        assert set(payload) == {"total_seconds", "operators", "stages"}
        assert len(payload["stages"]) == len(metrics.stages())

    def test_rows_in_and_out_reflect_filter(self):
        session = Session()
        execution = _pipeline(session).execute()
        by_label = {stage.label: stage for stage in execution.metrics.stages()}
        read = execution.metrics.stages()[0]
        assert read.rows_out == 6
        # Whatever stage contains the filter sees 6 rows in, 5 out of the filter.
        filter_stage = next(s for label, s in by_label.items() if "filter" in label)
        assert filter_stage.rows_in == 6


class TestCustomHook:
    def test_arbitrary_observer_hook(self):
        events = []

        class Recorder(CaptureHook):
            def on_stage(self, stage):
                events.append((stage.index, stage.kind))

        session = Session()
        execution = _pipeline(session).execute(hooks=[Recorder()])
        assert events and events[0] == (0, "read")
        assert execution.store is None  # observer hooks do not create a store

    def test_dataset_execute_accepts_hooks(self):
        session = Session()
        hook = LineageCaptureHook()
        execution = _pipeline(session).execute(hooks=[hook])
        assert execution.store is hook.store
