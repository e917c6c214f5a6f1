"""Unit tests for the executor's per-stage accounting."""

from repro.engine.expressions import col
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


class TestStageMetrics:
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
