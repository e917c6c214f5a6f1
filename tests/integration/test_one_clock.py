"""Spans are the only timing primitive, end to end.

* With nothing recording, the query path opens no span object at all, and
  a run opens only the spans whose durations are its metrics (run, stages,
  capture hooks).
* Explain-analyze and an exported trace are one clock: each analyze phase
  equals the self time the trace books to that phase.
* A stage's ``seconds`` is its span's duration, not a second reading.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import repro.obs.tracer as tracer_module
from repro import PebbleSession
from repro.obs.breakdown import QueryBreakdown
from repro.obs.tracer import Tracer, tracing
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN, build_running_example

CHECK_TRACE = Path(__file__).resolve().parents[2] / "tools" / "check_trace.py"


def _phase_times():
    spec = importlib.util.spec_from_file_location("check_trace", CHECK_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.phase_times


@pytest.fixture
def constructed(monkeypatch):
    """Every :class:`Span` constructed while the test runs."""
    spans: list[tracer_module.Span] = []
    original = tracer_module.Span.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        spans.append(self)

    monkeypatch.setattr(tracer_module.Span, "__init__", counting)
    return spans


@pytest.fixture
def recorded(captured_example, tmp_path):
    warehouse = Warehouse.open(tmp_path / "wh")
    record = warehouse.record(captured_example, name="example")
    return tmp_path / "wh", record.run_id


class TestZeroCostWhenOff:
    def test_cold_backtrace_constructs_no_span(self, recorded, constructed):
        root, run_id = recorded
        result, _ = Warehouse.open(root).backtrace(run_id, RUNNING_EXAMPLE_PATTERN)
        assert result.matched_output_ids
        assert constructed == []

    def test_run_constructs_only_its_metric_spans(self, example_tweets, constructed):
        pebble = PebbleSession(num_partitions=2)
        captured = pebble.run(build_running_example(pebble.session, example_tweets))
        metrics = captured.execution.metrics
        categories = [span.category for span in constructed]
        assert categories.count("run") == 1
        assert categories.count("stage") == len(metrics.stages())
        # One capture span per operator that handed provenance to the hooks.
        assert categories.count("capture") == len(list(metrics.operators()))
        assert len(categories) == 1 + len(metrics.stages()) + categories.count("capture")
        assert all(span.span_id is None for span in constructed), "nothing records"


class TestAnalyzeAgreesWithTheTrace:
    def test_each_phase_is_the_traces_self_time(self, recorded):
        root, run_id = recorded
        breakdown = QueryBreakdown()
        tracer = Tracer()
        with tracing(tracer):
            Warehouse.open(root).backtrace(
                run_id, RUNNING_EXAMPLE_PATTERN, breakdown=breakdown
            )
        from_trace = _phase_times()(tracer.chrome_events())
        assert breakdown.phases["segment_decode"] > 0
        assert set(from_trace) == set(breakdown.phases)
        for phase, seconds in breakdown.phases.items():
            assert from_trace[phase] == pytest.approx(seconds, abs=1e-6), phase


class TestStageSecondsAreSpanDurations:
    def test_stage_seconds_equal_the_stage_spans(self, example_tweets):
        pebble = PebbleSession(num_partitions=2)
        tracer = Tracer()
        with tracing(tracer):
            captured = pebble.run(build_running_example(pebble.session, example_tweets))
        metrics = captured.execution.metrics
        spans = {span.name: span for span in tracer.find("stage")}
        assert len(spans) == len(metrics.stages())
        for stage in metrics.stages():
            span = spans[f"stage-{stage.index} {stage.kind}"]
            assert stage.seconds == span.duration
            assert stage.span_id == span.span_id
        (run,) = tracer.find("run")
        assert metrics.total_seconds == run.duration
