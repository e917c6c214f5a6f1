"""Unit tests for the span tracer and its Chrome trace-event export."""

import json
import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    chrome_trace_events,
    get_tracer,
    iter_b_e_pairs,
    set_tracer,
    span,
    tracing,
)


class TestNullTracer:
    def test_is_the_default(self):
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_span_returns_one_shared_noop_handle(self):
        first = span("a", "run")
        second = span("b", "stage", rows=3)
        assert first is second, "the disabled path must not allocate"
        with first as handle:
            handle.set(rows=7)  # swallowed
        assert NULL_TRACER.spans() == []


class TestTracer:
    def test_records_spans_with_args(self):
        tracer = Tracer()
        with tracing(tracer), span("stage-0 read", "stage", rows=6) as handle:
            handle.set(rows_out=3)
        (recorded,) = tracer.spans()
        assert recorded.name == "stage-0 read"
        assert recorded.category == "stage"
        assert recorded.args == {"rows": 6, "rows_out": 3}
        assert recorded.end >= recorded.start
        assert recorded.duration >= 0

    def test_find_filters_by_category_and_name(self):
        tracer = Tracer()
        with tracing(tracer), span("run", "run"):
            with span("stage-0 read", "stage"):
                pass
            with span("stage-1 fused", "stage"):
                pass
        assert len(tracer.find("stage")) == 2
        assert len(tracer.find("stage", name="read")) == 1
        assert len(tracer.find(name="stage-")) == 2

    def test_threads_get_distinct_tids(self):
        tracer = Tracer()

        def work():
            with span("thread-side", "task"):
                pass

        with tracing(tracer):
            with span("main-side", "task"):
                pass
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        tids = {recorded.tid for recorded in tracer.spans()}
        assert len(tids) == 2

    def test_len_counts_spans(self):
        tracer = Tracer()
        with tracing(tracer), span("a", "run"):
            with span("b", "stage"):
                pass
        assert len(tracer) == 2


class TestParentsAndSelfTime:
    def test_child_duration_leaves_the_parents_self_time(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("parent", "run") as parent:
                with span("child", "stage") as child:
                    pass
        assert child.parent is parent and parent.parent is None
        assert parent.child_seconds == child.duration
        assert parent.self_seconds == parent.duration - child.duration
        assert tracer.spans() == [child, parent]


class TestChromeExport:
    def _traced(self):
        tracer = Tracer()
        with tracing(tracer), span("run", "run", partitions=4):
            with span("stage-0 read", "stage"):
                pass
            with span("stage-1 fused", "stage"):
                pass
        return tracer

    def test_every_b_has_a_matching_e_and_required_keys(self):
        events = self._traced().chrome_events()
        pairs = list(iter_b_e_pairs(events))
        assert len(pairs) == 3
        for event in events:
            assert "ts" in event and "pid" in event and "tid" in event

    def test_metadata_events_name_process_and_threads(self):
        events = self._traced().chrome_events()
        meta = [event for event in events if event["ph"] == "M"]
        names = {event["name"] for event in meta}
        assert names == {"process_name", "thread_name"}

    def test_nesting_reconstructed_from_per_thread_order(self):
        events = self._traced().chrome_events()
        # The enclosing "run" span must open before and close after both
        # stage spans in per-thread event order (what viewers nest by).
        sequence = [
            (event["ph"], event["name"]) for event in events if event["ph"] in "BE"
        ]
        assert sequence[0] == ("B", "run")
        assert sequence[-1] == ("E", "run")

    def test_tie_break_orders_parent_around_child(self):
        # Construct spans with identical timestamps: the longer (parent)
        # span must still open first and close last.
        from repro.obs.tracer import Span

        parent = Span("parent", "run", 0.0, 2.0, tid=1, args={})
        child = Span("child", "run", 0.0, 2.0 - 1e-6, tid=1, args={})
        events = chrome_trace_events([child, parent])
        sequence = [
            (event["ph"], event["name"]) for event in events if event["ph"] in "BE"
        ]
        assert sequence == [
            ("B", "parent"),
            ("B", "child"),
            ("E", "child"),
            ("E", "parent"),
        ]

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().write_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert isinstance(payload["traceEvents"], list)
        list(iter_b_e_pairs(payload["traceEvents"]))  # raises on imbalance

    def test_write_jsonl_one_record_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = self._traced()
        tracer.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(tracer.spans())
        assert {record["name"] for record in records} == {
            "run",
            "stage-0 read",
            "stage-1 fused",
        }


class TestWellFormednessChecker:
    def test_rejects_unclosed_b(self):
        events = [{"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0}]
        with pytest.raises(ValueError, match="unclosed"):
            list(iter_b_e_pairs(events))

    def test_rejects_e_without_b(self):
        events = [{"ph": "E", "name": "a", "pid": 1, "tid": 1, "ts": 0}]
        with pytest.raises(ValueError, match="without open B"):
            list(iter_b_e_pairs(events))

    def test_rejects_mismatched_names(self):
        events = [
            {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "E", "name": "b", "pid": 1, "tid": 1, "ts": 1},
        ]
        with pytest.raises(ValueError, match="mismatched"):
            list(iter_b_e_pairs(events))


class TestActivation:
    def test_tracing_installs_and_restores(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with tracing(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_tracing_nests(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with tracing(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_means_null(self):
        previous = set_tracer(None)
        assert previous is NULL_TRACER
        assert get_tracer() is NULL_TRACER
