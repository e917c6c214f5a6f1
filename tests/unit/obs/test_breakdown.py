"""Unit tests for the explain-analyze query breakdown: a fold over spans."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.breakdown import PHASES, QueryBreakdown, render_breakdown
from repro.obs.slowlog import explained
from repro.obs.tracer import (
    _NULL_SPAN,
    Recorder,
    count,
    recording,
    span,
    timed,
)

#: Categories no phase is named after: their time is their ancestors'.
TRANSPARENT = ("backtrace", "warehouse", "serve", "audit")


def _analyze(body) -> QueryBreakdown:
    breakdown = QueryBreakdown()
    with explained("test", "", breakdown=breakdown):
        body()
    return breakdown


class TestPhaseAccounting:
    def test_phases_sum_exactly_to_total(self):
        def body():
            with span("match", "pattern_match"):
                time.sleep(0.002)
            with span("walk", "closure"):
                time.sleep(0.001)

        breakdown = _analyze(body)
        assert breakdown.total_seconds > 0
        # Self times tile the root span, so the sum is the total by
        # construction.
        assert breakdown.phase_sum() == pytest.approx(
            breakdown.total_seconds, rel=1e-9
        )

    def test_unattributed_time_lands_in_other(self):
        breakdown = _analyze(lambda: time.sleep(0.002))
        assert breakdown.phases.get("other", 0) > 0

    def test_nested_phases_are_exclusive(self):
        def body():
            with span("open", "load"):
                time.sleep(0.002)
                with span("read", "segment_decode"):
                    time.sleep(0.002)

        breakdown = _analyze(body)
        assert breakdown.phases["load"] >= 0.002
        assert breakdown.phases["segment_decode"] >= 0.002
        # The child's time moved out of the parent, not counted twice.
        assert breakdown.phases["load"] < breakdown.total_seconds - 0.002
        assert breakdown.phase_sum() == pytest.approx(
            breakdown.total_seconds, rel=1e-9
        )

    def test_transparent_span_books_to_its_nearest_phase_ancestor(self):
        def body():
            with span("walk", "closure"):
                with span("toposort", "backtrace"):
                    time.sleep(0.002)
            with span("query", "warehouse"):
                time.sleep(0.002)

        breakdown = _analyze(body)
        assert set(breakdown.phases) == {"closure", "other"}
        assert breakdown.phases["closure"] >= 0.002
        assert breakdown.phases["other"] >= 0.002

    def test_counters_accumulate_numbers(self):
        breakdown = QueryBreakdown()
        breakdown.count(rows_visited=3, matched=1)
        breakdown.count(rows_visited=2, index_used=True)
        assert breakdown.counters["rows_visited"] == 5
        assert breakdown.counters["matched"] == 1
        assert breakdown.counters["index_used"] is True

    def test_to_json_orders_phases_canonically(self):
        def body():
            with span("walk", "closure"):
                pass
            with span("open", "load"):
                pass

        breakdown = _analyze(body)
        payload = breakdown.to_json()
        observed = list(payload["phases"])
        assert observed == [name for name in PHASES if name in observed]
        assert payload["total_seconds"] == breakdown.total_seconds


class TestNothingRecording:
    """With no recorder and no tracer, spans and counters cost nothing."""

    def test_null_is_the_default_and_free(self):
        first = span("match", "pattern_match")
        second = span("walk", "closure", rows=3)
        assert first is second is _NULL_SPAN
        with first as handle:
            handle.set(rows=7)  # swallowed
        count(rows_visited=100)  # a no-op, records nothing

    def test_activate_installs_and_restores(self):
        outer, inner = Recorder(), Recorder()
        with recording(outer):
            with span("a", "load"):
                pass
            with recording(inner):
                with span("b", "closure"):
                    pass
                count(matched=2)
            with span("c", "load"):
                pass
        assert span("d", "load") is _NULL_SPAN
        # An inner recorder adds a sink; the outer one keeps seeing spans.
        assert [s.name for s in outer.spans()] == ["a", "b", "c"]
        assert [s.name for s in inner.spans()] == ["b"]
        # Counters go to the innermost recorder only.
        assert inner.counters == {"matched": 2}
        assert outer.counters == {}


class TestRendering:
    def test_render_shows_phases_and_counters(self):
        def body():
            with span("match", "pattern_match"):
                time.sleep(0.001)
            count(rows_visited=7)

        text = render_breakdown(_analyze(body).to_json())
        assert "query breakdown:" in text
        assert "pattern_match" in text
        assert "rows_visited=7" in text


# -- the fold as a property ---------------------------------------------------

_CATEGORIES = st.sampled_from(PHASES + TRANSPARENT)


def _trees(depth: int):
    leaf = st.tuples(_CATEGORIES, st.just(()))
    if depth == 0:
        return leaf
    return st.one_of(
        leaf, st.tuples(_CATEGORIES, st.lists(_trees(depth - 1), max_size=3))
    )


class TestFoldProperty:
    @settings(max_examples=60, deadline=None)
    @given(forest=st.lists(_trees(3), max_size=4))
    def test_phases_are_the_self_times_of_nearest_phase_ancestors(self, forest):
        """Random nested spans on one thread: the folded phases sum to the
        total, and each span's self time lands in its own category when that
        is a phase, else in its nearest phase ancestor's, else in ``other``."""
        expected: dict[str, float] = {}

        def run(node, owner):
            category, children = node
            if category in PHASES:
                owner = category
            with span(f"span {category}", category) as handle:
                child_seconds = sum(run(child, owner) for child in children)
            expected[owner] = expected.get(owner, 0.0) + handle.duration - child_seconds
            return handle.duration

        top: list[float] = []
        breakdown = _analyze(lambda: top.extend(run(tree, "other") for tree in forest))
        expected["other"] = expected.get("other", 0.0) + breakdown.total_seconds - sum(top)

        assert breakdown.phase_sum() == pytest.approx(
            breakdown.total_seconds, rel=1e-12, abs=1e-12
        )
        assert set(breakdown.phases) == set(expected)
        for phase, seconds in expected.items():
            assert breakdown.phases[phase] == pytest.approx(seconds, abs=1e-9)

    def test_two_threads_recorders_never_mix(self):
        barrier = threading.Barrier(2, timeout=10)
        results: dict[str, QueryBreakdown] = {}

        def worker(name: str, category: str) -> None:
            def body():
                barrier.wait()
                for _ in range(20):
                    with span(name, category):
                        time.sleep(0.0002)
                count(**{name: 1})
                barrier.wait()

            results[name] = _analyze(body)

        threads = [
            threading.Thread(target=worker, args=("left", "closure")),
            threading.Thread(target=worker, args=("right", "load")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert set(results["left"].phases) == {"closure", "other"}
        assert set(results["right"].phases) == {"load", "other"}
        assert results["left"].counters == {"left": 1}
        assert results["right"].counters == {"right": 1}


class TestTimed:
    def test_timed_reads_the_clock_but_records_nothing_when_off(self):
        with timed("run", "run") as handle:
            time.sleep(0.001)
        assert handle.duration >= 0.001
        assert handle.span_id is None  # no recorder: no exemplar id

    def test_timed_is_recorded_like_any_span_when_on(self):
        recorder = Recorder()
        with recording(recorder), timed("run", "run") as handle:
            pass
        assert recorder.spans() == [handle]
        assert handle.span_id is not None
