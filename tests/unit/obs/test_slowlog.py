"""Unit tests for slow-query capture: threshold, ring buffer, event shape."""

import io
import json
import logging

import pytest

from repro.obs.log import LOGGER_NAME, enable
from repro.obs.slowlog import (
    SLOW_QUERY_ENV,
    SlowQueryLog,
    get_slow_log,
    observe_query,
    set_slow_log,
    slow_threshold_seconds,
)


@pytest.fixture
def ring():
    """A fresh process-wide ring; restores the previous one afterwards."""
    fresh = SlowQueryLog()
    previous = set_slow_log(fresh)
    yield fresh
    set_slow_log(previous)


class TestThreshold:
    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(SLOW_QUERY_ENV, raising=False)
        assert slow_threshold_seconds() is None

    def test_empty_and_garbage_disable(self, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "  ")
        assert slow_threshold_seconds() is None
        monkeypatch.setenv(SLOW_QUERY_ENV, "fast")
        assert slow_threshold_seconds() is None
        monkeypatch.setenv(SLOW_QUERY_ENV, "-5")
        assert slow_threshold_seconds() is None

    def test_zero_captures_everything(self, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "0")
        assert slow_threshold_seconds() == 0.0

    def test_millis_convert_to_seconds(self, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "250")
        assert slow_threshold_seconds() == pytest.approx(0.25)


class TestRing:
    def test_bounded_and_newest_first(self):
        ring = SlowQueryLog(maxlen=3)
        for index in range(5):
            ring.record({"seconds": index})
        assert len(ring) == 3
        assert ring.total == 5
        assert [entry["seconds"] for entry in ring.snapshot()] == [4, 3, 2]

    def test_clear_resets_total(self):
        ring = SlowQueryLog()
        ring.record({"seconds": 1})
        ring.clear()
        assert len(ring) == 0 and ring.total == 0

    def test_set_slow_log_swaps_process_ring(self, ring):
        assert get_slow_log() is ring


class TestObserveQuery:
    def test_under_budget_records_nothing(self, ring, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "1000")
        assert observe_query("backtrace", "run-1", "root{}", 0.001) is False
        assert len(ring) == 0

    def test_disabled_records_nothing(self, ring, monkeypatch):
        monkeypatch.delenv(SLOW_QUERY_ENV, raising=False)
        assert observe_query("backtrace", "run-1", "root{}", 99.0) is False
        assert len(ring) == 0

    def test_over_budget_records_entry_and_event(self, ring, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "0")
        logger = logging.getLogger(LOGGER_NAME)
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        stream = io.StringIO()
        enable(stream)

        breakdown = {"total_seconds": 0.5, "phases": {"other": 0.5}, "counters": {}}
        assert observe_query(
            "forward", "run-9", 'root{//id="x"}', 0.5, breakdown=breakdown,
        ) is True

        entry = ring.snapshot()[0]
        assert entry["kind"] == "forward"
        assert entry["run_id"] == "run-9"
        assert entry["pattern"] == 'root{//id="x"}'
        assert "method" not in entry
        assert entry["seconds"] == 0.5
        assert entry["threshold_ms"] == 0.0
        assert entry["breakdown"] == breakdown

        event = json.loads(stream.getvalue())
        assert event["event"] == "slow-query"
        assert event["run_id"] == "run-9"
        assert event["kind"] == "forward"
        assert event["threshold_ms"] == 0.0
        assert event["breakdown"]["total_seconds"] == 0.5

    def test_explicit_threshold_wins_over_env(self, ring, monkeypatch):
        monkeypatch.delenv(SLOW_QUERY_ENV, raising=False)
        assert observe_query(
            "backtrace", "run-1", "root{}", 0.2, threshold=0.1
        ) is True
        assert ring.total == 1
