"""Explain-analyze and slow-query capture, end to end.

Pins the PR's acceptance properties: breakdown phase times sum to the
measured total (within 5%) on backtrace and forward, query answers are
byte-identical with and without analysis attached, and an injected-delay
query surfaces in ``/debug/slow`` and ``repro stats --slow``.
"""

from __future__ import annotations

import json
import time

import pytest

import repro
from repro.cli import main as cli_main
from repro.obs.breakdown import PHASES, QueryBreakdown
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SLOW_QUERY_ENV, SlowQueryLog, set_slow_log
from repro.serve import ProvenanceServer, QueryService, ServeConfig
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN


@pytest.fixture
def recorded(captured_example, tmp_path):
    """The running example in a warehouse; returns (warehouse, run_id)."""
    warehouse = Warehouse.open(tmp_path / "wh")
    record = warehouse.record(captured_example, name="example")
    return warehouse, record.run_id


@pytest.fixture
def ring():
    fresh = SlowQueryLog()
    previous = set_slow_log(fresh)
    yield fresh
    set_slow_log(previous)


def _assert_sums(breakdown: QueryBreakdown) -> None:
    assert breakdown.total_seconds > 0
    assert set(breakdown.phases) <= set(PHASES)
    deviation = abs(breakdown.phase_sum() - breakdown.total_seconds)
    assert deviation <= 0.05 * breakdown.total_seconds


class TestBreakdownSums:
    def test_backtrace_phases_sum_to_total(self, recorded):
        warehouse, run_id = recorded
        breakdown = QueryBreakdown()
        warehouse.backtrace(run_id, RUNNING_EXAMPLE_PATTERN, breakdown=breakdown)
        _assert_sums(breakdown)
        assert breakdown.phases["segment_decode"] > 0
        assert breakdown.counters["segments_decoded"] > 0

    def test_forward_phases_sum_to_total(self, recorded):
        warehouse, run_id = recorded
        breakdown = QueryBreakdown()
        result = warehouse.forward(run_id, 'root{//id_str="lp"}', breakdown=breakdown)
        _assert_sums(breakdown)
        assert breakdown.counters["outputs"] == len(result.output_ids)


class TestAnswersUnchanged:
    def test_backtrace_identical_with_and_without_analyze(self, recorded):
        warehouse, run_id = recorded
        plain, _ = warehouse.backtrace(run_id, RUNNING_EXAMPLE_PATTERN)
        analyzed, _ = warehouse.backtrace(
            run_id, RUNNING_EXAMPLE_PATTERN, breakdown=QueryBreakdown()
        )
        assert analyzed.matched_output_ids == plain.matched_output_ids
        assert analyzed.render() == plain.render()

    def test_forward_identical_with_and_without_analyze(self, recorded):
        warehouse, run_id = recorded
        plain = warehouse.forward(run_id, 'root{//id_str="lp"}')
        analyzed = warehouse.forward(
            run_id, 'root{//id_str="lp"}', breakdown=QueryBreakdown()
        )
        assert json.dumps(analyzed.to_json(), sort_keys=True) == json.dumps(
            plain.to_json(), sort_keys=True
        )


class TestServedAnalyze:
    def test_query_analyze_block_and_identical_result(self, recorded, ring):
        warehouse, run_id = recorded
        service = QueryService.open(
            ServeConfig(root=str(warehouse.root), port=0),
            registry=MetricsRegistry(),
        )
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url)
            plain = client.backtrace(RUNNING_EXAMPLE_PATTERN)
            analyzed = client.backtrace(RUNNING_EXAMPLE_PATTERN, analyze=True)
            assert "analyze" not in plain
            block = analyzed["analyze"]
            total = block["total_seconds"]
            assert total > 0
            assert abs(sum(block["phases"].values()) - total) <= 0.05 * total
            assert analyzed["result"] == plain["result"]
            # Analyze bypasses the pattern-result cache.
            assert analyzed["server"]["cached"] is False

    def test_forward_analyze_block(self, recorded, ring):
        warehouse, run_id = recorded
        service = QueryService.open(
            ServeConfig(root=str(warehouse.root), port=0),
            registry=MetricsRegistry(),
        )
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url)
            payload = client.forward('root{//id_str="lp"}', analyze=True)
            block = payload["analyze"]
            total = block["total_seconds"]
            assert total > 0
            assert abs(sum(block["phases"].values()) - total) <= 0.05 * total


class TestSlowQueryCapture:
    def test_injected_delay_reaches_debug_slow(self, recorded, ring, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "10")
        warehouse, run_id = recorded
        service = QueryService.open(
            ServeConfig(root=str(warehouse.root), port=0),
            registry=MetricsRegistry(),
        )
        service.query_hook = lambda: time.sleep(0.05)
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url)
            client.backtrace(RUNNING_EXAMPLE_PATTERN)
            slow = client.debug_slow()
        assert slow["threshold_ms"] == 10.0
        assert slow["total"] >= 1
        entry = slow["entries"][0]
        assert entry["kind"] == "query"
        assert entry["run_id"] == run_id
        assert entry["seconds"] >= 0.05
        # The injected delay is unattributed work: it must land in the
        # breakdown (as "other"), keeping phase sums honest.
        assert entry["breakdown"]["phases"]["other"] >= 0.04

    def test_fast_queries_stay_out(self, recorded, ring, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "60000")
        warehouse, run_id = recorded
        warehouse.backtrace(run_id, RUNNING_EXAMPLE_PATTERN)
        assert len(ring) == 0

    def test_stats_slow_cli_local(self, recorded, ring, monkeypatch, capsys):
        monkeypatch.setenv(SLOW_QUERY_ENV, "0")
        warehouse, run_id = recorded
        assert cli_main([
            "stats", run_id, "--root", str(warehouse.root),
            "--pattern", RUNNING_EXAMPLE_PATTERN, "--slow",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold_ms"] == 0.0
        assert payload["total"] >= 1
        assert payload["entries"][0]["kind"] == "backtrace"
        assert payload["entries"][0]["run_id"] == run_id

    def test_stats_slow_cli_remote(self, recorded, ring, monkeypatch, capsys):
        monkeypatch.setenv(SLOW_QUERY_ENV, "0")
        warehouse, run_id = recorded
        service = QueryService.open(
            ServeConfig(root=str(warehouse.root), port=0),
            registry=MetricsRegistry(),
        )
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url)
            client.backtrace(RUNNING_EXAMPLE_PATTERN)
            assert cli_main(["stats", "--remote", server.url, "--slow"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] >= 1
        assert payload["entries"][0]["kind"] == "query"


class TestAnalyzeCli:
    def test_warehouse_query_analyze_prints_breakdown(
        self, recorded, capsys
    ):
        warehouse, run_id = recorded
        assert cli_main([
            "warehouse", "query", run_id, RUNNING_EXAMPLE_PATTERN,
            "--root", str(warehouse.root), "--analyze",
        ]) == 0
        out = capsys.readouterr().out
        assert "query breakdown:" in out
        assert "segment_decode" in out

    def test_trace_forward_analyze_prints_breakdown(self, recorded, capsys):
        warehouse, run_id = recorded
        assert cli_main([
            "trace-forward", run_id, "--pattern", 'root{//id_str="lp"}',
            "--root", str(warehouse.root), "--analyze",
        ]) == 0
        out = capsys.readouterr().out
        assert "query breakdown:" in out

    def test_trace_forward_analyze_json(self, recorded, capsys):
        warehouse, run_id = recorded
        assert cli_main([
            "trace-forward", run_id, "--pattern", 'root{//id_str="lp"}',
            "--root", str(warehouse.root), "--analyze", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "analyze" in payload
        assert payload["analyze"]["total_seconds"] > 0
