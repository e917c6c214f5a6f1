"""Unit tests for the scenario registry and builders (Tab. 7)."""

import pytest

from repro.core.treepattern.parser import parse_pattern
from repro.engine.session import Session
from repro.errors import WorkloadError
from repro.workloads.scenarios import (
    DBLP_SCENARIOS,
    SCENARIOS,
    TWITTER_SCENARIOS,
    load_workload,
    scenario,
)


class TestRegistry:
    def test_registered_scenarios(self):
        assert len(SCENARIOS) == 12
        # The GDPR audit (G prefix) and streaming (S prefix) scenarios stay
        # out of the paper's T/D evaluation tables.
        assert TWITTER_SCENARIOS == ("T1", "T2", "T3", "T4", "T5")
        assert DBLP_SCENARIOS == ("D1", "D2", "D3", "D4", "D5")
        assert scenario("G1").kind == "twitter"

    def test_lookup(self):
        assert scenario("T3").description == "running example"
        with pytest.raises(WorkloadError, match="unknown scenario"):
            scenario("T9")

    def test_patterns_parse(self):
        for spec in SCENARIOS.values():
            parse_pattern(spec.pattern)

    def test_load_workload_memoises(self):
        first = load_workload("twitter", 0.05)
        second = load_workload("twitter", 0.05)
        assert first is second

    def test_load_workload_unknown_kind(self):
        with pytest.raises(WorkloadError):
            load_workload("movies", 1.0)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestScenarioExecution:
    def test_builds_and_runs(self, name):
        spec = scenario(name)
        dataset = spec.instantiate(scale=0.2)
        items = dataset.collect()
        assert items, f"scenario {name} produced no result at scale 0.2"

    def test_pattern_matches_result(self, name):
        """Every scenario's structural query has matches (sentinel values)."""
        spec = scenario(name)
        dataset = spec.instantiate(scale=0.2)
        execution = dataset.execute(capture=True)
        from repro.core.treepattern.matcher import match_rows

        matches = match_rows(parse_pattern(spec.pattern), execution.rows())
        assert matches, f"pattern of {name} matched nothing"

    def test_capture_does_not_change_result(self, name):
        spec = scenario(name)
        data = load_workload(spec.kind, 0.2)
        plain = spec.build(Session(), data).execute(capture=False)
        captured = spec.build(Session(), data).execute(capture=True)
        assert sorted(map(repr, plain.items())) == sorted(map(repr, captured.items()))
