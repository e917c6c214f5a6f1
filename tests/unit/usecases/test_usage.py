"""Unit tests for the data-usage pattern analysis (Fig. 10)."""

import pytest

from repro.core.usecases.usage import UsageAnalysis
from repro.engine.expressions import col, collect_list
from repro.engine.session import Session
from repro.pebble.query import query_provenance


@pytest.fixture
def analysis() -> UsageAnalysis:
    """Provenance of two queries over a small pipeline."""
    usage = UsageAnalysis()
    data = [
        {"key": "k1", "title": "alpha", "year": 2015, "secret": "s1"},
        {"key": "k2", "title": "beta", "year": 2016, "secret": "s2"},
        {"key": "k3", "title": "gamma", "year": 2015, "secret": "s3"},
    ]

    def run(pattern):
        session = Session()
        ds = (
            session.create_dataset(data, "records")
            .filter(col("year") == 2015)
            .select(col("key"), col("title"))
        )
        usage.add(query_provenance(ds.execute(capture=True), pattern))

    run('root{/key="k1"}')
    run('root{/title="gamma"}')
    return usage


class TestAccumulation:
    def test_query_count(self, analysis):
        assert analysis.query_count == 2

    def test_hot_items(self, analysis):
        hot = dict(analysis.hot_items("records"))
        assert hot == {1: 1, 3: 1}

    def test_cold_items(self, analysis):
        assert analysis.cold_items("records", universe=[1, 2, 3]) == [2]

    def test_hot_attributes_are_contributing(self, analysis):
        hot = dict(analysis.hot_attributes("records"))
        assert "key" in hot and "title" in hot
        assert "secret" not in hot

    def test_influencing_only_year(self, analysis):
        """``year`` is accessed by the filter but never contributes --
        the Fig. 10 observation that drives the reconstruction-risk point."""
        influencing = dict(analysis.influencing_only_attributes("records"))
        assert "year" in influencing

    def test_cold_attributes(self, analysis):
        cold = analysis.cold_attributes("records", ["key", "title", "year", "secret"])
        assert cold == ["secret"]


class TestHeatmap:
    def test_matrix_counts(self, analysis):
        rows = analysis.heatmap("records", [1, 2, 3], ["key", "title", "year"])
        by_id = {row.item_id: row for row in rows}
        assert by_id[1].item_uses == 1
        assert by_id[2].item_uses == 0
        assert by_id[1].attribute_counts["key"] == 1
        assert by_id[2].attribute_counts["key"] == 0

    def test_render(self, analysis):
        rendered = analysis.render_heatmap("records", [1, 2, 3], ["key", "year"])
        lines = rendered.splitlines()
        assert lines[0].split() == ["id", "item", "key", "year"]
        assert len(lines) == 4

    def test_co_accessed_pairs(self, analysis):
        pairs = dict(analysis.co_accessed_pairs("records"))
        assert pairs.get(("key", "title"), 0) >= 1

    def test_partitioning_advice_mentions_vertical(self, analysis):
        advice = analysis.partitioning_advice(
            "records", ["key", "title", "year", "secret", "a", "b", "c"]
        )
        assert "vertical" in advice
        assert "year" in advice


class TestAggregatedWorkload:
    def test_nested_attributes_roll_up_to_top_level(self):
        usage = UsageAnalysis()
        session = Session()
        data = [{"grp": "g", "vals": [1, 2]}]
        ds = (
            session.create_dataset(data, "in")
            .flatten("vals", "v")
            .group_by(col("grp"))
            .agg(collect_list(col("v")).alias("collected"))
        )
        usage.add(query_provenance(ds.execute(capture=True), 'root{/grp="g", /collected}'))
        hot = dict(analysis_hot := usage.hot_attributes("in"))
        assert "vals" in hot


class TestShadedHeatmap:
    def test_glyphs_encode_intensity(self, analysis):
        rendered = analysis.render_heatmap_shaded("records", [1, 2, 3], ["key", "year"])
        lines = rendered.splitlines()
        assert len(lines) == 4
        # Item 2 never contributed: its row is entirely cold dots.
        cold_row = next(line for line in lines[1:] if line.lstrip().startswith("2"))
        assert "░" not in cold_row and "█" not in cold_row
        assert "." in cold_row
        # Item 1 contributed: its row carries at least one shade glyph.
        hot_row = next(line for line in lines[1:] if line.lstrip().startswith("1"))
        assert any(shade in hot_row for shade in "░▒▓█")

    def test_empty_selection(self, analysis):
        rendered = analysis.render_heatmap_shaded("records", [], ["key"])
        assert rendered.splitlines()[0].strip().endswith("key")
