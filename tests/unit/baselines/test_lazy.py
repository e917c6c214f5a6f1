"""Unit tests for the PROVision-style lazy provenance querier."""

from repro.baselines.lazy import LazyProvenanceQuerier
from repro.engine.expressions import col
from repro.engine.session import Session
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN, build_running_example


class TestLazyQuerier:
    def test_source_count_matches_reads(self, session, example_tweets):
        pipeline = build_running_example(session, example_tweets)
        assert LazyProvenanceQuerier(pipeline).source_count() == 2

    def test_equivalent_ids_to_eager(self, session, example_tweets):
        pipeline = build_running_example(session, example_tweets)
        eager = query_provenance(pipeline.execute(capture=True), RUNNING_EXAMPLE_PATTERN)
        lazy = LazyProvenanceQuerier(pipeline).query(RUNNING_EXAMPLE_PATTERN)
        assert lazy.all_ids() == eager.all_ids()

    def test_equivalent_trees_to_eager(self, session, example_tweets):
        pipeline = build_running_example(session, example_tweets)
        eager = query_provenance(pipeline.execute(capture=True), RUNNING_EXAMPLE_PATTERN)
        lazy = LazyProvenanceQuerier(pipeline).query(RUNNING_EXAMPLE_PATTERN)
        eager_entry = eager.sources[0].entries[0]
        lazy_entry = lazy.sources[0].entries[0]
        assert eager_entry.tree.render() == lazy_entry.tree.render()

    def test_single_input_pipeline(self):
        session = Session()
        ds = session.create_dataset([{"a": 1}, {"a": 2}], "in").filter(col("a") == 1)
        querier = LazyProvenanceQuerier(ds)
        assert querier.source_count() == 1
        result = querier.query("root{/a=1}")
        assert result.all_ids() == {"in": [1]}

    def test_no_capture_needed_before_query(self):
        """The lazy querier works on a never-executed pipeline."""
        session = Session()
        ds = session.create_dataset([{"a": 7}], "in").select(col("a"))
        result = LazyProvenanceQuerier(ds).query("root{/a=7}")
        assert result.all_ids() == {"in": [1]}
