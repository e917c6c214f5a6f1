"""Unit tests for provenance result wrappers."""

import pytest

from repro.core.backtrace.result import ProvenanceEntry, ProvenanceResult, SourceResult
from repro.core.backtrace.methods import access_path, manipulate_paths
from repro.core.backtrace.tree import BacktraceTree
from repro.core.paths import parse_path
from repro.nested.values import DataItem


def _entry(item_id=1, contributing=("text",), influencing=("retweet_count",)):
    tree = BacktraceTree.from_paths(map(parse_path, contributing))
    for path in influencing:
        tree = access_path(tree, parse_path(path), oid=2)
    return ProvenanceEntry(item_id, DataItem(text="hi", retweet_count=0), tree)


class TestProvenanceEntry:
    def test_contributing_paths(self):
        assert _entry().contributing_paths() == ["text"]

    def test_influencing_paths(self):
        assert _entry().influencing_paths() == ["retweet_count"]

    def test_positional_path_rendering(self):
        entry = _entry(contributing=("tweets[2].text",), influencing=())
        assert entry.contributing_paths() == ["tweets", "tweets[2]", "tweets[2].text"]

    def test_accessed_by(self):
        assert _entry().accessed_by() == {"retweet_count": [2]}

    def test_manipulated_by(self):
        entry = _entry()
        entry.tree = manipulate_paths(entry.tree, [(parse_path("text"), parse_path("text"))], 3)
        assert entry.manipulated_by() == {"text": [3]}

    def test_render_has_header(self):
        assert _entry(item_id=42).render().startswith("id 42:")


class TestSourceResult:
    def _source(self):
        return SourceResult(1, "tweets.json", [_entry(3), _entry(1)])

    def test_ids_sorted(self):
        assert self._source().ids() == [1, 3]

    def test_iteration_sorted_by_id(self):
        assert [entry.item_id for entry in self._source()] == [1, 3]

    def test_entry_lookup(self):
        assert self._source().entry(3).item_id == 3
        with pytest.raises(KeyError):
            self._source().entry(9)

    def test_is_empty(self):
        assert SourceResult(1, "x", []).is_empty()
        assert not self._source().is_empty()


class TestProvenanceResult:
    def _result(self):
        return ProvenanceResult(
            [
                SourceResult(1, "tweets.json", [_entry(1)]),
                SourceResult(4, "tweets.json", [_entry(7)]),
                SourceResult(6, "users.json", []),
            ],
            matched_output_ids=[100],
        )

    def test_source_by_name_returns_first(self):
        assert self._result().source("tweets.json").oid == 1
        with pytest.raises(KeyError):
            self._result().source("missing")

    def test_all_ids_merges_same_name(self):
        assert self._result().all_ids() == {"tweets.json": [1, 7], "users.json": []}

    def test_lineage_ids(self):
        assert self._result().lineage_ids() == {1, 7}

    def test_render_marks_empty_sources(self):
        rendered = self._result().render()
        assert "(empty)" in rendered
        assert "== source tweets.json (operator 1) ==" in rendered
