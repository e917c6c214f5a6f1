"""Unit tests for tree-pattern matching over nested items (Sec. 6.1)."""

import pytest

from repro.core.treepattern.matcher import (
    match_item,
    match_rows,
    seed_structure,
)
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.pattern import TreePattern, child
from repro.nested.values import DataItem


@pytest.fixture
def item_102() -> DataItem:
    """Result item 102 of Tab. 2 (tweets as <text> structs)."""
    return DataItem(
        {
            "user": {"id_str": "lp", "name": "Lisa Paul"},
            "tweets": [
                {"text": "Hello @ls @jm @ls"},
                {"text": "Hello World"},
                {"text": "Hello World"},
                {"text": "Hello @lp"},
            ],
        }
    )


class TestChildEdges:
    def test_struct_attribute(self, item_102):
        paths = match_item(parse_pattern('root{/user{/id_str="lp"}}'), item_102)
        assert {str(path) for path in paths} == {"user", "user.id_str"}

    def test_collection_elements_matched_positionally(self, item_102):
        paths = match_item(
            parse_pattern('root{/tweets{/text="Hello @lp"}}'), item_102
        )
        assert "tweets[4].text" in {str(path) for path in paths}

    def test_value_mismatch_fails(self, item_102):
        assert match_item(parse_pattern('root{/user{/id_str="xx"}}'), item_102) is None

    def test_missing_attribute_fails(self, item_102):
        assert match_item(parse_pattern("root{/missing}"), item_102) is None


class TestDescendantEdges:
    def test_figure_4_id_str_found_at_depth(self, item_102):
        paths = match_item(parse_pattern('root{//id_str="lp"}'), item_102)
        assert {str(path) for path in paths} == {"user.id_str"}

    def test_descendant_through_collections(self):
        item = DataItem({"outer": [{"inner": [{"k": 7}]}]})
        paths = match_item(parse_pattern("root{//k=7}"), item)
        assert {str(path) for path in paths} == {"outer[1].inner[1].k"}

    def test_descendant_matches_multiple_sites(self, item_102):
        item = DataItem({"a": {"x": 1}, "b": {"x": 1}})
        paths = match_item(parse_pattern("root{//x=1}"), item)
        assert {str(path) for path in paths} == {"a.x", "b.x"}


class TestCounts:
    def test_figure_4_exact_count(self, item_102):
        pattern = parse_pattern('root{/tweets{/text="Hello World"[2,2]}}')
        paths = match_item(pattern, item_102)
        assert {str(path) for path in paths} >= {"tweets[2].text", "tweets[3].text"}

    def test_count_violation_fails(self, item_102):
        pattern = parse_pattern('root{/tweets{/text="Hello World"[3,3]}}')
        assert match_item(pattern, item_102) is None

    def test_zero_count_is_negation(self, item_102):
        pattern = parse_pattern('root{/tweets{/text="Nope"[0,0]}}')
        paths = match_item(pattern, item_102)
        assert paths == {p for p in paths}  # matches with no contributed paths

    def test_unbounded_count(self, item_102):
        pattern = parse_pattern('root{/tweets{/text="Hello World"[1,*]}}')
        assert match_item(pattern, item_102) is not None

    def test_count_applies_per_parent_context(self):
        item = DataItem({"groups": [{"vals": [1, 1]}, {"vals": [1]}]})
        # Exactly two 1s within one vals collection: first group qualifies.
        pattern = TreePattern.root(
            child("groups", child("vals", equals=1, count=(2, 2)))
        )
        paths = match_item(pattern, item)
        assert paths is not None
        rendered = {str(path) for path in paths}
        assert "groups[1].vals[1]" in rendered


class TestElementMatching:
    def test_primitive_collection_element(self):
        item = DataItem({"labels": ["a", "b"]})
        paths = match_item(parse_pattern('root{/labels="b"}'), item)
        assert {str(path) for path in paths} == {"labels[2]"}

    def test_whole_collection_without_constraint(self):
        item = DataItem({"labels": ["a", "b"]})
        paths = match_item(parse_pattern("root{/labels}"), item)
        assert {str(path) for path in paths} == {"labels"}


class TestPredicates:
    def test_callable_predicate(self):
        item = DataItem({"n": 7})
        pattern = TreePattern.root(child("n", predicate=lambda value: value > 5))
        assert match_item(pattern, item) is not None
        pattern = TreePattern.root(child("n", predicate=lambda value: value > 9))
        assert match_item(pattern, item) is None


class TestRowsAndSeeds:
    def test_match_rows_keeps_ids(self, item_102):
        other = DataItem({"user": {"id_str": "jm"}, "tweets": []})
        matches = match_rows(
            parse_pattern('root{//id_str="lp"}'), [(101, other), (102, item_102)]
        )
        assert [match.item_id for match in matches] == [102]

    def test_seed_structure_builds_contributing_trees(self, item_102):
        matches = match_rows(
            parse_pattern('root{/tweets{/text="Hello @lp"}}'), [(102, item_102)]
        )
        seeds = seed_structure(matches)
        tree = seeds.tree(102)
        node = tree.find(next(iter(matches[0].paths)))
        assert node is not None and node.contributing

    def test_seed_structure_skips_unidentified_rows(self, item_102):
        matches = match_rows(parse_pattern('root{//id_str="lp"}'), [(None, item_102)])
        assert seed_structure(matches).is_empty()
