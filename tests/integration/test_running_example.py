"""The paper's running example, end to end (Sec. 2, Tabs. 1-2, Figs. 1-4).

These tests pin the reproduction to the paper's published artefacts: the
pipeline result of Tab. 2, the provenance question of Fig. 4, and the
backtracing trees of Fig. 2.
"""

import pytest

from paperbench.lineage import LineageQuerier
from repro.nested.values import Bag, DataItem
from repro.pebble.query import query_provenance


def _result_by_user(execution):
    return {item["user"]["id_str"]: item for item in execution.items()}


class TestTable2Result:
    def test_three_distinct_users(self, captured_example):
        assert set(_result_by_user(captured_example)) == {"lp", "ls", "jm"}

    def test_lp_row_matches_table_2(self, captured_example):
        lp = _result_by_user(captured_example)["lp"]
        assert lp["user"] == DataItem(id_str="lp", name="Lisa Paul")
        texts = [tweet["text"] for tweet in lp["tweets"]]
        assert texts == [
            "Hello @ls @jm @ls",
            "Hello World",
            "Hello World",
            "Hello @lp",
        ]

    def test_ls_row_has_duplicate_mention_text(self, captured_example):
        ls = _result_by_user(captured_example)["ls"]
        texts = [tweet["text"] for tweet in ls["tweets"]]
        assert texts.count("Hello @ls @jm @ls") == 2

    def test_jm_row(self, captured_example):
        jm = _result_by_user(captured_example)["jm"]
        texts = sorted(tweet["text"] for tweet in jm["tweets"])
        assert texts == ["Hello @ls @jm @ls", "This is me @jm", "This is me @jm"]

    def test_tweets_are_nested_bags(self, captured_example):
        for item in captured_example.items():
            assert isinstance(item["tweets"], Bag)


class TestFigure4Query:
    def test_matches_only_lp_row(self, captured_example, example_pattern):
        provenance = query_provenance(captured_example, example_pattern)
        assert len(provenance.matched_output_ids) == 1
        matched = provenance.matched_output_ids[0]
        row = dict(captured_example.rows())[matched]
        assert row["user"]["id_str"] == "lp"


class TestFigure2Backtrace:
    @pytest.fixture
    def provenance(self, captured_example, example_pattern):
        return query_provenance(captured_example, example_pattern)

    def test_only_upper_read_contributes(self, provenance):
        upper, lower = provenance.sources
        assert upper.ids() == [2, 3]  # the two "Hello World" tweets (items 12, 17)
        assert lower.is_empty()

    def test_contributing_paths_match_figure_2(self, provenance):
        entry = provenance.sources[0].entry(2)
        assert entry.contributing_paths() == ["text", "user", "user.id_str"]

    def test_influencing_paths_match_figure_2(self, provenance):
        """retweet_cnt (filter) and user.name (grouping) influence the result."""
        entry = provenance.sources[0].entry(2)
        assert entry.influencing_paths() == ["retweet_count", "user.name"]

    def test_name_accessed_by_grouping_and_manipulated_by_selects(self, provenance):
        """Fig. 2: name is accessed by operator 9 and manipulated by 3 and 8."""
        entry = provenance.sources[0].entry(2)
        manipulated = entry.manipulated_by()["user.name"]
        accessed = entry.accessed_by()["user.name"]
        select_upper_oid = 3
        select_restructure_oid = 8
        group_oid = 9
        assert select_upper_oid in manipulated
        assert select_restructure_oid in manipulated
        assert group_oid in accessed

    def test_retweet_count_accessed_by_filter(self, provenance):
        entry = provenance.sources[0].entry(3)
        assert entry.accessed_by()["retweet_count"] == [2]

    def test_both_duplicate_tweets_have_identical_trees(self, provenance):
        first = provenance.sources[0].entry(2)
        second = provenance.sources[0].entry(3)
        assert first.tree.render() == second.tree.render()


class TestLineageComparison:
    def test_lineage_masks_the_duplicates(self, captured_example, example_pattern):
        """Sec. 2: lineage returns *all* tweets containing user lp."""
        provenance = query_provenance(captured_example, example_pattern)
        querier = LineageQuerier(captured_example.store)
        lineage = querier.backtrace_ids(
            captured_example.root.oid, set(provenance.matched_output_ids)
        )
        lineage_ids = set().union(*(source.ids for source in lineage))
        structural_ids = provenance.lineage_ids()
        # Structural provenance pinpoints {2, 3}; lineage additionally
        # returns tweet 1 (authored by lp) and tweet 5 (mentions lp).
        assert structural_ids == {2, 3}
        assert structural_ids < lineage_ids
        assert {1, 2, 3} <= lineage_ids


class TestMentionBranchQuery:
    def test_flattened_mention_is_pinpointed(self, captured_example):
        """Tracing jm's 'Hello @ls @jm @ls' goes through the lower branch to
        the second entry of tweet 1's user_mentions."""
        provenance = query_provenance(
            captured_example,
            'root{/user{/id_str="jm"}, /tweets{/text="Hello @ls @jm @ls"}}',
        )
        upper, lower = provenance.sources
        assert upper.is_empty()
        # Identifiers are assigned in execution order; the second read's
        # items carry ids 14-18, so tweet 1 of Tab. 1 is id 14 here.
        assert lower.ids() == [14]
        entry = lower.entry(14)
        assert "user_mentions[2].id_str" in entry.contributing_paths()
