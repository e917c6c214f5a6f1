"""Unit tests for manipulatePath / accessPath / mergeTrees (Sec. 6.2)."""

from repro.core.backtrace.methods import (
    access_path,
    manipulate_paths,
    merge_trees,
    prune_output_residue,
    remove_sibling_positions,
)
from repro.core.backtrace.tree import BacktraceTree
from repro.core.paths import POS, parse_path
from repro.nested.schema import Schema
from repro.nested.types import BagType, STRING, StructType


def _tree(*paths, contributing=True):
    return BacktraceTree.from_paths(map(parse_path, paths), contributing)


class TestManipulatePaths:
    def test_select_projection_undone(self):
        """Select op 3: ``user.id_str -> id_str`` moves id_str back under user."""
        before = _tree("id_str")
        tree = manipulate_paths(
            before, [(parse_path("user.id_str"), parse_path("id_str"))], oid=3
        )
        assert before.find(parse_path("id_str")) is not None
        assert tree.find(parse_path("id_str")) is None
        node = tree.find(parse_path("user.id_str"))
        assert node is not None and node.manipulation == {3}

    def test_unmatched_pair_skipped(self):
        tree = _tree("other")
        assert manipulate_paths(tree, [(parse_path("a"), parse_path("b"))], oid=1) is tree

    def test_identity_pair_marks_without_moving(self):
        tree = manipulate_paths(_tree("text"), [(parse_path("text"), parse_path("text"))], oid=7)
        assert tree.find(parse_path("text")).manipulation == {7}

    def test_swap_is_safe(self):
        """Two-phase detach/graft survives a -> b plus b -> a renamings."""
        tree = access_path(_tree("a", "b"), parse_path("a"), oid=1)
        tree = access_path(tree, parse_path("b"), oid=2)
        tree = manipulate_paths(
            tree,
            [(parse_path("b"), parse_path("a")), (parse_path("a"), parse_path("b"))],
            oid=5,
        )
        assert tree.find(parse_path("a")).access == {2}
        assert tree.find(parse_path("b")).access == {1}

    def test_flatten_pair_creates_placeholder(self):
        """Flatten: ``user_mentions[pos] -> m_user`` (Ex. 6.5)."""
        tree = manipulate_paths(
            _tree("m_user.id_str"),
            [(parse_path("user_mentions[pos]"), parse_path("m_user"))],
            oid=5,
        )
        mentions = tree.find(parse_path("user_mentions"))
        assert mentions is not None
        assert POS in mentions.children
        assert tree.find(parse_path("user_mentions[pos].id_str")) is not None

    def test_queried_leaf_expands_through_output_path(self):
        """A queried leaf stands for its whole subtree: tweet -> tweet.text."""
        tree = manipulate_paths(
            _tree("tweet"), [(parse_path("text"), parse_path("tweet.text"))], oid=8
        )
        assert tree.find(parse_path("text")) is not None

    def test_no_expansion_through_nonleaf(self):
        tree = _tree("tweet.other")
        assert manipulate_paths(
            tree, [(parse_path("text"), parse_path("tweet.text"))], oid=8
        ) is tree

    def test_moved_subtree_marks_descendants(self):
        tree = manipulate_paths(
            _tree("user.id_str", "user.name"), [(parse_path("u2"), parse_path("user"))], oid=8
        )
        assert tree.find(parse_path("u2.id_str")).manipulation == {8}
        assert tree.find(parse_path("u2.name")).manipulation == {8}


class TestPruneOutputResidue:
    def test_empty_output_attr_removed(self):
        pairs = [(parse_path("text"), parse_path("tweet.text"))]
        tree = prune_output_residue(manipulate_paths(_tree("tweet"), pairs, oid=8), pairs)
        assert tree.find(parse_path("tweet")) is None

    def test_non_empty_output_attr_kept(self):
        tree = _tree("tweet.unrelated")
        pairs = [(parse_path("text"), parse_path("tweet.text"))]
        assert prune_output_residue(tree, pairs) is tree
        assert tree.find(parse_path("tweet.unrelated")) is not None

    def test_identity_named_attr_not_pruned(self):
        pairs = [(parse_path("text"), parse_path("text"))]
        tree = prune_output_residue(manipulate_paths(_tree("text"), pairs, oid=3), pairs)
        assert tree.find(parse_path("text")) is not None


class TestAccessPath:
    def test_existing_node_marked(self):
        tree = access_path(_tree("text"), parse_path("text"), oid=2)
        node = tree.find(parse_path("text"))
        assert node.access == {2}
        assert node.contributing

    def test_missing_node_created_as_influencing(self):
        tree = access_path(_tree("text"), parse_path("retweet_count"), oid=2)
        node = tree.find(parse_path("retweet_count"))
        assert node.access == {2}
        assert not node.contributing

    def test_struct_access_expands_children(self):
        """Example 6.6: grouping on ``user`` marks user *and its children*."""
        schema = Schema(
            StructType(
                [("user", StructType([("id_str", STRING), ("name", STRING)]))]
            )
        )
        tree = access_path(_tree("user.id_str"), parse_path("user"), oid=9, schema=schema)
        assert tree.find(parse_path("user")).access == {9}
        assert tree.find(parse_path("user.id_str")).access == {9}
        name = tree.find(parse_path("user.name"))
        assert name.access == {9}
        assert not name.contributing

    def test_placeholder_access_marks_existing_positions(self):
        tree = access_path(
            _tree("mentions[1].id_str", "mentions[3].id_str"), parse_path("mentions[pos]"), oid=5
        )
        assert tree.find(parse_path("mentions[1]")).access == {5}
        assert tree.find(parse_path("mentions[3]")).access == {5}

    def test_placeholder_access_creates_placeholder_when_absent(self):
        tree = access_path(_tree("text"), parse_path("mentions[pos]"), oid=5)
        mentions = tree.find(parse_path("mentions"))
        assert POS in mentions.children
        assert mentions.children[POS].access == {5}

    def test_collection_of_structs_expansion(self):
        schema = Schema(
            StructType(
                [("mentions", BagType(StructType([("id_str", STRING)])))]
            )
        )
        tree = access_path(_tree("other"), parse_path("mentions"), oid=4, schema=schema)
        assert tree.find(parse_path("mentions")).access == {4}


class TestMergeTrees:
    def test_substitutes_and_merges_by_id(self):
        """Ex. 6.5: two flattened rows of item 1 merge with positions 1, 2."""
        first = _tree("user_mentions[pos].id_str")
        second = _tree("user_mentions[pos].id_str")
        merged = merge_trees([(1, 1, first), (1, 2, second)])
        assert len(merged) == 1
        item_id, tree = merged[0]
        assert item_id == 1
        mentions = tree.find(parse_path("user_mentions"))
        assert set(mentions.children) == {1, 2}

    def test_distinct_ids_stay_separate(self):
        merged = merge_trees(
            [(1, 1, _tree("a[pos]")), (2, 1, _tree("a[pos]"))]
        )
        assert sorted(item_id for item_id, _ in merged) == [1, 2]

    def test_zero_position_keeps_placeholder(self):
        """Outer-flatten rows with empty collections carry pos=0."""
        merged = merge_trees([(1, 0, _tree("a[pos]"))])
        _, tree = merged[0]
        assert POS in tree.find(parse_path("a")).children


class TestRemoveSiblingPositions:
    def test_collection_node_removed(self):
        tree = remove_sibling_positions(
            _tree("tweets[2].text", "tweets[3].text"), parse_path("tweets")
        )
        assert tree.find(parse_path("tweets")) is None
