"""Unit tests for backtracing trees and structures (Defs. 6.2, 6.3).

Trees are immutable: every edit returns a new tree and leaves its argument
as it was, and inside an ``interning()`` block equal nodes are one object.
"""

import copy
import pickle

import pytest

from repro.core.backtrace.methods import access_path
from repro.core.backtrace.tree import (
    BacktraceNode,
    BacktraceStructure,
    BacktraceTree,
    interning,
)
from repro.core.paths import POS, parse_path
from repro.errors import BacktraceError


def _tree(*paths, contributing=True):
    return BacktraceTree.from_paths(map(parse_path, paths), contributing)


class TestEnsureFind:
    def test_ensure_creates_chain(self):
        tree = BacktraceTree().ensure_path(parse_path("user.id_str"), contributing=True)
        assert tree.find(parse_path("user.id_str")).label == "id_str"
        assert tree.find(parse_path("user")) is not None

    def test_positions_become_child_nodes(self):
        tree = BacktraceTree().ensure_path(parse_path("tweets[2].text"), contributing=True)
        tweets = tree.find(parse_path("tweets"))
        assert set(tweets.children) == {2}
        assert tree.find(parse_path("tweets[2].text")) is not None

    def test_placeholder_nodes(self):
        tree = BacktraceTree().ensure_path(parse_path("mentions[pos].id_str"), contributing=True)
        mentions = tree.find(parse_path("mentions"))
        assert POS in mentions.children

    def test_find_missing_returns_none(self):
        assert BacktraceTree().find(parse_path("missing")) is None

    def test_contributing_upgraded_never_downgraded(self):
        tree = BacktraceTree().ensure_path(parse_path("a"), contributing=False)
        assert not tree.find(parse_path("a")).contributing
        tree = tree.ensure_path(parse_path("a"), contributing=True)
        assert tree.find(parse_path("a")).contributing
        tree = tree.ensure_path(parse_path("a"), contributing=False)
        assert tree.find(parse_path("a")).contributing

    def test_from_paths_equals_ensuring_each_path(self):
        paths = [parse_path(p) for p in ("user.id_str", "tweets[2].text", "tweets[pos]")]
        tree = BacktraceTree()
        for path in paths:
            tree = tree.ensure_path(path, contributing=True)
        assert BacktraceTree.from_paths(paths) == tree


class TestDetachGraft:
    def test_detach_returns_subtree(self):
        tree = _tree("user.name")
        rest, subtree = tree.detach(parse_path("user.name"))
        assert subtree.label == "name"
        assert rest.find(parse_path("user.name")) is None
        assert rest.find(parse_path("user")) is not None
        assert tree.find(parse_path("user.name")) is subtree

    def test_detach_missing_returns_none(self):
        tree = BacktraceTree()
        assert tree.detach(parse_path("a.b")) == (tree, None)

    def test_detach_root_rejected(self):
        with pytest.raises(BacktraceError):
            BacktraceTree().detach(parse_path(""))

    def test_graft_creates_scaffolding(self):
        subtree = BacktraceNode("id_str", contributing=True)
        tree = BacktraceTree().graft(parse_path("user.id_str"), subtree)
        assert tree.find(parse_path("user")).contributing
        assert tree.find(parse_path("user.id_str")) is subtree

    def test_graft_merges_into_existing(self):
        tree = access_path(_tree("user", contributing=False), parse_path("user"), oid=1)
        incoming = BacktraceNode("user", contributing=True, manipulation={2})
        merged = tree.graft(parse_path("user"), incoming).find(parse_path("user"))
        assert merged.contributing
        assert merged.access == {1}
        assert merged.manipulation == {2}
        assert not tree.find(parse_path("user")).contributing

    def test_remove(self):
        tree = _tree("a.b").remove(parse_path("a.b"))
        assert tree.find(parse_path("a.b")) is None
        assert tree.remove(parse_path("never.there")) is tree  # no-op


class TestCopyMerge:
    def test_edits_leave_the_original(self):
        tree = access_path(_tree("a.b"), parse_path("a.b"), oid=1)
        edited = access_path(tree, parse_path("a.b"), oid=2)
        assert edited.find(parse_path("a.b")).access == {1, 2}
        assert tree.find(parse_path("a.b")).access == {1}
        node = tree.find(parse_path("a"))
        with pytest.raises(AttributeError):
            node.access.add(3)
        with pytest.raises(TypeError):
            node.children["c"] = node

    def test_merge_unions_marks(self):
        left = access_path(_tree("a", contributing=False), parse_path("a"), oid=1)
        right = _tree("b").graft(parse_path("a"), BacktraceNode("a", manipulation={2}))
        node = left.union(right).find(parse_path("a"))
        assert node.contributing and node.access == {1} and node.manipulation == {2}
        assert left.union(right).find(parse_path("b")) is not None
        assert left.union(left) is left

    def test_mark_subtree_manipulated(self):
        tree = _tree("user.name")
        user = tree.find(parse_path("user")).with_manipulation(9)
        assert user.manipulation == {9}
        assert user.child("name").manipulation == {9}
        assert tree.find(parse_path("user")).manipulation == frozenset()


class TestPlaceholders:
    def test_substitute_placeholders(self):
        tree = _tree("mentions[pos].id_str").substitute_placeholders(3)
        assert tree.find(parse_path("mentions[3].id_str")) is not None
        assert POS not in tree.find(parse_path("mentions")).children

    def test_substitute_merges_with_existing_position(self):
        tree = _tree("mentions[2].id_str", contributing=False).union(
            _tree("mentions[pos].name")
        )
        node = tree.substitute_placeholders(2).find(parse_path("mentions[2]"))
        assert set(node.children) == {"id_str", "name"}


class TestInterning:
    def test_equal_nodes_are_one_object_inside_a_block(self):
        with interning():
            first = _tree("user.id_str", "tweets[1].text")
            second = _tree("tweets[1].text", "user.id_str")
        assert first.root is second.root
        outside = _tree("user.id_str", "tweets[1].text")
        assert outside.root is not first.root
        assert outside == first and hash(outside) == hash(first)

    def test_pickle_and_copy_rebuild_equal_trees(self):
        tree = access_path(_tree("user.id_str", "tweets[pos].text"), parse_path("user"), oid=4)
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree

    def test_unequal_trees_differ(self):
        assert _tree("a") != _tree("a", contributing=False)
        assert _tree("a") != access_path(_tree("a"), parse_path("a"), oid=1)


class TestIntrospection:
    def test_paths_walk(self):
        labels = {labels for labels, _ in _tree("a.b").paths()}
        assert labels == {("a",), ("a", "b")}

    def test_contributing_leaf_paths(self):
        tree = _tree("a.b").union(_tree("c", contributing=False))
        assert tree.contributing_leaf_paths() == [("a", "b")]

    def test_render_contains_flags_and_marks(self):
        name = BacktraceNode("name", contributing=False, access={9}, manipulation={3, 8})
        tree = _tree("user", contributing=False).graft(parse_path("user.name"), name)
        assert "name (influencing) [A=9; M=3,8]" in tree.render()

    def test_is_empty(self):
        assert BacktraceTree().is_empty()
        assert not _tree("a").is_empty()


class TestStructure:
    def test_add_merges_same_id(self):
        structure = BacktraceStructure([(1, _tree("a")), (1, _tree("b"))])
        assert len(structure) == 1
        merged = structure.tree(1)
        assert merged.find(parse_path("a")) and merged.find(parse_path("b"))

    def test_missing_id_raises(self):
        with pytest.raises(BacktraceError):
            BacktraceStructure().tree(5)

    def test_add_leaves_the_added_trees(self):
        first = _tree("a")
        structure = BacktraceStructure([(1, first)])
        structure.add(1, _tree("b"))
        assert structure.tree(1).find(parse_path("b")) is not None
        assert first.find(parse_path("b")) is None

    def test_add_unions_another_structure(self):
        first = BacktraceStructure([(1, _tree("a"))])
        for item_id, tree in BacktraceStructure([(2, _tree("a"))]).items():
            first.add(item_id, tree)
        assert first.ids() == [1, 2]
