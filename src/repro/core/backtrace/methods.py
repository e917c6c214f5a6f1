"""Tree update methods used by the backtracing algorithms (paper Sec. 6.2).

Each method returns a new tree and leaves its argument as it was.

``manipulate_paths`` implements the *manipulatePath* method: for every
``(input path, output path)`` pair in an operator's ``M``, the subtree that
the operator wrote to the output path is moved back to the input path, and
the operator id is added to the manipulation set of every moved node.  All
pairs of one operator are applied in two phases (detach everything, then
graft everything) so renamings that swap attributes cannot corrupt the tree.

``access_path`` implements the *accessPath* method: the operator id is added
to the access set of the addressed node; nodes that are not yet part of the
tree are created with ``contributing = False`` -- they *influence* the
queried items without being needed to reproduce them.  Accessed struct paths
are expanded to their children per the input schema, following Example 6.6
("marks the user and its children as accessed").

``merge_trees`` implements the flatten-specific *mergeTrees*: substitute the
``[pos]`` placeholder per row, then union all trees of the same input id.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence

from repro.core.backtrace.tree import BacktraceNode, BacktraceStructure, BacktraceTree, _rewrite
from repro.core.paths import POS, Path
from repro.nested.schema import Schema
from repro.nested.types import BagType, SetType, StructType

__all__ = [
    "manipulate_paths",
    "access_path",
    "merge_trees",
    "remove_sibling_positions",
    "prune_output_residue",
]


def manipulate_paths(
    tree: BacktraceTree,
    pairs: Sequence[tuple[Path, Path]],
    oid: int,
) -> BacktraceTree:
    """Undo the manipulations ``M`` of operator *oid* on *tree*.

    Each pair maps an input path to the output path the operator produced;
    backtracing therefore moves the subtree found at the *output* path back
    to the *input* path.  Pairs whose output path is absent from the tree
    are skipped (the queried items do not involve them) -- with one
    refinement: if a *leaf* of the tree is a strict prefix of the output
    path, the queried node stands for its whole subtree, so the missing tail
    is expanded before moving (querying the ``tweet`` struct as a whole
    traces its ``text`` constituent back to the input).
    """
    moved: list[tuple[Path, BacktraceNode]] = []
    for in_path, out_path in pairs:
        if in_path == out_path:
            # Identity mapping (e.g. join concatenation): nothing moves, but
            # the nodes were (re)produced by this operator.
            root = _rewrite(tree.root, BacktraceTree._labels(out_path), lambda old: old.with_manipulation(oid))
            tree = tree if root is tree.root else BacktraceTree(root)
            continue
        tree, subtree = _detach_expanding(tree, out_path)
        if subtree is not None:
            moved.append((in_path, subtree))
    for in_path, subtree in moved:
        tree = tree.graft(in_path, subtree.with_manipulation(oid))
    return tree


def _detach_expanding(
    tree: BacktraceTree, out_path: Path
) -> tuple[BacktraceTree, BacktraceNode | None]:
    """Detach the subtree at *out_path*, expanding through queried leaves.

    Navigating the tree labels of *out_path*: if a label is missing but the
    current node is a leaf, the remaining labels are created (inheriting the
    leaf's contributing flag) -- a queried leaf addresses its entire
    subtree.  If the label is missing on a non-leaf, the pair does not
    concern the queried data and ``None`` is returned.
    """
    labels = BacktraceTree._labels(out_path)
    node = tree.root
    for index, label in enumerate(labels):
        found = node.child(label)
        if found is None:
            if index == 0 or node.children:
                return tree, None
            # The tail below the leaf stays; its last node is what moves.
            grown = None
            for missing in reversed(labels[index:-1]):
                grown = BacktraceNode(missing, node.contributing, children=[grown] if grown else ())
            if grown is not None:
                leaf = node.with_children((grown,))
                tree = BacktraceTree(_rewrite(tree.root, labels[:index], lambda old: leaf))
            return tree, BacktraceNode(labels[-1], node.contributing)
        node = found
    return tree.remove(out_path), node


def prune_output_residue(tree: BacktraceTree, pairs: Sequence[tuple[Path, Path]]) -> BacktraceTree:
    """Remove leftover output-schema nodes after ``manipulate_paths``.

    A projection that builds nested output (``struct_(...)``) maps input
    paths to *deep* output paths (``text -> tweet.text``); after the moves,
    the enclosing output attribute (``tweet``) may linger as an empty node
    that does not exist in the operator's input schema.  The paper requires
    the tree to "conform to the schema of the input" after manipulatePath,
    so such now-childless top-level output attributes are dropped --
    provided no pair also *reads* an equally named input attribute.
    """
    in_heads = {in_path.head().name for in_path, _ in pairs if in_path.steps}
    out_heads = {out_path.head().name for _, out_path in pairs if out_path.steps}
    root = tree.root
    for head in out_heads - in_heads:
        node = root.child(head)
        if node is not None and not node.children:
            root = root.without_child(head)
    return tree if root is tree.root else BacktraceTree(root)


def access_path(
    tree: BacktraceTree,
    path: Path,
    oid: int,
    schema: Schema | None = None,
) -> BacktraceTree:
    """Record that operator *oid* accessed *path* (the accessPath method).

    If the path's nodes exist, the operator id is added to their access set;
    otherwise the nodes are created as influencing (``c = False``).  Paths
    carrying the ``[pos]`` placeholder mark every positional child already
    present; if none exists a placeholder node is created, meaning "every
    element".  When *schema* is given and the path resolves to a struct, the
    struct's children are expanded and marked as accessed as well.
    """
    struct = None
    if schema is not None:
        try:
            target_type = schema.resolve(path)
        except Exception:
            target_type = None
        if isinstance(target_type, StructType):
            struct = target_type
    root = _mark_along(tree.root, BacktraceTree._labels(path), oid, struct)
    return tree if root is tree.root else BacktraceTree(root)


def _mark_along(
    node: BacktraceNode, labels: list[object], oid: int, struct: StructType | None
) -> BacktraceNode:
    """Walk *labels* from *node*, creating influencing nodes when absent.

    A ``POS`` label fans out over all existing positional children (or
    creates one placeholder child).  The terminal nodes receive *oid*, and
    their fields too when they hold a *struct*.
    """
    if not labels:
        node = node.accessed(oid)
        return node if struct is None else _expand_struct(node, struct, oid)
    label, rest = labels[0], labels[1:]
    if label is POS:
        targets = node.positional_children() or [BacktraceNode(POS, contributing=False)]
    else:
        targets = [node.child(label) or BacktraceNode(label, contributing=False)]
    return node.with_children([_mark_along(child, rest, oid, struct) for child in targets])


def _expand_struct(node: BacktraceNode, struct: StructType, oid: int) -> BacktraceNode:
    """Mark all fields of an accessed struct as accessed (Example 6.6)."""
    fields = []
    for name, field_type in struct.fields:
        child = (node.child(name) or BacktraceNode(name, contributing=False)).accessed(oid)
        if isinstance(field_type, StructType):
            child = _expand_struct(child, field_type, oid)
        elif isinstance(field_type, (BagType, SetType)) and isinstance(
            field_type.element, StructType
        ):
            elements = child.positional_children() or [BacktraceNode(POS, contributing=False)]
            child = child.with_children(
                [_expand_struct(element.accessed(oid), field_type.element, oid) for element in elements]
            )
        fields.append(child)
    return node.with_children(fields)


def merge_trees(
    rows: Iterable[tuple[int, int, BacktraceTree]],
) -> list[tuple[int, BacktraceTree]]:
    """The flatten-specific mergeTrees (Alg. 2, l. 2).

    *rows* are ``(input id, position, tree)`` triples produced by the generic
    backtracing step; each tree still holds ``[pos]`` placeholder nodes.  The
    placeholders are substituted with the row's concrete position (once per
    distinct ``(tree, position)``), then all trees of the same input id are
    unioned.
    """
    substitute = cache(BacktraceTree.substitute_placeholders)
    rows = ((item_id, substitute(tree, pos) if pos > 0 else tree) for item_id, pos, tree in rows)
    return BacktraceStructure(rows).items()


def remove_sibling_positions(tree: BacktraceTree, collection_path: Path) -> BacktraceTree:
    """The removeNodes call of Alg. 4 (l. 13).

    After the aggregation backtracing moved the queried element of a nested
    collection back to its input attribute, the collection node itself (with
    the remaining positions, which belong to *other* input items) is removed
    from this item's tree.
    """
    return tree.remove(collection_path)
