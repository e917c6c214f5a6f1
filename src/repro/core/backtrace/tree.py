"""Backtracing structure and trees (paper Defs. 6.2 and 6.3).

The backtracing structure ``B`` is a bag of ``(id, T)`` pairs: a top-level
item identifier together with a backtracing tree over the attributes of that
item's schema.  Each tree node carries

* its label -- an attribute name (``str``), a concrete 1-based position in a
  nested collection (``int``), or the ``[pos]`` placeholder,
* the set ``A`` of operators that *accessed* the attribute,
* the set ``M`` of operators that *manipulated* (restructured) it, and
* the contributing flag ``c``: ``True`` if the attribute is needed to
  reproduce the queried items, ``False`` if it merely *influenced* them.

Trees are immutable values: every edit returns a new tree that shares the
subtrees it did not change.  A tree records schema-level paths, so items that
reach an operator by the same route carry equal trees; inside an
:func:`interning` block (one ``Backtracer.backtrace`` call) equal nodes are
one object, which lets a backtracing step edit each distinct tree once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from operator import is_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator

from repro.core.paths import POS, Path
from repro.errors import BacktraceError

__all__ = ["BacktraceNode", "BacktraceTree", "BacktraceStructure", "NodeLabel", "interning"]

#: A node label: attribute name (str), concrete position (int), or POS.
NodeLabel = object

_NONE: frozenset[int] = frozenset()
_LEAF: MappingProxyType = MappingProxyType({})

# The hash-consing table of the enclosing ``interning()`` block, if any.
_TABLE: ContextVar[dict | None] = ContextVar("backtrace_nodes", default=None)


@contextmanager
def interning() -> Iterator[None]:
    """Hash-cons every node built in the block: equal nodes are one object.
    The table dies with the block, so a long-lived process does not grow."""
    token = _TABLE.set({})
    try:
        yield
    finally:
        _TABLE.reset(token)


def _order(node: "BacktraceNode") -> tuple[bool, str]:
    return isinstance(node.label, int), str(node.label)


class BacktraceNode:
    """One node of a backtracing tree (Def. 6.3), compared by value.

    A node is never changed once built: ``access`` and ``manipulation`` are
    frozensets and ``children`` (nodes keyed by their own labels, in render
    order) is a read-only mapping.
    """

    __slots__ = ("label", "contributing", "access", "manipulation", "children", "_hash")

    def __new__(
        cls,
        label: NodeLabel,
        contributing: bool = True,
        access: Iterable[int] = _NONE,
        manipulation: Iterable[int] = _NONE,
        children: Iterable["BacktraceNode"] = (),
    ) -> "BacktraceNode":
        node = object.__new__(cls)
        kids = list(children)
        if len(kids) > 1:
            kids.sort(key=_order)
        node.label = label
        node.contributing = contributing
        node.access = frozenset(access)
        node.manipulation = frozenset(manipulation)
        node.children = MappingProxyType({kid.label: kid for kid in kids}) if kids else _LEAF
        node._hash = hash((label, contributing, node.access, node.manipulation, *kids))
        table = _TABLE.get()
        return node if table is None else table.setdefault(node, node)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BacktraceNode):
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def _fields(self) -> tuple:
        return self.label, self.contributing, self.access, self.manipulation, self.children

    def __reduce__(self) -> tuple:  # pickle and copy rebuild through __new__
        return BacktraceNode, (*self._fields()[:4], tuple(self.children.values()))

    def replace(
        self, label: NodeLabel = None, contributing: bool | None = None,
        access: Iterable[int] | None = None, manipulation: Iterable[int] | None = None,
        children: Iterable["BacktraceNode"] | None = None,
    ) -> "BacktraceNode":
        """A node like this one with the given fields replaced."""
        if label in (None, self.label) and contributing is access is manipulation is children is None:
            return self
        return BacktraceNode(
            self.label if label is None else label,
            self.contributing if contributing is None else contributing,
            self.access if access is None else access,
            self.manipulation if manipulation is None else manipulation,
            self.children.values() if children is None else children,
        )

    def child(self, label: NodeLabel) -> "BacktraceNode | None":
        """Return the child with the given label, or ``None``."""
        return self.children.get(label)

    def with_children(self, nodes: Iterable["BacktraceNode"]) -> "BacktraceNode":
        """This node with *nodes* put in place of the children of their labels."""
        children = {**self.children, **{node.label: node for node in nodes}}
        unchanged = len(children) == len(self.children) and all(map(is_, children.values(), self.children.values()))
        return self if unchanged else self.replace(children=children.values())

    def without_child(self, label: NodeLabel) -> "BacktraceNode":
        if label not in self.children:
            return self
        return self.replace(children=[c for key, c in self.children.items() if key != label])

    def accessed(self, oid: int) -> "BacktraceNode":
        """This node with *oid* added to its access set."""
        return self if oid in self.access else self.replace(access=self.access | {oid})

    def positional_children(self) -> list["BacktraceNode"]:
        """Return children whose label is a position or the placeholder."""
        return [node for label, node in self.children.items() if isinstance(label, int) or label is POS]

    def union(self, other: "BacktraceNode") -> "BacktraceNode":
        """Union another subtree into this one (this node's label is kept).

        Returns *self* or *other* itself when the union adds nothing to it.
        """
        if self is other:
            return self
        children = dict(self.children)
        for label, theirs in other.children.items():
            mine = children.get(label)
            children[label] = theirs if mine is None else mine.union(theirs)
        merged = BacktraceNode(
            self.label,
            self.contributing or other.contributing,
            self.access | other.access,
            self.manipulation | other.manipulation,
            children.values(),
        )
        return self if merged == self else other if merged == other else merged

    def with_manipulation(self, oid: int) -> "BacktraceNode":
        """This subtree with *oid* added to the manipulation set of every node."""
        return self.replace(
            manipulation=self.manipulation | {oid},
            children=[child.with_manipulation(oid) for child in self.children.values()],
        )

    def walk(self, prefix: tuple[NodeLabel, ...] = ()) -> Iterator[tuple[tuple[NodeLabel, ...], "BacktraceNode"]]:
        """Yield ``(label path, node)`` pairs for all descendants (not self)."""
        for label, child in self.children.items():
            path = prefix + (label,)
            yield path, child
            yield from child.walk(path)

    def __repr__(self) -> str:
        flag = "c" if self.contributing else "i"
        return f"BacktraceNode({self.label!r}/{flag}, children={sorted(map(repr, self.children))})"


def _rewrite(
    node: BacktraceNode,
    labels: list[NodeLabel],
    terminal: Callable[[BacktraceNode], BacktraceNode | None],
) -> BacktraceNode:
    """*node* with its descendant at *labels* replaced by ``terminal(it)``
    (``None`` drops it); *node* itself if there is no such descendant."""
    old = node.children.get(labels[0])
    if old is None:
        return node
    new = terminal(old) if len(labels) == 1 else _rewrite(old, labels[1:], terminal)
    if new is old:
        return node
    return node.without_child(old.label) if new is None else node.with_children((new,))


class BacktraceTree:
    """A backtracing tree: a virtual root over top-level attribute nodes.

    Equal trees compare and hash equal, so a step can memoise per tree.
    """

    __slots__ = ("root",)

    def __init__(self, root: BacktraceNode | None = None) -> None:
        self.root = BacktraceNode("root", contributing=True) if root is None else root

    @classmethod
    def from_paths(cls, paths: Iterable[Path], contributing: bool = True) -> "BacktraceTree":
        """The tree of *paths*, every node with the given flag."""
        trie: dict = {}
        for path in paths:
            level = trie
            for label in cls._labels(path):
                level = level.setdefault(label, {})

        def build(label: NodeLabel, level: dict) -> BacktraceNode:
            return BacktraceNode(label, contributing, children=[build(*kid) for kid in level.items()])

        return cls(BacktraceNode("root", True, children=[build(*kid) for kid in trie.items()]))

    # -- path navigation -----------------------------------------------------

    @staticmethod
    def _labels(path: Path) -> list[NodeLabel]:
        """Expand a path into tree labels: positions become child labels."""
        labels: list[NodeLabel] = []
        for step in path:
            labels.append(step.name)
            if step.pos is not None:
                labels.append(step.pos if isinstance(step.pos, int) else POS)
        return labels

    def find(self, path: Path) -> BacktraceNode | None:
        """Return the node at *path*, or ``None`` if absent."""
        node = self.root
        for label in self._labels(path):
            found = node.child(label)
            if found is None:
                return None
            node = found
        return node

    def ensure_path(self, path: Path, contributing: bool) -> "BacktraceTree":
        """The tree with a node at *path*.

        New nodes get the given flag; existing nodes are only upgraded,
        never downgraded.
        """
        return self.union(BacktraceTree.from_paths([path], contributing))

    def remove(self, path: Path) -> "BacktraceTree":
        """The tree without the node at *path* (and its subtree)."""
        labels = self._labels(path)
        if not labels:
            raise BacktraceError("cannot remove the virtual root")
        root = _rewrite(self.root, labels, lambda old: None)
        return self if root is self.root else BacktraceTree(root)

    def detach(self, path: Path) -> tuple["BacktraceTree", BacktraceNode | None]:
        """The tree without the subtree at *path*, and that subtree (or ``None``)."""
        rest = self.remove(path)
        return rest, None if rest is self else self.find(path)

    def graft(self, path: Path, subtree: BacktraceNode) -> "BacktraceTree":
        """The tree with *subtree* attached at *path*, unioned into any node there.

        Intermediate nodes get the subtree's contributing flag (context
        needed to reproduce a contributing value contributes too).
        """
        labels = self._labels(path)
        if not labels:
            raise BacktraceError("cannot graft at the virtual root")
        node = subtree.replace(label=labels[-1])
        for label in reversed(labels[:-1]):
            node = BacktraceNode(label, subtree.contributing, children=(node,))
        return self.union(BacktraceTree(BacktraceNode("root", True, children=(node,))))

    # -- whole-tree operations -------------------------------------------------

    def is_empty(self) -> bool:
        return not self.root.children

    def union(self, other: "BacktraceTree") -> "BacktraceTree":
        root = self.root.union(other.root)
        return self if root is self.root else BacktraceTree(root)

    def substitute_placeholders(self, pos: int) -> "BacktraceTree":
        """The tree with every ``[pos]`` placeholder label replaced by *pos*.

        Used by the flatten backtracing (Alg. 2): after the generic step the
        tree holds placeholder nodes; each row knows its concrete position
        from the id associations.
        """
        root = _substitute(self.root, pos)
        return self if root is self.root else BacktraceTree(root)

    def paths(self) -> list[tuple[tuple[NodeLabel, ...], BacktraceNode]]:
        """Return all ``(label path, node)`` pairs in the tree."""
        return list(self.root.walk())

    def contributing_leaf_paths(self) -> list[tuple[NodeLabel, ...]]:
        """Label paths of contributing nodes without contributing children."""
        return [
            labels
            for labels, node in self.root.walk()
            if node.contributing and not any(child.contributing for child in node.children.values())
        ]

    def render(self, indent: str = "  ") -> str:
        """Pretty-print the tree in the style of Fig. 2."""
        lines: list[str] = []

        def visit(node: BacktraceNode, depth: int) -> None:
            flag = "contributing" if node.contributing else "influencing"
            marks = []
            if node.access:
                marks.append("A=" + ",".join(map(str, sorted(node.access))))
            if node.manipulation:
                marks.append("M=" + ",".join(map(str, sorted(node.manipulation))))
            suffix = f" [{'; '.join(marks)}]" if marks else ""
            label = "[pos]" if node.label is POS else str(node.label)
            lines.append(f"{indent * depth}{label} ({flag}){suffix}")
            for child in node.children.values():
                visit(child, depth + 1)

        for child in self.root.children.values():
            visit(child, 0)
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BacktraceTree) and self.root == other.root

    def __hash__(self) -> int:
        return hash(self.root)

    def __repr__(self) -> str:
        return f"BacktraceTree({len(self.root.children)} top-level nodes)"


def _substitute(node: BacktraceNode, pos: int) -> BacktraceNode:
    if not node.children:
        return node
    children = dict(node.children)
    placeholder = children.pop(POS, None)
    if placeholder is not None:
        existing = children.get(pos)
        placeholder = placeholder.replace(label=pos)
        children[pos] = placeholder if existing is None else existing.union(placeholder)
    kids = [_substitute(child, pos) for child in children.values()]
    unchanged = placeholder is None and all(map(is_, kids, node.children.values()))
    return node if unchanged else node.replace(children=kids)


class BacktraceStructure:
    """The backtracing structure ``B``: a mapping ``id -> tree`` (Def. 6.2).

    The paper models B as a bag of pairs; we union trees that share an id
    (a pure union of provenance information) so B stays small while stepping
    backwards.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, BacktraceTree]] = ()):
        self.entries: dict[int, BacktraceTree] = {}
        for item_id, tree in entries:
            self.add(item_id, tree)

    def add(self, item_id: int, tree: BacktraceTree) -> None:
        """Insert an ``(id, tree)`` pair, unioning trees of the same id."""
        existing = self.entries.get(item_id)
        self.entries[item_id] = tree if existing is None else existing.union(tree)

    def ids(self) -> list[int]:
        return list(self.entries)

    def tree(self, item_id: int) -> BacktraceTree:
        try:
            return self.entries[item_id]
        except KeyError:
            raise BacktraceError(f"backtracing structure has no entry for id {item_id}") from None

    def items(self) -> list[tuple[int, BacktraceTree]]:
        return list(self.entries.items())

    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"BacktraceStructure(ids={sorted(self.entries)})"
