"""The copy-per-item backtracer, kept as the oracle of the shared-tree one.

This is the backtracing algorithm (paper Sec. 6.3, Algs. 1-4) as it stood
before trees became immutable and interned: mutable trees, deep-copied for
every ``(id, tree)`` pair at every step and edited in place.  It is the
literal reading of the backtracing structure ``B`` as a bag of pairs, so
:mod:`tests.oracle.test_backtrace_oracle` checks that the production
:class:`~repro.core.backtrace.algorithms.Backtracer`, which edits each
distinct tree once per operator, gives byte-identical answers.

:func:`trace` mirrors :func:`repro.pebble.query.trace_matches`: seed from
the matches, backtrace, and resolve every id against the store with the
per-item ``_instantiate``.  The answer is a production
:class:`~repro.core.backtrace.result.ProvenanceResult` over this module's
trees, so both sides render and digest through the same code.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.backtrace.algorithms import SourceProvenance
from repro.core.backtrace.result import ProvenanceEntry, ProvenanceResult, SourceResult
from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.paths import POS, Path
from repro.core.store import ProvenanceStoreProtocol
from repro.core.treepattern.matcher import PatternMatch
from repro.errors import BacktraceError
from repro.nested.schema import Schema
from repro.nested.types import BagType, SetType, StructType
from repro.nested.values import Bag, DataItem, NestedSet

NodeLabel = object


def trace(
    store: ProvenanceStoreProtocol, sink_oid: int, matches: list[PatternMatch]
) -> ProvenanceResult:
    """Seed, backtrace and resolve *matches* the copy-per-item way."""
    seeds = ItemStructure()
    for match in matches:
        if match.item_id is None:
            continue
        tree = ItemTree()
        for path in match.paths:
            tree.ensure_path(path, contributing=True)
        seeds.add(match.item_id, tree)
    matched_ids = sorted(match.item_id for match in matches if match.item_id is not None)
    if len(store) == 0:
        return ProvenanceResult([], matched_ids)
    decayed = getattr(store, "decayed_source_id", None)
    sources = []
    for source in PerItemBacktracer(store).backtrace(sink_oid, seeds):
        entries = [
            ProvenanceEntry(item_id, item, _instantiate(tree, item))
            for item_id, tree in source.structure.items()
            if decayed is None or not decayed(source.oid, item_id)
            for item in (store.source_item(source.oid, item_id),)
        ]
        entries.sort(key=lambda entry: entry.item_id)
        sources.append(SourceResult(source.oid, source.name, entries))
    return ProvenanceResult(sources, matched_ids)


class ItemNode:
    """One node of a backtracing tree (Def. 6.3)."""

    __slots__ = ("label", "children", "access", "manipulation", "contributing")

    def __init__(self, label: NodeLabel, contributing: bool = True):
        self.label = label
        self.children: dict[NodeLabel, ItemNode] = {}
        self.access: set[int] = set()
        self.manipulation: set[int] = set()
        self.contributing = contributing

    def child(self, label: NodeLabel) -> "ItemNode | None":
        """Return the child with the given label, or ``None``."""
        return self.children.get(label)

    def ensure_child(self, label: NodeLabel, contributing: bool) -> "ItemNode":
        """Return the child with *label*, creating it if needed.

        An existing node's contributing flag is only ever *raised*: once an
        attribute is known to contribute it never degrades to influencing.
        """
        node = self.children.get(label)
        if node is None:
            node = ItemNode(label, contributing)
            self.children[label] = node
        elif contributing and not node.contributing:
            node.contributing = True
        return node

    def remove_child(self, label: NodeLabel) -> None:
        self.children.pop(label, None)

    def positional_children(self) -> list["ItemNode"]:
        """Return children whose label is a position or the placeholder."""
        return [
            node
            for label, node in self.children.items()
            if isinstance(label, int) or label is POS
        ]

    def copy(self) -> "ItemNode":
        """Deep-copy the subtree rooted at this node."""
        clone = ItemNode(self.label, self.contributing)
        clone.access = set(self.access)
        clone.manipulation = set(self.manipulation)
        clone.children = {label: child.copy() for label, child in self.children.items()}
        return clone

    def merge_from(self, other: "ItemNode") -> None:
        """Union another subtree into this one (same label assumed)."""
        self.access |= other.access
        self.manipulation |= other.manipulation
        self.contributing = self.contributing or other.contributing
        for label, other_child in other.children.items():
            mine = self.children.get(label)
            if mine is None:
                self.children[label] = other_child.copy()
            else:
                mine.merge_from(other_child)

    def mark_subtree_manipulated(self, oid: int) -> None:
        """Add *oid* to the manipulation set of this node and all descendants."""
        self.manipulation.add(oid)
        for child in self.children.values():
            child.mark_subtree_manipulated(oid)

    def walk(self, prefix: tuple[NodeLabel, ...] = ()) -> Iterator[tuple[tuple[NodeLabel, ...], "ItemNode"]]:
        """Yield ``(label path, node)`` pairs for all descendants (not self)."""
        for label, child in self.children.items():
            path = prefix + (label,)
            yield path, child
            yield from child.walk(path)

    def __repr__(self) -> str:
        flag = "c" if self.contributing else "i"
        return f"ItemNode({self.label!r}/{flag}, children={sorted(map(repr, self.children))})"


class ItemTree:
    """A backtracing tree: a virtual root over top-level attribute nodes."""

    __slots__ = ("root",)

    def __init__(self) -> None:
        self.root = ItemNode("root", contributing=True)

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

    def find(self, path: Path) -> ItemNode | None:
        """Return the node at *path*, or ``None`` if absent."""
        node = self.root
        for label in self._labels(path):
            found = node.child(label)
            if found is None:
                return None
            node = found
        return node

    def ensure_path(self, path: Path, contributing: bool) -> ItemNode:
        """Create (or find) the node at *path*; returns the terminal node.

        Intermediate nodes inherit the contributing flag; existing nodes are
        only upgraded, never downgraded.
        """
        node = self.root
        for label in self._labels(path):
            node = node.ensure_child(label, contributing)
        return node

    def remove(self, path: Path) -> None:
        """Remove the node at *path* (with its subtree), if present."""
        labels = self._labels(path)
        if not labels:
            raise BacktraceError("cannot remove the virtual root")
        node = self.root
        for label in labels[:-1]:
            found = node.child(label)
            if found is None:
                return
            node = found
        node.remove_child(labels[-1])

    def graft(self, path: Path, subtree: ItemNode) -> ItemNode:
        """Attach *subtree* at *path*, merging into any existing node.

        Intermediate nodes are created with the subtree's contributing flag
        (context needed to reproduce a contributing value contributes too).
        Returns the node now living at *path*.
        """
        labels = self._labels(path)
        if not labels:
            raise BacktraceError("cannot graft at the virtual root")
        node = self.root
        for label in labels[:-1]:
            node = node.ensure_child(label, subtree.contributing)
        existing = node.child(labels[-1])
        if existing is None:
            subtree.label = labels[-1]
            node.children[labels[-1]] = subtree
            return subtree
        existing.merge_from(subtree)
        return existing

    # -- whole-tree operations -------------------------------------------------

    def copy(self) -> "ItemTree":
        clone = ItemTree()
        clone.root = self.root.copy()
        return clone

    def merge_from(self, other: "ItemTree") -> None:
        self.root.merge_from(other.root)

    def substitute_placeholders(self, pos: int) -> None:
        """Replace every ``[pos]`` placeholder node label with *pos*.

        Used by the flatten backtracing (Alg. 2): after the generic step the
        tree holds placeholder nodes; each row knows its concrete position
        from the id associations.
        """
        _substitute(self.root, pos)

    def paths(self) -> list[tuple[tuple[NodeLabel, ...], ItemNode]]:
        """Return all ``(label path, node)`` pairs in the tree."""
        return list(self.root.walk())

    def render(self, indent: str = "  ") -> str:
        """Pretty-print the tree in the style of Fig. 2."""
        lines: list[str] = []

        def visit(node: ItemNode, depth: int) -> None:
            flag = "contributing" if node.contributing else "influencing"
            marks = []
            if node.access:
                marks.append("A=" + ",".join(map(str, sorted(node.access))))
            if node.manipulation:
                marks.append("M=" + ",".join(map(str, sorted(node.manipulation))))
            suffix = f" [{'; '.join(marks)}]" if marks else ""
            label = "[pos]" if node.label is POS else str(node.label)
            lines.append(f"{indent * depth}{label} ({flag}){suffix}")
            for key in sorted(node.children, key=lambda lab: (isinstance(lab, int), str(lab))):
                visit(node.children[key], depth + 1)

        for key in sorted(self.root.children, key=lambda lab: (isinstance(lab, int), str(lab))):
            visit(self.root.children[key], 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ItemTree({len(self.root.children)} top-level nodes)"


def _substitute(node: ItemNode, pos: int) -> None:
    placeholder = node.children.pop(POS, None)
    if placeholder is not None:
        placeholder.label = pos
        existing = node.children.get(pos)
        if existing is None:
            node.children[pos] = placeholder
        else:
            existing.merge_from(placeholder)
    for child in list(node.children.values()):
        _substitute(child, pos)


class ItemStructure:
    """The backtracing structure ``B``: a mapping ``id -> tree`` (Def. 6.2).

    The paper models B as a bag of pairs; we merge trees that share an id
    (a pure union of provenance information) so B stays small while stepping
    backwards.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, ItemTree]] = ()):
        self.entries: dict[int, ItemTree] = {}
        for item_id, tree in entries:
            self.add(item_id, tree)

    def add(self, item_id: int, tree: ItemTree) -> None:
        """Insert an ``(id, tree)`` pair, merging trees of the same id."""
        existing = self.entries.get(item_id)
        if existing is None:
            self.entries[item_id] = tree
        else:
            existing.merge_from(tree)

    def ids(self) -> list[int]:
        return list(self.entries)

    def items(self) -> list[tuple[int, ItemTree]]:
        return list(self.entries.items())

    def merge_from(self, other: "ItemStructure") -> None:
        for item_id, tree in other.entries.items():
            self.add(item_id, tree.copy())

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"ItemStructure(ids={sorted(self.entries)})"


def manipulate_paths(
    tree: ItemTree,
    pairs: Sequence[tuple[Path, Path]],
    oid: int,
) -> bool:
    """Undo the manipulations ``M`` of operator *oid* on *tree*.

    Each pair maps an input path to the output path the operator produced;
    backtracing therefore moves the subtree found at the *output* path back
    to the *input* path.  Pairs whose output path is absent from the tree
    are skipped (the queried items do not involve them) -- with one
    refinement: if a *leaf* of the tree is a strict prefix of the output
    path, the queried node stands for its whole subtree, so the missing tail
    is expanded before moving (querying the ``tweet`` struct as a whole
    traces its ``text`` constituent back to the input).

    Returns ``True`` if at least one pair matched the tree.
    """
    detached: list[tuple[Path, ItemNode]] = []
    for in_path, out_path in pairs:
        if in_path == out_path:
            # Identity mapping (e.g. join concatenation): nothing moves, but
            # the nodes were (re)produced by this operator.
            node = tree.find(out_path)
            if node is not None:
                node.mark_subtree_manipulated(oid)
                detached.append((in_path, _TOUCHED))
            continue
        subtree = _detach_expanding(tree, out_path)
        if subtree is not None:
            detached.append((in_path, subtree))
    matched = bool(detached)
    for in_path, subtree in detached:
        if subtree is _TOUCHED:
            continue
        subtree.mark_subtree_manipulated(oid)
        tree.graft(in_path, subtree)
    return matched


def _detach_expanding(tree: ItemTree, out_path: Path) -> ItemNode | None:
    """Detach the subtree at *out_path*, expanding through queried leaves.

    Navigating the tree labels of *out_path*: if a label is missing but the
    current node is a leaf, the remaining labels are created (inheriting the
    leaf's contributing flag) -- a queried leaf addresses its entire
    subtree.  If the label is missing on a non-leaf, the pair does not
    concern the queried data and ``None`` is returned.
    """
    labels = ItemTree._labels(out_path)
    node = tree.root
    walked: list[ItemNode] = [node]
    for index, label in enumerate(labels):
        found = node.child(label)
        if found is None:
            if node is tree.root or node.children:
                return None
            for missing in labels[index:]:
                node = node.ensure_child(missing, node.contributing)
                walked.append(node)
            break
        node = found
        walked.append(node)
    parent = walked[-2]
    target = walked[-1]
    parent.remove_child(target.label)
    return target


def prune_output_residue(tree: ItemTree, pairs: Sequence[tuple[Path, Path]]) -> None:
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
    for head in out_heads - in_heads:
        node = tree.root.child(head)
        if node is not None and not node.children:
            tree.root.remove_child(head)


#: Sentinel marking identity pairs that touched the tree without moving data.
_TOUCHED = ItemNode("touched")


def access_path(
    tree: ItemTree,
    path: Path,
    oid: int,
    schema: Schema | None = None,
) -> None:
    """Record that operator *oid* accessed *path* (the accessPath method).

    If the path's nodes exist, the operator id is added to their access set;
    otherwise the nodes are created as influencing (``c = False``).  Paths
    carrying the ``[pos]`` placeholder mark every positional child already
    present; if none exists a placeholder node is created, meaning "every
    element".  When *schema* is given and the path resolves to a struct, the
    struct's children are expanded and marked as accessed as well.
    """
    terminals = _mark_along(tree.root, list(_expanded_labels(path)), oid)
    if schema is None:
        return
    try:
        target_type = schema.resolve(path)
    except Exception:
        return
    if isinstance(target_type, StructType):
        for node in terminals:
            _expand_struct(node, target_type, oid)


def _expanded_labels(path: Path) -> Iterable[object]:
    for step in path:
        yield step.name
        if step.pos is not None:
            yield step.pos if isinstance(step.pos, int) else POS


def _mark_along(
    root: ItemNode, labels: list[object], oid: int
) -> list[ItemNode]:
    """Walk *labels* from *root*, creating influencing nodes when absent.

    A ``POS`` label fans out over all existing positional children (or
    creates one placeholder child).  Returns the terminal nodes, whose
    access sets received *oid*.
    """
    frontier = [root]
    for label in labels:
        next_frontier: list[ItemNode] = []
        for node in frontier:
            if label is POS:
                positional = node.positional_children()
                if positional:
                    next_frontier.extend(positional)
                else:
                    next_frontier.append(node.ensure_child(POS, contributing=False))
            else:
                child = node.child(label)
                if child is None:
                    child = node.ensure_child(label, contributing=False)
                next_frontier.append(child)
        frontier = next_frontier
    for node in frontier:
        node.access.add(oid)
    return frontier


def _expand_struct(node: ItemNode, struct: StructType, oid: int) -> None:
    """Mark all fields of an accessed struct as accessed (Example 6.6)."""
    for name, field_type in struct.fields:
        child = node.child(name)
        if child is None:
            child = node.ensure_child(name, contributing=False)
        child.access.add(oid)
        if isinstance(field_type, StructType):
            _expand_struct(child, field_type, oid)
        elif isinstance(field_type, (BagType, SetType)) and isinstance(
            field_type.element, StructType
        ):
            for positional in child.positional_children() or [
                child.ensure_child(POS, contributing=False)
            ]:
                positional.access.add(oid)
                _expand_struct(positional, field_type.element, oid)


def merge_trees(
    rows: Iterable[tuple[int, int, ItemTree]],
) -> list[tuple[int, ItemTree]]:
    """The flatten-specific mergeTrees (Alg. 2, l. 2).

    *rows* are ``(input id, position, tree)`` triples produced by the generic
    backtracing step; each tree still holds ``[pos]`` placeholder nodes.  The
    placeholders are substituted with the row's concrete position, then all
    trees of the same input id are unioned.
    """
    merged: dict[int, ItemTree] = {}
    for item_id, pos, tree in rows:
        if pos > 0:
            tree.substitute_placeholders(pos)
        existing = merged.get(item_id)
        if existing is None:
            merged[item_id] = tree
        else:
            existing.merge_from(tree)
    return list(merged.items())


def remove_sibling_positions(tree: ItemTree, collection_path: Path) -> None:
    """The removeNodes call of Alg. 4 (l. 13).

    After the aggregation backtracing moved the queried element of a nested
    collection back to its input attribute, the collection node itself (with
    the remaining positions, which belong to *other* input items) is removed
    from this item's tree.
    """
    tree.remove(collection_path)


class PerItemBacktracer:
    """Backtraces a structure ``B`` through the captured provenance."""

    def __init__(self, store: ProvenanceStoreProtocol):
        self._store = store

    def backtrace(self, sink_oid: int, seeds: ItemStructure) -> list[SourceProvenance]:
        """Trace *seeds* (over the sink's output) back to every source."""
        order = self._reverse_topological(sink_oid)
        frontier: dict[int, ItemStructure] = {sink_oid: seeds}
        results: list[SourceProvenance] = []
        for oid in order:
            structure = frontier.pop(oid, ItemStructure())
            provenance = self._store.get(oid)
            if isinstance(provenance.associations, ReadAssociations):
                results.append(SourceProvenance(oid, self._store.source_name(oid), structure))
                continue
            for pred_oid, contribution in self._step(provenance, structure):
                existing = frontier.get(pred_oid)
                if existing is None:
                    frontier[pred_oid] = contribution
                else:
                    existing.merge_from(contribution)
        results.sort(key=lambda source: source.oid)
        return results

    # -- DAG ordering ------------------------------------------------------------

    def _reverse_topological(self, sink_oid: int) -> list[int]:
        """Order reachable operators so successors precede predecessors."""
        reachable: set[int] = set()
        stack = [sink_oid]
        predecessors: dict[int, list[int]] = {}
        while stack:
            oid = stack.pop()
            if oid in reachable:
                continue
            reachable.add(oid)
            preds = [
                input_ref.predecessor
                for input_ref in self._store.get(oid).inputs
                if input_ref.predecessor is not None
            ]
            predecessors[oid] = preds
            stack.extend(preds)
        # Kahn's algorithm on the successor relation: an operator can be
        # processed once all reachable successors handed their B down.
        successor_count: dict[int, int] = {oid: 0 for oid in reachable}
        for oid, preds in predecessors.items():
            for pred in preds:
                successor_count[pred] += 1
        ready = [oid for oid, count in successor_count.items() if count == 0]
        order: list[int] = []
        while ready:
            ready.sort(reverse=True)
            oid = ready.pop()
            order.append(oid)
            for pred in predecessors.get(oid, ()):
                successor_count[pred] -= 1
                if successor_count[pred] == 0:
                    ready.append(pred)
        if len(order) != len(reachable):
            raise BacktraceError("captured operator graph contains a cycle")
        return order

    # -- per-operator steps ---------------------------------------------------------

    def _step(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        associations = provenance.associations
        if isinstance(associations, UnaryAssociations):
            if provenance.manipulations_undefined():
                return self._step_map(provenance, structure)
            return self._step_unary(provenance, structure)
        if isinstance(associations, FlattenAssociations):
            return self._step_flatten(provenance, structure)
        if isinstance(associations, AggregationAssociations):
            if provenance.op_type == "distinct":
                return self._step_distinct(provenance, structure)
            return self._step_aggregation(provenance, structure)
        if isinstance(associations, BinaryAssociations):
            if provenance.op_type == "union":
                return self._step_union(provenance, structure)
            return self._step_join(provenance, structure)
        raise BacktraceError(
            f"cannot backtrace operator {provenance.oid} of type {provenance.op_type!r}"
        )

    def _step_unary(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Alg. 3 for filter and select."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        result = ItemStructure()
        pairs = provenance.manipulations_or_empty()
        for item_id, tree in structure.items():
            id_in = lookup.get(item_id)
            if id_in is None:
                continue
            updated = tree.copy()
            manipulate_paths(updated, pairs, provenance.oid)
            prune_output_residue(updated, pairs)
            for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                access_path(updated, accessed, provenance.oid, input_ref.schema)
            result.add(id_in, updated)
        return [(self._pred(input_ref), result)]

    def _step_map(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Map: unknown semantics; mark the whole input schema manipulated."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        result = ItemStructure()
        for item_id, _tree in structure.items():
            id_in = lookup.get(item_id)
            if id_in is None:
                continue
            result.add(id_in, _schema_tree(input_ref.schema, provenance.oid))
        return [(self._pred(input_ref), result)]

    def _step_flatten(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Alg. 2: generic step, then mergeTrees over positions."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        pairs = provenance.manipulations_or_empty()
        rows: list[tuple[int, int, ItemTree]] = []
        for item_id, tree in structure.items():
            record = lookup.get(item_id)
            if record is None:
                continue
            id_in, pos = record
            updated = tree.copy()
            manipulate_paths(updated, pairs, provenance.oid)
            for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                access_path(updated, accessed, provenance.oid, input_ref.schema)
            rows.append((id_in, pos, updated))
        result = ItemStructure(merge_trees(rows))
        return [(self._pred(input_ref), result)]

    def _step_union(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Union: project the defined input id per side, trees unchanged."""
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        left = ItemStructure()
        right = ItemStructure()
        for item_id, tree in structure.items():
            record = lookup.get(item_id)
            if record is None:
                continue
            id_in1, id_in2 = record
            if id_in1 is not None:
                left.add(id_in1, tree.copy())
            if id_in2 is not None:
                right.add(id_in2, tree.copy())
        return [
            (self._pred(provenance.input(0)), left),
            (self._pred(provenance.input(1)), right),
        ]

    def _step_join(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Join: per side, prune the other side's attributes, mark A and M."""
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        outputs: list[tuple[int, ItemStructure]] = []
        for side in (0, 1):
            input_ref = provenance.input(side)
            schema = input_ref.schema
            own_names = set(schema.attribute_names()) if schema is not None else None
            pairs = [
                (in_path, out_path)
                for in_path, out_path in provenance.manipulations_or_empty()
                if own_names is None or (in_path.steps and in_path.head().name in own_names)
            ]
            side_structure = ItemStructure()
            for item_id, tree in structure.items():
                record = lookup.get(item_id)
                if record is None:
                    continue
                id_in = record[side]
                if id_in is None:
                    continue
                updated = tree.copy()
                if own_names is not None:
                    for label in list(updated.root.children):
                        if label not in own_names:
                            updated.root.remove_child(label)
                manipulate_paths(updated, pairs, provenance.oid)
                for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                    access_path(updated, accessed, provenance.oid, schema)
                side_structure.add(id_in, updated)
            outputs.append((self._pred(input_ref), side_structure))
        return outputs

    def _step_distinct(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Distinct: every duplicate input carries the whole output item.

        Unlike an aggregation there is no restructuring to undo and no
        inProv filtering -- each member *is* the queried item, so the tree
        passes through unchanged (plus access marks for the comparison).
        """
        input_ref = provenance.input(0)
        result = ItemStructure()
        for ids_in, id_out in provenance.associations.records:  # type: ignore[attr-defined]
            if id_out not in structure.entries:
                continue
            tree = structure.entries[id_out]
            for id_in in ids_in:
                member_tree = tree.copy()
                for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                    access_path(member_tree, accessed, provenance.oid, input_ref.schema)
                result.add(id_in, member_tree)
        return [(self._pred(input_ref), result)]

    def _step_aggregation(
        self, provenance: OperatorProvenance, structure: ItemStructure
    ) -> list[tuple[int, ItemStructure]]:
        """Alg. 4: trace aggregation/nesting back to the grouped input."""
        input_ref = provenance.input(0)
        lookup = provenance.associations.by_output()  # type: ignore[attr-defined]
        pairs = provenance.manipulations_or_empty()
        result = ItemStructure()
        for item_id, tree in structure.items():
            ids_in = lookup.get(item_id)
            if ids_in is None:
                continue
            for position, id_in in enumerate(ids_in, start=1):
                member_tree = tree.copy()
                in_prov = False
                for in_path, out_path in pairs:
                    in_prov |= _undo_aggregate_pair(
                        member_tree, in_path, out_path, position, provenance.oid
                    )
                for in_path, out_path in pairs:
                    _drop_residual_output(member_tree, out_path)
                prune_output_residue(member_tree, pairs)
                if not in_prov:
                    continue
                for accessed in sorted(input_ref.accessed_or_empty(), key=str):
                    access_path(member_tree, accessed, provenance.oid, input_ref.schema)
                result.add(id_in, member_tree)
        return [(self._pred(input_ref), result)]

    @staticmethod
    def _pred(input_ref: object) -> int:
        predecessor = input_ref.predecessor  # type: ignore[attr-defined]
        if predecessor is None:
            raise BacktraceError("non-source operator without predecessor reference")
        return predecessor


def _graft_clone(tree: ItemTree, in_path: Path, node: "ItemNode", oid: int) -> None:
    """Graft a *copy* of a matched output node at the input path.

    The copy keeps the original tree intact so that several M pairs can
    consume the same matched output region (e.g. ``collect_list`` of a
    struct built from two input attributes); the residual output nodes are
    dropped afterwards by :func:`_drop_residual_output`.
    """
    copied = node.copy()
    copied.mark_subtree_manipulated(oid)
    tree.graft(in_path, copied)


def _undo_aggregate_pair(
    tree: ItemTree, in_path: Path, out_path: Path, position: int, oid: int
) -> bool:
    """Apply one M pair of an aggregation to one group member (Alg. 4 ll. 5-12).

    Returns ``True`` if the member's output path occurs in the tree (the
    member is ``inProv``).  Three match shapes are handled for nested
    collectors:

    * a concrete position in the tree (the pattern matched this member's
      element),
    * a ``[pos]`` placeholder child (the tree came from a schema expansion,
      e.g. backtracing a downstream ``map``), and
    * the bare collection attribute as a leaf (the query addresses the
      whole collection) -- every member produced one element, so every
      member is in the provenance.
    """
    if out_path.has_placeholder():
        concrete = out_path.substitute_placeholder(position)
        node = tree.find(concrete)
        if node is not None:
            _graft_clone(tree, in_path, node, oid)
            return True
        # Schema-expanded trees (e.g. from a downstream map) hold literal
        # [pos] placeholder nodes; find resolves the POS label directly.
        node = tree.find(out_path)
        if node is not None:
            _graft_clone(tree, in_path, node, oid)
            return True
        collection_node = tree.find(_collection_attr(out_path))
        if collection_node is not None and not collection_node.positional_children():
            # Whole-collection query: the attribute is a leaf (or holds
            # element constraints without positions) -- every member
            # produced one element, so every member is in the provenance.
            _graft_clone(tree, in_path, collection_node, oid)
            return True
        return False
    node = tree.find(out_path)
    if node is None:
        return False
    _graft_clone(tree, in_path, node, oid)
    return True


def _drop_residual_output(tree: ItemTree, out_path: Path) -> None:
    """Alg. 4 l. 13: remove remaining output-schema nodes of this pair."""
    if out_path.has_placeholder():
        remove_sibling_positions(tree, _collection_attr(out_path))
    else:
        tree.remove(out_path)


def _collection_attr(out_path: Path) -> Path:
    """Truncate at the placeholder step: ``tweets[pos].text`` -> ``tweets``."""
    steps = []
    for step in out_path:
        if step.pos is POS:
            steps.append(step.without_pos())
            break
        steps.append(step)
    return Path(steps)


def _schema_tree(schema: Schema | None, oid: int) -> ItemTree:
    """Build a whole-input-schema tree, all nodes manipulated by *oid*.

    Used when backtracing a ``map``: the UDF's internals are unknown, so the
    paper conservatively marks every input attribute as manipulated (and
    therefore contributing).
    """
    tree = ItemTree()
    if schema is None:
        return tree

    def build(node: ItemNode, struct: StructType) -> None:
        for name, field_type in struct.fields:
            child = node.ensure_child(name, contributing=True)
            child.manipulation.add(oid)
            if isinstance(field_type, StructType):
                build(child, field_type)
            elif isinstance(field_type, (BagType, SetType)):
                element = child.ensure_child(POS, contributing=True)
                element.manipulation.add(oid)
                if isinstance(field_type.element, StructType):
                    build(element, field_type.element)

    build(tree.root, schema.struct)
    return tree


def _instantiate(tree: ItemTree, item: DataItem) -> ItemTree:
    """Return *tree* restricted to the attributes *item* actually has.

    Backtracing through a black-box UDF (``map``) marks the whole input
    *schema* as manipulated.  The schema is sampled across all items, so an
    individual item may lack parts of it -- an optional subtree, an empty
    nested collection.  A per-item tree must conform to the item, not just
    the schema, or it reports dangling provenance.
    """
    clone = tree.copy()
    _prune_to_value(clone.root, item)
    return clone


def _prune_to_value(node: ItemNode, value: object) -> None:
    """Drop children of *node* that address nothing in *value* (in place)."""
    if not node.children:
        return
    if isinstance(value, DataItem):
        attrs = dict(value.pairs())
        for label in list(node.children):
            if isinstance(label, str) and label in attrs:
                _prune_to_value(node.children[label], attrs[label])
            else:
                node.remove_child(label)
    elif isinstance(value, (Bag, NestedSet)):
        elements = list(value)
        for label in list(node.children):
            child = node.children[label]
            if label is POS:
                if not elements:
                    node.remove_child(label)
                    continue
                # A placeholder stands for *any* position: keep whatever
                # resolves in at least one element (union of per-element
                # prunings -- nested collections are schema-homogeneous, so
                # this rarely differs from pruning against one element).
                pruned = None
                for element in elements:
                    candidate = child.copy()
                    _prune_to_value(candidate, element)
                    if pruned is None:
                        pruned = candidate
                    else:
                        pruned.merge_from(candidate)
                node.children[POS] = pruned
            elif isinstance(label, int) and 1 <= label <= len(elements):
                _prune_to_value(child, elements[label - 1])
            else:
                node.remove_child(label)
    else:
        # Scalar value below a node with children: a schema-level subtree
        # this item never had.
        node.children.clear()


