"""Provenance query results: backtraced trees resolved to input items.

Wraps the raw :class:`~repro.core.backtrace.algorithms.SourceProvenance`
structures with the conveniences a user (or the auditing / data-usage
use-cases) needs: resolving identifiers to the actual input items,
separating contributing from influencing attributes, and rendering the
Fig. 2-style trees.
"""

from __future__ import annotations

from functools import reduce
from operator import is_
from typing import Iterator

from repro.core.backtrace.algorithms import SourceProvenance
from repro.core.backtrace.tree import BacktraceNode, BacktraceTree, NodeLabel
from repro.core.paths import POS
from repro.core.store import ProvenanceStoreProtocol
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = ["ProvenanceEntry", "SourceResult", "ProvenanceResult"]


def _labels_to_text(labels: tuple[NodeLabel, ...]) -> str:
    parts = []
    for label in labels:
        if label is POS:
            parts.append("[pos]")
        elif isinstance(label, int):
            parts.append(f"[{label}]")
        else:
            parts.append(("." if parts else "") + str(label))
    return "".join(parts)


class ProvenanceEntry:
    """One input item in the provenance: its id, data, and backtracing tree."""

    __slots__ = ("item_id", "item", "tree")

    def __init__(self, item_id: int, item: DataItem, tree: BacktraceTree):
        self.item_id = item_id
        self.item = item
        self.tree = tree

    def contributing_paths(self) -> list[str]:
        """Dotted paths of attributes needed to reproduce the queried items."""
        return sorted(
            _labels_to_text(labels)
            for labels, node in self.tree.paths()
            if node.contributing
        )

    def influencing_paths(self) -> list[str]:
        """Dotted paths of attributes that were accessed but not copied."""
        return sorted(
            _labels_to_text(labels)
            for labels, node in self.tree.paths()
            if not node.contributing
        )

    def accessed_by(self) -> dict[str, list[int]]:
        """Map each tree path to the operators that accessed it."""
        return {
            _labels_to_text(labels): sorted(node.access)
            for labels, node in self.tree.paths()
            if node.access
        }

    def manipulated_by(self) -> dict[str, list[int]]:
        """Map each tree path to the operators that manipulated it."""
        return {
            _labels_to_text(labels): sorted(node.manipulation)
            for labels, node in self.tree.paths()
            if node.manipulation
        }

    def render(self) -> str:
        """Render the backtracing tree (Fig. 2 style) with the id header."""
        return f"id {self.item_id}:\n{self.tree.render()}"

    def reduced_item(self) -> DataItem:
        """Return the minimal witness: the input item restricted to its tree.

        Only the attributes (and, for nested collections, the positions)
        present in the backtracing tree survive -- the green cells of
        Tab. 1.  Re-running the pipeline over these witnesses reproduces the
        queried result items, which is exactly the paper's sufficiency claim
        for contributing-plus-influencing data.
        """
        reduced = _reduce_value(self.item, self.tree.root)
        assert isinstance(reduced, DataItem)
        return reduced

    def __repr__(self) -> str:
        return f"ProvenanceEntry(id={self.item_id})"


def _instantiate(tree: BacktraceTree, item: DataItem) -> BacktraceTree:
    """Return *tree* restricted to the attributes *item* actually has.

    Backtracing through a black-box UDF (``map``) marks the whole input
    *schema* as manipulated.  The schema is sampled across all items, so an
    individual item may lack parts of it -- an optional subtree, an empty
    nested collection.  A per-item tree must conform to the item, not just
    the schema, or it reports dangling provenance.  A tree that already
    conforms is returned as it is.
    """
    root = _prune_to_value(tree.root, item)
    return tree if root is tree.root else BacktraceTree(root)


def _prune_to_value(node: BacktraceNode, value: object) -> BacktraceNode:
    """*node* without the children that address nothing in *value* (itself if none go)."""
    if not node.children:
        return node
    kept: list[BacktraceNode] = []
    if isinstance(value, DataItem):
        attrs = dict(value.pairs())
        for label, child in node.children.items():
            if isinstance(label, str) and label in attrs:
                kept.append(_prune_to_value(child, attrs[label]))
    elif isinstance(value, (Bag, NestedSet)):
        elements = list(value)
        for label, child in node.children.items():
            if label is POS and elements:
                # A placeholder stands for *any* position: keep whatever
                # resolves in at least one element (union of per-element
                # prunings -- nested collections are schema-homogeneous, so
                # this rarely differs from pruning against one element).
                kept.append(reduce(BacktraceNode.union, (_prune_to_value(child, e) for e in elements)))
            elif isinstance(label, int) and 1 <= label <= len(elements):
                kept.append(_prune_to_value(child, elements[label - 1]))
    # A scalar value below a node with children keeps none of them: a
    # schema-level subtree this item never had.
    unchanged = len(kept) == len(node.children) and all(map(is_, kept, node.children.values()))
    return node if unchanged else node.replace(children=kept)


def _reduce_value(value: object, node: BacktraceNode) -> object:
    """Restrict *value* to the children recorded under *node*."""
    if not node.children:
        return value
    if isinstance(value, DataItem):
        kept = []
        for name, attr_value in value.pairs():
            child = node.children.get(name)
            if child is not None:
                kept.append((name, _reduce_value(attr_value, child)))
        return DataItem(kept)
    if isinstance(value, (Bag, NestedSet)):
        placeholder = node.children.get(POS)
        elements = []
        for pos, element in enumerate(value, start=1):
            child = node.children.get(pos, placeholder)
            if child is not None:
                elements.append(_reduce_value(element, child))
        return Bag(elements) if isinstance(value, Bag) else NestedSet(elements)
    return value


class SourceResult:
    """The provenance that reached one input dataset."""

    __slots__ = ("oid", "name", "entries")

    def __init__(self, oid: int, name: str, entries: list[ProvenanceEntry]):
        self.oid = oid
        self.name = name
        self.entries = entries

    def ids(self) -> list[int]:
        return sorted(entry.item_id for entry in self.entries)

    def items(self) -> list[DataItem]:
        return [entry.item for entry in sorted(self.entries, key=lambda e: e.item_id)]

    def entry(self, item_id: int) -> ProvenanceEntry:
        for entry in self.entries:
            if entry.item_id == item_id:
                return entry
        raise KeyError(f"no provenance entry for input id {item_id}")

    def is_empty(self) -> bool:
        return not self.entries

    def __iter__(self) -> Iterator[ProvenanceEntry]:
        return iter(sorted(self.entries, key=lambda e: e.item_id))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"SourceResult({self.name!r}, ids={self.ids()})"


class ProvenanceResult:
    """The full answer to a structural provenance query."""

    __slots__ = ("sources", "matched_output_ids")

    def __init__(self, sources: list[SourceResult], matched_output_ids: list[int]):
        self.sources = sources
        #: Identifiers of the result items the tree pattern matched.
        self.matched_output_ids = matched_output_ids

    @classmethod
    def resolve(
        cls,
        store: ProvenanceStoreProtocol,
        raw: list[SourceProvenance],
        matched_output_ids: list[int],
    ) -> "ProvenanceResult":
        """Resolve raw backtracing output against the store's source items.

        Stores over retained epoch layouts can *decay*: a window emitted
        after a TTL sweep may still reference member ids whose epochs were
        erased.  Such ids are silently dropped from the answer (the paper's
        deletion semantics: erased provenance is gone, not an error) --
        batch stores never decay, so a missing id stays a hard failure.

        Each tree is instantiated against its item: schema-level
        over-approximation (the conservative ``map`` rule) is pruned to the
        attributes the item actually carries.
        """
        decayed = getattr(store, "decayed_source_id", None)
        sources = []
        for source in raw:
            entries = [
                ProvenanceEntry(item_id, item, _instantiate(tree, item))
                for item_id, tree in source.structure.items()
                if decayed is None or not decayed(source.oid, item_id)
                for item in (store.source_item(source.oid, item_id),)
            ]
            entries.sort(key=lambda entry: entry.item_id)
            sources.append(SourceResult(source.oid, source.name, entries))
        return cls(sources, matched_output_ids)

    def source(self, name: str) -> SourceResult:
        """Return the (first) source result with the given dataset name."""
        for source in self.sources:
            if source.name == name:
                return source
        raise KeyError(f"no source named {name!r} in provenance result")

    def all_ids(self) -> dict[str, list[int]]:
        """Input ids per source name (multiple reads of a name are merged)."""
        merged: dict[str, set[int]] = {}
        for source in self.sources:
            merged.setdefault(source.name, set()).update(source.ids())
        return {name: sorted(ids) for name, ids in merged.items()}

    def lineage_ids(self) -> set[int]:
        """All contributing top-level input ids (what lineage tools return)."""
        ids: set[int] = set()
        for source in self.sources:
            ids.update(source.ids())
        return ids

    def render(self) -> str:
        """Render all backtraced trees grouped by source."""
        blocks = []
        for source in self.sources:
            header = f"== source {source.name} (operator {source.oid}) =="
            body = "\n".join(entry.render() for entry in source) or "(empty)"
            blocks.append(f"{header}\n{body}")
        return "\n\n".join(blocks)

    def __repr__(self) -> str:
        summary = ", ".join(f"{source.name}:{len(source)}" for source in self.sources)
        return f"ProvenanceResult({summary})"
