"""Tree-pattern matching over nested datasets.

The matcher identifies the result items a provenance question addresses
(phase one of the querying, Sec. 6.1) and seeds the backtracing structure:
for every matched top-level item it records the **value-level paths** (with
concrete positions) of all matched pattern nodes; these become the
contributing nodes of the initial backtracing trees (the right tree of
Fig. 2).

Each item is matched in isolation, which is exactly what makes the paper's
matcher distributable.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from repro.core.backtrace.tree import BacktraceStructure, BacktraceTree
from repro.core.paths import Path, Step
from repro.core.treepattern.pattern import Edge, PatternNode, TreePattern
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = [
    "PatternMatch",
    "match_item",
    "match_rows",
    "required_constants",
    "prefilter_encoded_rows",
    "seed_structure",
]


class PatternMatch:
    """One matched top-level item with the value-level paths that matched."""

    __slots__ = ("item_id", "item", "paths")

    def __init__(self, item_id: Any, item: DataItem, paths: set[Path]):
        self.item_id = item_id
        self.item = item
        self.paths = paths

    def seed_tree(self) -> BacktraceTree:
        """Build the initial backtracing tree: matched paths contribute."""
        tree = BacktraceTree()
        for path in self.paths:
            tree.ensure_path(path, contributing=True)
        return tree

    def __repr__(self) -> str:
        rendered = sorted(str(path) for path in self.paths)
        return f"PatternMatch(id={self.item_id}, paths={rendered})"


# While matching, a candidate's path is a parent link ``(link, name, pos)``
# -- ``None`` is the item root -- sharing its prefix with its siblings.  Only
# the links a whole match reports become :class:`Path` objects, at the end.
_Link = tuple[Any, str, "int | None"]

_COLLECTIONS = (Bag, NestedSet)
_CONTAINERS = (DataItem, Bag, NestedSet)


def _to_path(link: _Link | None) -> Path:
    steps = []
    while link is not None:
        link, name, pos = link
        steps.append(Step(name, pos))
    steps.reverse()
    return Path(steps)


def _survivors(node: PatternNode, value: Any, link: _Link | None) -> list[tuple[_Link, Any]]:
    """Walk *node*'s edge from *value*; return the candidates passing its value check.

    A parent-child edge reaches attribute ``node.name`` of a struct, or of
    the struct elements of a collection (Fig. 4 navigates ``tweets / text``
    through the bag's elements); an ancestor-descendant edge reaches it at
    any depth; ``*`` matches every attribute.  Elements take their
    collection's own step with a concrete position, so a bag of bags
    addresses its innermost position.

    A value-constrained node naming a collection of *constants* (e.g. a
    ``collect_list`` of strings) addresses the individual elements:
    ``/labels="b"`` matches ``labels[2]`` when the second element is ``b``.
    A collection that satisfies the constraint as a whole, and every
    candidate of an unconstrained node, stands for itself.
    """
    name = node.name
    any_name = name == "*"
    deep = node.edge != Edge.CHILD
    constrained = node.has_value_constraint()
    passes = node.value_matches
    found: list[tuple[_Link, Any]] = []
    stack = [(link, value)]
    while stack:
        link, value = stack.pop()
        if isinstance(value, DataItem):
            if deep or any_name:
                pairs = value.pairs()
            else:
                pairs = ((name, value[name]),) if name in value else ()
            for attr, inner in pairs:
                nested = isinstance(inner, _CONTAINERS)
                if any_name or attr == name:
                    if not constrained or passes(inner):
                        found.append(((link, attr, None), inner))
                    elif nested and not isinstance(inner, DataItem):
                        for pos, element in enumerate(inner, start=1):
                            if passes(element):
                                found.append(((link, attr, pos), element))
                if nested and deep:
                    stack.append(((link, attr, None), inner))
        elif isinstance(value, _COLLECTIONS):
            parent, attr, _ = link
            for pos, element in enumerate(value, start=1):
                if isinstance(element, DataItem) or (deep and isinstance(element, _COLLECTIONS)):
                    stack.append(((parent, attr, pos), element))
    return found


def _collection_context(link: _Link) -> tuple[Any, str] | None:
    """Key identifying the collection instance a candidate sits in.

    The count constraint of Fig. 4 counts occurrences *within one nested
    collection*: the context of ``tweets[2].text`` is the ``tweets`` bag,
    the context of ``groups[1].vals[2]`` is ``groups[1].vals`` -- the
    candidate's nearest positional step, without its position.  Candidates
    without positional steps share the whole-item context.
    """
    while link is not None:
        parent, name, pos = link
        if pos is not None:
            return parent, name
        link = parent
    return None


def _match_node(node: PatternNode, value: Any, link: _Link | None) -> set[_Link] | None:
    """Match *node* within the context value; return matched links or None.

    A count constraint ``(low, high)`` applies per enclosing collection
    instance: with ``low > 0`` the node matches if at least one collection
    holds between ``low`` and ``high`` qualifying occurrences (only those
    collections' occurrences are reported); with ``low == 0`` the constraint
    is an upper bound that every collection must respect (``[0,0]`` is
    negation).  Without a count constraint the node must match at least
    once anywhere.
    """
    successes: list[tuple[_Link, set[_Link]]] = []
    for candidate, candidate_value in _survivors(node, value, link):
        gathered = {candidate}
        for sub_node in node.children:
            sub_links = _match_node(sub_node, candidate_value, candidate)
            if sub_links is None:
                break
            gathered |= sub_links
        else:
            successes.append((candidate, gathered))
    if node.count is None:
        if not successes:
            return None
        return set().union(*(links for _, links in successes))
    low, high = node.count
    by_context: dict[Any, list[set[_Link]]] = {}
    for candidate, links in successes:
        by_context.setdefault(_collection_context(candidate), []).append(links)
    if low == 0:
        # Pure upper bound: every collection must respect it.
        if high is not None and any(len(group) > high for group in by_context.values()):
            return None
        return set().union(*(links for _, links in successes))
    matched: set[_Link] = set()
    satisfied = False
    for group in by_context.values():
        if low <= len(group) and (high is None or len(group) <= high):
            satisfied = True
            matched.update(*group)
    if not satisfied:
        return None
    return matched


def match_item(pattern: TreePattern, item: DataItem) -> set[Path] | None:
    """Match one top-level item; return the matched value-level paths.

    Returns ``None`` if the item does not satisfy the pattern.
    """
    gathered: set[_Link] = set()
    for node in pattern.children:
        links = _match_node(node, item, None)
        if links is None:
            return None
        gathered |= links
    return {_to_path(link) for link in gathered}


def match_rows(
    pattern: TreePattern, rows: list[tuple[Any, DataItem]]
) -> list[PatternMatch]:
    """Match a list of ``(id, item)`` rows, in row order."""
    matches = []
    for item_id, item in rows:
        paths = match_item(pattern, item)
        if paths is not None:
            matches.append(PatternMatch(item_id, item, paths))
    return matches


def required_constants(pattern: TreePattern) -> list[str]:
    """The ``str`` equality constants every matching item must contain.

    A node is *required* when neither it nor an ancestor carries a count
    constraint with ``low == 0`` (an upper bound or negation, satisfied by
    zero occurrences): for the item to match, at least one value must then
    pass the node's ``equals`` check, i.e. be a string equal to the
    constant.  Non-``str`` constants, predicates and unconstrained nodes
    contribute nothing.
    """
    constants: list[str] = []
    pending = list(pattern.children)
    while pending:
        node = pending.pop()
        if node.count is not None and node.count[0] == 0:
            continue
        if isinstance(node.equals, str):
            constants.append(node.equals)
        pending.extend(node.children)
    return constants


def prefilter_encoded_rows(
    pattern: TreePattern, rows: Iterable[tuple[Any, bytes]]
) -> Iterator[tuple[Any, bytes]]:
    """Drop JSON-encoded rows that cannot match *pattern*, without parsing.

    *rows* are ``(id, json.dumps(item) bytes)``.  A string value equal to a
    required constant ``c`` is serialised as exactly ``json.dumps(c)``
    wherever it sits (JSON string escaping is context-free), so a row whose
    bytes lack that needle has no such value and fails the pattern.  The
    survivors are a superset of the matching rows, in row order.
    """
    needles = [json.dumps(constant).encode() for constant in required_constants(pattern)]
    for row in rows:
        raw = row[1]
        if all(needle in raw for needle in needles):
            yield row


def seed_structure(matches: list[PatternMatch]) -> BacktraceStructure:
    """Build the initial backtracing structure from pattern matches.

    Requires the rows to carry provenance identifiers (capture enabled).
    """
    structure = BacktraceStructure()
    for match in matches:
        if match.item_id is None:
            continue
        structure.add(match.item_id, match.seed_tree())
    return structure
