"""The eager-``Path`` tree-pattern matcher, kept as a test oracle.

This is the matcher ``repro.core.treepattern.matcher`` shipped before it
moved to parent links: every visited node gets its own ``Path`` + ``Step``,
candidates flow through three nested generators, and the collection
context is computed for every success.  It is slow and obviously faithful
to Sec. 6.1 / Fig. 4, which is what a reference should be.  Test-only:
never import it from ``src/``.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.paths import Path, Step
from repro.core.treepattern.pattern import Edge, PatternNode, TreePattern
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = ["naive_match_item"]


def _with_pos(path: Path, pos: int) -> Path:
    """Attach a concrete position to the last step of *path*."""
    last = path.last()
    return Path(path.parent().steps + (Step(last.name, pos),))


def _direct_candidates(value: Any, path: Path, name: str) -> Iterator[tuple[Path, Any]]:
    """Parent-child candidates: attribute *name* of a struct, or of the
    elements of a collection (Fig. 4 navigates ``tweets / text`` through the
    bag's elements).  ``*`` matches every attribute."""
    if isinstance(value, DataItem):
        if name == "*":
            for attr, attr_value in value.pairs():
                yield path.child(attr), attr_value
        elif name in value:
            yield path.child(name), value[name]
    elif isinstance(value, (Bag, NestedSet)):
        for pos, element in enumerate(value, start=1):
            if not isinstance(element, DataItem):
                continue
            element_path = _with_pos(path, pos)
            if name == "*":
                for attr, attr_value in element.pairs():
                    yield element_path.child(attr), attr_value
            elif name in element:
                yield element_path.child(name), element[name]


def _descendant_candidates(value: Any, path: Path, name: str) -> Iterator[tuple[Path, Any]]:
    """Ancestor-descendant candidates: attribute *name* at any depth.

    ``*`` matches every attribute at every depth."""
    if isinstance(value, DataItem):
        for attr, attr_value in value.pairs():
            attr_path = path.child(attr)
            if name == "*" or attr == name:
                yield attr_path, attr_value
            yield from _descendant_candidates(attr_value, attr_path, name)
    elif isinstance(value, (Bag, NestedSet)):
        for pos, element in enumerate(value, start=1):
            yield from _descendant_candidates(element, _with_pos(path, pos), name)


def _expand_elements(
    node: PatternNode, candidates: Iterator[tuple[Path, Any]]
) -> Iterator[tuple[Path, Any]]:
    """Fan value-constrained collection candidates out over their elements.

    A constrained node naming a collection of *constants* (e.g. a
    ``collect_list`` of strings) addresses the individual elements:
    ``/labels="b"`` matches ``labels[2]`` when the second element is ``b``.
    Unconstrained nodes (and collections of structs, which are navigated via
    child patterns) pass through unchanged.
    """
    for path, value in candidates:
        if (
            node.has_value_constraint()
            and isinstance(value, (Bag, NestedSet))
            and not node.value_matches(value)
        ):
            for pos, element in enumerate(value, start=1):
                yield _with_pos(path, pos), element
        else:
            yield path, value


def _collection_context(candidate_path: Path) -> tuple[str, ...]:
    """Key identifying the collection instance a candidate sits in.

    The count constraint of Fig. 4 counts occurrences *within one nested
    collection*: the context of ``tweets[2].text`` is the ``tweets`` bag,
    the context of ``groups[1].vals[2]`` is ``groups[1].vals``.  Candidates
    without positional steps share the whole-item context.
    """
    last_positional = -1
    for index, step in enumerate(candidate_path.steps):
        if isinstance(step.pos, int):
            last_positional = index
    if last_positional < 0:
        return ()
    prefix = [str(step) for step in candidate_path.steps[:last_positional]]
    prefix.append(candidate_path.steps[last_positional].name)
    return tuple(prefix)


def _match_node(node: PatternNode, value: Any, path: Path) -> set[Path] | None:
    """Match *node* within the context value; return matched paths or None.

    A count constraint ``(low, high)`` applies per enclosing collection
    instance: with ``low > 0`` the node matches if at least one collection
    holds between ``low`` and ``high`` qualifying occurrences (only those
    collections' occurrences are reported); with ``low == 0`` the constraint
    is an upper bound that every collection must respect (``[0,0]`` is
    negation).  Without a count constraint the node must match at least
    once anywhere.
    """
    if node.edge == Edge.CHILD:
        candidates = _direct_candidates(value, path, node.name)
    else:
        candidates = _descendant_candidates(value, path, node.name)
    successes: list[tuple[tuple[str, ...], set[Path]]] = []
    for candidate_path, candidate_value in _expand_elements(node, candidates):
        if not node.value_matches(candidate_value):
            continue
        gathered: set[Path] = {candidate_path}
        failed = False
        for sub_node in node.children:
            sub_paths = _match_node(sub_node, candidate_value, candidate_path)
            if sub_paths is None:
                failed = True
                break
            gathered |= sub_paths
        if not failed:
            successes.append((_collection_context(candidate_path), gathered))
    if node.count is None:
        if not successes:
            return None
        matched: set[Path] = set()
        for _, paths in successes:
            matched |= paths
        return matched
    low, high = node.count
    by_context: dict[tuple[str, ...], list[set[Path]]] = {}
    for context, paths in successes:
        by_context.setdefault(context, []).append(paths)
    if low == 0:
        # Pure upper bound: every collection must respect it.
        if high is not None and any(len(group) > high for group in by_context.values()):
            return None
        return set().union(*(paths for group in by_context.values() for paths in group)) if successes else set()
    matched = set()
    satisfied = False
    for group in by_context.values():
        if low <= len(group) and (high is None or len(group) <= high):
            satisfied = True
            for paths in group:
                matched |= paths
    if not satisfied:
        return None
    return matched


def naive_match_item(pattern: TreePattern, item: DataItem) -> set[Path] | None:
    """Match one top-level item; return the matched value-level paths.

    Returns ``None`` if the item does not satisfy the pattern.
    """
    gathered: set[Path] = set()
    for node in pattern.children:
        paths = _match_node(node, item, Path())
        if paths is None:
            return None
        gathered |= paths
    return gathered
