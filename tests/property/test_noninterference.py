"""Noninterference: what the provenance leaves out cannot change the answer.

A correct explanation is one where every input part outside it can change
without changing the queried output ("Database Queries that Explain their
Work").  For structural provenance: change every leaf of a witness item
that its resolved backtracing tree does not cover (neither contributing
nor influencing), re-run the pipeline, and the values the tree pattern
matched stay the same.  The converse keeps the check from being vacuous:
changing the contributing leaves changes the matched values.

Three details keep the comparison honest: positions are 1-based (as in
``Bag.at``); ids at and after a join or aggregation renumber when other
groups change, so results are compared by pattern match, not by id; and a
match reports a collection path beside its element paths, so only the
maximal paths count as queried values.
"""

import copy
import json

import pytest

from repro.core.paths import POS
from repro.core.treepattern.matcher import match_rows
from repro.core.treepattern.parser import parse_pattern
from repro.engine.session import Session
from repro.nested.values import to_python
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    DBLP_SCENARIOS,
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    TWITTER_SCENARIOS,
    build_running_example,
    load_workload,
    scenario,
)

SCALE = 0.05


def _case(name):
    """``(build(session, data), JSON-shaped data, pattern, collection of a source name)``."""
    if name == "example":
        tweets = [copy.deepcopy(tweet) for tweet in RUNNING_EXAMPLE_TWEETS]
        return build_running_example, tweets, RUNNING_EXAMPLE_PATTERN, lambda _: None
    spec = scenario(name)
    data = load_workload(spec.kind, SCALE)
    if spec.kind == "twitter":
        return spec.build, [to_python(item) for item in data], spec.pattern, lambda _: None
    data = {key: [to_python(item) for item in records] for key, records in data.items()}
    return spec.build, data, spec.pattern, lambda source: source.removesuffix(".json")


def _records(data, collection):
    return data if collection is None else data[collection]


def _matched_values(pattern, rows):
    """Sorted canonical values at the maximal matched paths of every match."""
    values = []
    for match in match_rows(parse_pattern(pattern), rows):
        for path in match.paths:
            if any(_extends(other, path) for other in match.paths):
                continue
            value = to_python(path.evaluate(match.item))
            values.append(f"{path}={json.dumps(value, sort_keys=True)}")
    return sorted(values)


def _extends(path, prefix):
    """Whether *path* reaches below *prefix*; a step without a position
    (a whole collection) covers each of its elements."""
    return (
        path != prefix
        and len(prefix) <= len(path)
        and all(
            step.name == stop.name and stop.pos in (None, step.pos)
            for step, stop in zip(path, prefix)
        )
    )


def _leaves(value, labels=()):
    """``(labels, scalar)`` for every non-null scalar leaf; positions 1-based."""
    if isinstance(value, dict):
        for name, inner in value.items():
            yield from _leaves(inner, labels + (name,))
    elif isinstance(value, list):
        for pos, inner in enumerate(value, start=1):
            yield from _leaves(inner, labels + (pos,))
    elif value is not None:
        yield labels, value


def _tree_node(root, labels):
    """The tree node covering *labels*, or ``None`` if the tree leaves it out.

    A tree node without children covers its whole subtree; a position is
    covered by its own label or by the ``[pos]`` placeholder.
    """
    node = root
    for label in labels:
        if not node.children:
            return node
        child = node.children.get(label)
        if child is None and isinstance(label, int):
            child = node.children.get(POS)
        if child is None:
            return None
        node = child
    return node


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 7919
    return f"{value}~"


def _set(record, labels, value):
    for label in labels[:-1]:
        record = record[label - 1] if isinstance(label, int) else record[label]
    last = labels[-1]
    if isinstance(last, int):
        record[last - 1] = value
    else:
        record[last] = value


def _witness_trees(execution, provenance, collection_of):
    """``(collection, input index) -> resolved trees`` of every witness item."""
    trees = {}
    for source in provenance.sources:
        read_ids = execution.store.get(source.oid).associations.ids
        index_of = {item_id: index for index, item_id in enumerate(read_ids)}
        for entry in source:
            key = (collection_of(source.name), index_of[entry.item_id])
            trees.setdefault(key, []).append(entry.tree.root)
    return trees


def _run(build, data, pattern):
    execution = build(Session(), data).execute(capture=True)
    return execution, _matched_values(pattern, execution.rows())


def _mutate(data, trees, select):
    """A copy of *data* with every witness leaf *select* picks changed."""
    mutated = copy.deepcopy(data)
    changed = 0
    for (collection, index), roots in trees.items():
        record = _records(mutated, collection)[index]
        original = _records(data, collection)[index]
        for labels, value in _leaves(original):
            if select([_tree_node(root, labels) for root in roots]):
                _set(record, labels, _changed(value))
                changed += 1
    return mutated, changed


CASES = ["example", *TWITTER_SCENARIOS, *DBLP_SCENARIOS]


@pytest.mark.parametrize("name", CASES)
def test_leaves_outside_the_provenance_do_not_change_the_answer(name):
    build, data, pattern, collection_of = _case(name)
    execution, before = _run(build, data, pattern)
    assert before, f"{name}: the pattern matches nothing"
    provenance = query_provenance(execution, pattern)
    trees = _witness_trees(execution, provenance, collection_of)
    mutated, changed = _mutate(data, trees, lambda nodes: all(node is None for node in nodes))
    if name == "example":
        # Tab. 1: the provenance of the two "Hello World" tweets covers every
        # leaf they have (their mention lists are empty).
        assert changed == 0
    else:
        assert changed, f"{name}: every witness leaf is in the provenance"
    _, after = _run(build, mutated, pattern)
    assert after == before


#: T4 collects a *set* of users per hashtag: a second tweet with the same
#: hashtag and user yields the same element, so changing the one witness
#: the set element records leaves the answer as it was.
ALTERNATIVE_WITNESSES = {"T4"}


@pytest.mark.parametrize("name", [case for case in CASES if case not in ALTERNATIVE_WITNESSES])
def test_contributing_leaves_do_change_the_answer(name):
    build, data, pattern, collection_of = _case(name)
    execution, before = _run(build, data, pattern)
    provenance = query_provenance(execution, pattern)
    trees = _witness_trees(execution, provenance, collection_of)
    mutated, changed = _mutate(
        data,
        trees,
        lambda nodes: any(node is not None and node.contributing for node in nodes),
    )
    assert changed
    _, after = _run(build, mutated, pattern)
    assert after != before
