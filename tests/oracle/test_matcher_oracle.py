"""The link-based matcher against the eager-``Path`` oracle.

``match_item`` navigates with parent links and builds a ``Path`` only for
what it reports; :func:`tests.oracle.naive_matcher.naive_match_item` is the
matcher it replaced, kept verbatim.  They must return the same path sets on
every item x pattern -- ``/`` and ``//`` edges, ``*``, equality on
``str``/``int``/``bool``/``null``, constant collections (element fan-out),
bags of bags, and count constraints nested under one another.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.treepattern import matcher
from repro.core.treepattern.matcher import match_item
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.pattern import NO_EQUALS, Edge, PatternNode, TreePattern
from repro.nested.values import DataItem

from tests.oracle.naive_matcher import naive_match_item

# -- strategies ---------------------------------------------------------------
# Few names and few constants, so patterns hit often and counts matter.

_names = st.sampled_from(["a", "b", "c", "d"])
_constants = st.sampled_from(["x", "y", 0, 1, 2, True, False, None])


def _values(depth: int):
    if depth == 0:
        return _constants
    inner = _values(depth - 1)
    return st.one_of(
        _constants,
        st.lists(_constants, max_size=4),  # a collection of constants
        st.frozensets(st.sampled_from(["x", "y", "z"]), max_size=3),  # a NestedSet
        st.lists(st.dictionaries(_names, inner, max_size=3), min_size=1, max_size=3),
        st.lists(inner, max_size=3),  # bags of bags, mixed bags
        st.dictionaries(_names, inner, max_size=3),
    )


_items = st.dictionaries(_names, _values(3), min_size=1, max_size=4)

_counts = st.one_of(
    st.none(),
    st.just((0, 0)),
    st.tuples(st.just(0), st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.none()),
    st.integers(1, 2).flatmap(lambda low: st.tuples(st.just(low), st.integers(low, 3))),
)


def _nodes(depth: int):
    children = st.just(()) if depth == 0 else st.lists(_nodes(depth - 1), max_size=2)
    return st.builds(
        PatternNode,
        name=st.one_of(_names, st.just("*")),
        edge=st.sampled_from([Edge.CHILD, Edge.DESCENDANT]),
        equals=st.one_of(st.just(NO_EQUALS), _constants),
        count=_counts,
        children=children,
    )


_patterns = st.lists(_nodes(2), min_size=1, max_size=2).map(TreePattern)

#: Two bags of constants under one bag of structs: the count of ``labels="b"``
#: is per ``labels`` bag (2 and 1), not per ``groups`` element or per item.
_TWO_LABEL_BAGS = {"groups": [{"labels": ["b", "b"]}, {"labels": ["b"]}]}


def _agree(pattern: TreePattern, raw: dict) -> None:
    item = DataItem(raw)
    assert match_item(pattern, item) == naive_match_item(pattern, item), pattern.render()


# -- the property -------------------------------------------------------------


@given(_patterns, _items)
@example(parse_pattern('root{//labels="b"[2,2]}'), _TWO_LABEL_BAGS)
@example(parse_pattern('root{/groups{/labels="b"[0,1]}}'), _TWO_LABEL_BAGS)
@settings(max_examples=400, deadline=None)
def test_links_matcher_equals_eager_oracle(pattern, raw):
    _agree(pattern, raw)


def test_the_property_catches_a_context_taken_from_the_parent_link(monkeypatch):
    """Mutation check: the count context is the *candidate's* nearest
    positional step.  Reading it off the parent link merges the two
    ``labels`` bags above into one context, and the property must notice."""
    genuine = matcher._collection_context
    monkeypatch.setattr(matcher, "_collection_context", lambda link: genuine(link[0]))
    with pytest.raises(AssertionError):
        test_links_matcher_equals_eager_oracle()


# -- the shapes the generator must not be trusted to find ---------------------


@pytest.mark.parametrize(
    "pattern, raw",
    [
        # bag of bags: the innermost position replaces the outer one
        ('root{//v=1}', {"m": [[{"v": 1}, {"v": 2}], [{"v": 1}]]}),
        ('root{/m{/v=1[2,2]}}', {"m": [{"v": 1}, {"v": 1}, {"v": 2}]}),
        # a constrained node over a collection of constants addresses elements
        ('root{/labels="b"}', {"labels": ["a", "b", "b"]}),
        ('root{//*="b"[2,*]}', {"labels": ["a", "b", "b"], "k": "b"}),
        # counts nested under counts
        ('root{/g[1,1]{/vals=1[2,2]}}', {"g": [{"vals": [1, 1]}, {"vals": [1]}]}),
        ('root{//g[2,*]{//vals=1[0,1]}}', {"g": [{"vals": [1, 1]}, {"vals": [1]}, {"vals": []}]}),
        # negation, null, bool-vs-int equality
        ('root{//*="x"[0,0]}', {"a": {"b": ["y", "x"]}}),
        ('root{/a=null}', {"a": None}),
        ('root{//*=true}', {"a": 1, "b": True, "c": [True, 1]}),
    ],
)
def test_named_shapes_agree(pattern, raw):
    _agree(parse_pattern(pattern), raw)
