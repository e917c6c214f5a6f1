"""Tree-pattern queries over nested results (paper Sec. 6.1)."""

from repro.core.treepattern.matcher import (
    PatternMatch,
    match_item,
    match_rows,
    seed_structure,
)
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.pattern import Edge, PatternNode, TreePattern, child, descendant

__all__ = [
    "PatternMatch",
    "match_item",
    "match_rows",
    "seed_structure",
    "parse_pattern",
    "Edge",
    "PatternNode",
    "TreePattern",
    "child",
    "descendant",
]
