"""Provenance query processing: tree-pattern match + backtrace (Sec. 6).

One function, :func:`query_provenance`, covers the two phases of the paper's
provenance querying: the distributed tree-pattern matching over the
pipeline's (provenance-annotated) result, and the backtracing of the matched
items through the captured operator provenance to every input dataset.
"""

from __future__ import annotations

from repro.core.backtrace.algorithms import Backtracer
from repro.core.backtrace.result import ProvenanceResult
from repro.core.treepattern.matcher import match_partitions, seed_structure
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.pattern import TreePattern
from repro.engine.executor import ExecutionResult
from repro.errors import CaptureDisabledError
from repro.obs.breakdown import get_breakdown
from repro.obs.tracer import get_tracer

__all__ = ["query_provenance", "as_pattern"]


def as_pattern(pattern: TreePattern | str) -> TreePattern:
    """Coerce a pattern argument: text is parsed, patterns pass through."""
    if isinstance(pattern, TreePattern):
        return pattern
    return parse_pattern(pattern)


def query_provenance(
    execution: ExecutionResult, pattern: TreePattern | str
) -> ProvenanceResult:
    """Answer a structural provenance question over a captured execution.

    Phase 1 matches the tree pattern against the execution's result
    partitions, identifying the queried items and seeding the backtracing
    structure with their matched paths (contributing nodes).  Phase 2 runs
    the backtracing algorithm over the captured operator provenance down to
    every read operator and resolves the surviving input identifiers to the
    actual input items.
    """
    if execution.store is None:
        raise CaptureDisabledError(
            "provenance was not captured for this execution; re-run with capture=True"
        )
    tracer = get_tracer()
    breakdown = get_breakdown()
    tree_pattern = as_pattern(pattern)
    with tracer.span("pattern-match", "query", pattern=str(pattern)) as span:
        with breakdown.phase("pattern_match"):
            matches = match_partitions(tree_pattern, execution.partitions)
            seeds = seed_structure(matches)
        span.set(matched=len(matches))
    breakdown.count(rows_visited=len(execution), matched=len(matches))
    matched_ids = sorted(match.item_id for match in matches if match.item_id is not None)
    is_empty = getattr(execution.store, "is_empty", None)
    if is_empty is not None and is_empty():
        # Every epoch of a live run can expire out from under a query (or a
        # run may not have ingested a batch yet); an erased run answers
        # nothing rather than failing the sink-topology walk.
        return ProvenanceResult([], matched_ids)
    backtracer = Backtracer(execution.store)
    with tracer.span("backtrace", "query", seeds=len(matches)):
        with breakdown.phase("closure"):
            raw = backtracer.backtrace(execution.root.oid, seeds)
    with tracer.span("source-resolution", "query", sources=len(raw)):
        with breakdown.phase("source_resolution"):
            return ProvenanceResult.resolve(execution.store, raw, matched_ids)
