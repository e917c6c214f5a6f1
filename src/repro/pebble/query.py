"""Provenance query processing: tree-pattern match + backtrace (Sec. 6).

The paper's provenance querying has two phases: the distributed tree-pattern
matching over the pipeline's (provenance-annotated) result, and the
backtracing of the matched items through the captured operator provenance to
every input dataset.  An in-memory execution matches over its partitions
(:func:`query_provenance`); a stored run matches over its rows, parsing only
those the pattern's constants cannot rule out
(:meth:`repro.warehouse.reader.StoredRun.match`).  Both hand their matches
to the one :func:`trace_matches`.
"""

from __future__ import annotations

from repro.core.backtrace.algorithms import Backtracer
from repro.core.backtrace.result import ProvenanceResult
from repro.core.store import ProvenanceStoreProtocol
from repro.core.treepattern.matcher import PatternMatch, match_partitions, seed_structure
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.pattern import TreePattern
from repro.engine.executor import ExecutionResult
from repro.errors import CaptureDisabledError
from repro.obs.tracer import count, span

__all__ = ["query_provenance", "trace_matches", "as_pattern"]


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
    partitions, identifying the queried items; phase 2
    (:func:`trace_matches`) backtraces them to every input dataset.
    """
    if execution.store is None:
        raise CaptureDisabledError(
            "provenance was not captured for this execution; re-run with capture=True"
        )
    with span("pattern-match", "pattern_match", pattern=str(pattern)) as handle:
        matches = match_partitions(as_pattern(pattern), execution.partitions)
        handle.set(matched=len(matches))
    count(rows_visited=len(execution), matched=len(matches))
    return trace_matches(execution.store, execution.root.oid, matches)


def trace_matches(
    store: ProvenanceStoreProtocol, sink_oid: int, matches: list[PatternMatch]
) -> ProvenanceResult:
    """Phase 2: backtrace matched result items to the input datasets.

    Seeds the backtracing structure with the matched paths (contributing
    nodes), runs the backtracing algorithm over the captured operator
    provenance from *sink_oid* down to every read operator, and resolves
    the surviving input identifiers to the actual input items.  Shared by
    in-memory executions and stored runs: everything after the match is the
    same code.
    """
    with span("seed-structure", "pattern_match"):
        seeds = seed_structure(matches)
    matched_ids = sorted(match.item_id for match in matches if match.item_id is not None)
    if len(store) == 0:
        # Every epoch of a live run can expire out from under a query (or a
        # run may not have ingested a batch yet); a store with no operator
        # at all -- not even the sink -- answers nothing rather than failing
        # the sink-topology walk.
        return ProvenanceResult([], matched_ids)
    backtracer = Backtracer(store)
    with span("backtrace", "closure", seeds=len(matches)):
        raw = backtracer.backtrace(sink_oid, seeds)
    with span("source-resolution", "source_resolution", sources=len(raw)):
        return ProvenanceResult.resolve(store, raw, matched_ids)
