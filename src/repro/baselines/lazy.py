"""PROVision-style fully lazy provenance querying (paper Secs. 3.1, 7.3.3).

PROVision captures nothing while the pipeline runs; when a provenance
question arrives, it re-derives provenance by re-processing the pipeline --
and it has to trace the result back **for each input dataset
independently**.  The paper's Fig. 9 compares this lazy approach against
Pebble's holistic eager capture + backtrace and finds eager querying 4-7x
faster on multi-input, deep pipelines because the lazy re-runs add up per
input.

:class:`LazyProvenanceQuerier` reproduces that cost model faithfully: a
query triggers one capture-enabled re-execution *per read operator in the
plan*, each followed by a tree-pattern match and a backtrace of which only
the one source's provenance is kept.
"""

from __future__ import annotations

from repro.core.backtrace.algorithms import Backtracer
from repro.core.backtrace.result import ProvenanceResult, SourceResult, ProvenanceEntry
from repro.core.treepattern.matcher import match_rows, seed_structure
from repro.core.treepattern.pattern import TreePattern
from repro.engine.dataset import Dataset
from repro.engine.plan import ReadNode
from repro.pebble.query import as_pattern

__all__ = ["LazyProvenanceQuerier"]


class LazyProvenanceQuerier:
    """Answers provenance questions without any eagerly captured provenance."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def source_count(self) -> int:
        """Number of input datasets (= number of lazy re-executions)."""
        return sum(1 for node in self._dataset.plan.walk() if isinstance(node, ReadNode))

    def query(self, pattern: TreePattern | str) -> ProvenanceResult:
        """Re-run the pipeline per input dataset and assemble the provenance.

        Each re-execution captures provenance from scratch (that is the
        lazy cost), matches the pattern on the fresh result, and backtraces;
        only the provenance of the re-execution's designated source is kept,
        mirroring PROVision's per-input tracing.
        """
        tree_pattern = as_pattern(pattern)
        read_oids = [
            node.oid for node in self._dataset.plan.walk() if isinstance(node, ReadNode)
        ]
        sources: list[SourceResult] = []
        matched_ids: list[int] = []
        for target_oid in read_oids:
            execution = self._dataset.execute(capture=True)
            assert execution.store is not None
            matches = match_rows(tree_pattern, execution.rows())
            seeds = seed_structure(matches)
            raw = Backtracer(execution.store).backtrace(execution.root.oid, seeds)
            matched_ids = sorted(
                match.item_id for match in matches if match.item_id is not None
            )
            for source in raw:
                if source.oid != target_oid:
                    continue
                entries = [
                    ProvenanceEntry(
                        item_id, execution.store.source_item(source.oid, item_id), tree
                    )
                    for item_id, tree in source.structure.items()
                ]
                entries.sort(key=lambda entry: entry.item_id)
                sources.append(SourceResult(source.oid, source.name, entries))
        sources.sort(key=lambda source: source.oid)
        return ProvenanceResult(sources, matched_ids)
