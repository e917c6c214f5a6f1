"""Titian-style lineage baseline (paper Sec. 3.1, Sec. 7.3.4).

Titian, RAMP, and Newt trace which *top-level* input items contribute to
which output items -- nothing below the top level, no access/manipulation
information.  :class:`LineageExecutor` is such a capture: the executor's id
associations with empty accessed paths and manipulations (the Titian
stand-in of the Sec. 7.3.4 comparison), and :class:`LineageQuerier`
backtraces pure identifier sets over any store.

The crucial behavioural difference to structural provenance is at
aggregations: lineage returns **every** group member for a queried output
item, whereas structural provenance keeps only the members whose data is in
the queried subtree (Alg. 4's ``inProv`` filter).  On the running example
this is exactly the "millions of tweets mask the two relevant ones" problem
of Sec. 2.
"""

from __future__ import annotations

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.backtrace.algorithms import reverse_topological
from repro.core.store import ProvenanceStore
from repro.engine.executor import Executor
from repro.errors import BacktraceError

__all__ = ["LineageExecutor", "LineageQuerier", "SourceLineage", "structured_operators"]


class LineageExecutor(Executor):
    """An executor whose capture keeps the id associations only: every
    operator registers empty accessed paths ``A`` and manipulations ``M``."""

    def _notify(self, node, inputs, manipulations, associations) -> None:
        blank = tuple((predecessor, (), schema) for predecessor, _, schema in inputs)
        super()._notify(node, blank, (), associations)


def structured_operators(store: ProvenanceStore) -> list[int]:
    """Oids of the operators whose record keeps accessed paths or
    manipulations (or leaves either undefined); empty for a lineage store."""
    return [
        provenance.oid
        for provenance in store.operators()
        if provenance.manipulations != ()
        or any(ref.accessed != frozenset() for ref in provenance.inputs)
    ]


class SourceLineage:
    """The lineage (input identifier set) that reached one source."""

    __slots__ = ("oid", "name", "ids")

    def __init__(self, oid: int, name: str, ids: set[int]):
        self.oid = oid
        self.name = name
        self.ids = ids

    def __repr__(self) -> str:
        return f"SourceLineage({self.name!r}, {len(self.ids)} ids)"


class LineageQuerier:
    """Backtraces plain top-level lineage over a provenance store.

    Works over both structural and lineage-only captures, because it touches
    nothing but the id associations.
    """

    def __init__(self, store: ProvenanceStore):
        self._store = store

    def backtrace_ids(self, sink_oid: int, output_ids: set[int]) -> list[SourceLineage]:
        """Trace a set of output identifiers back to every source."""
        order = reverse_topological(self._store, sink_oid)
        frontier: dict[int, set[int]] = {sink_oid: set(output_ids)}
        results: list[SourceLineage] = []
        for oid in order:
            ids = frontier.pop(oid, set())
            provenance = self._store.get(oid)
            if isinstance(provenance.associations, ReadAssociations):
                results.append(SourceLineage(oid, self._store.source_name(oid), ids))
                continue
            for pred_oid, contribution in self._step(provenance, ids):
                frontier.setdefault(pred_oid, set()).update(contribution)
        results.sort(key=lambda source: source.oid)
        return results

    def _step(
        self, provenance: OperatorProvenance, ids: set[int]
    ) -> list[tuple[int, set[int]]]:
        associations = provenance.associations
        if isinstance(associations, UnaryAssociations):
            traced = {id_in for id_in, id_out in associations.records if id_out in ids}
            return [(self._pred(provenance, 0), traced)]
        if isinstance(associations, FlattenAssociations):
            traced = {id_in for id_in, _pos, id_out in associations.records if id_out in ids}
            return [(self._pred(provenance, 0), traced)]
        if isinstance(associations, AggregationAssociations):
            traced = set()
            for ids_in, id_out in associations.records:
                if id_out in ids:
                    traced.update(ids_in)
            return [(self._pred(provenance, 0), traced)]
        if isinstance(associations, BinaryAssociations):
            left = {
                id_in1
                for id_in1, _id_in2, id_out in associations.records
                if id_out in ids and id_in1 is not None
            }
            right = {
                id_in2
                for _id_in1, id_in2, id_out in associations.records
                if id_out in ids and id_in2 is not None
            }
            return [
                (self._pred(provenance, 0), left),
                (self._pred(provenance, 1), right),
            ]
        raise BacktraceError(
            f"cannot trace lineage through operator type {provenance.op_type!r}"
        )

    def _pred(self, provenance: OperatorProvenance, index: int) -> int:
        predecessor = provenance.input(index).predecessor
        if predecessor is None:
            raise BacktraceError("non-source operator without predecessor reference")
        return predecessor
