"""Titian-style lineage baseline (paper Sec. 3.1, Sec. 7.3.4).

Titian, RAMP, and Newt trace which *top-level* input items contribute to
which output items -- nothing below the top level, no access/manipulation
information.  The baseline here reuses the captured id associations only
(what a lineage system would store) and backtraces pure identifier sets;
:func:`blank_structure` turns a structural capture into such a lineage-only
store (the Titian stand-in of the Sec. 7.3.4 comparison).

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
    InputRef,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.store import ProvenanceStore
from repro.errors import BacktraceError

__all__ = ["LineageQuerier", "SourceLineage", "blank_structure"]


def blank_structure(store: ProvenanceStore) -> ProvenanceStore:
    """Return a lineage-only copy of *store*: the same id associations and
    source items, with every accessed-path set and manipulation list empty,
    so backtracing over it degrades to plain lineage.  *store* is unchanged.
    """
    blanked = ProvenanceStore()
    for provenance in store.operators():
        inputs = tuple(
            InputRef(ref.predecessor, frozenset(), schema=ref.schema)
            for ref in provenance.inputs
        )
        blanked.register(
            OperatorProvenance(
                provenance.oid,
                provenance.op_type,
                inputs,
                (),
                provenance.associations,
                provenance.label,
            )
        )
        if store.is_source(provenance.oid):
            blanked.register_source_items(
                provenance.oid,
                store.source_name(provenance.oid),
                store.source_items(provenance.oid),
            )
    return blanked


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
        order = self._reverse_topological(sink_oid)
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

    def _reverse_topological(self, sink_oid: int) -> list[int]:
        reachable: set[int] = set()
        stack = [sink_oid]
        predecessors: dict[int, list[int]] = {}
        while stack:
            oid = stack.pop()
            if oid in reachable:
                continue
            reachable.add(oid)
            preds = [
                input_ref.predecessor
                for input_ref in self._store.get(oid).inputs
                if input_ref.predecessor is not None
            ]
            predecessors[oid] = preds
            stack.extend(preds)
        successor_count = {oid: 0 for oid in reachable}
        for preds in predecessors.values():
            for pred in preds:
                successor_count[pred] += 1
        ready = sorted(oid for oid, cnt in successor_count.items() if cnt == 0)
        order: list[int] = []
        while ready:
            oid = ready.pop(0)
            order.append(oid)
            for pred in predecessors.get(oid, ()):
                successor_count[pred] -= 1
                if successor_count[pred] == 0:
                    ready.append(pred)
        if len(order) != len(reachable):
            raise BacktraceError("captured operator graph contains a cycle")
        return order
