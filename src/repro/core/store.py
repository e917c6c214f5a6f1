"""Provenance store: all operator provenance captured for one execution.

The store is the hand-over point between the eager capture phase (Sec. 5)
and the backtracing phase (Sec. 6): the executor registers one
:class:`~repro.core.operator_provenance.OperatorProvenance` per executed
operator, and the backtracing algorithm walks the store from the sink to the
sources.  The store also exposes the space accounting used for Fig. 8 and
resolves source identifiers back to input data items.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

from repro.core.operator_provenance import OperatorProvenance, ReadAssociations
from repro.errors import BacktraceError, ProvenanceError
from repro.nested.values import DataItem

__all__ = ["ProvenanceStore", "ProvenanceStoreProtocol", "ProvenanceSizeReport"]


class ProvenanceSizeReport:
    """Space-overhead summary of one captured execution (Fig. 8).

    ``lineage_bytes`` is what a Titian-style lineage capture would store;
    ``structural_bytes`` is the extra that structural provenance adds
    (positions in flattened collections plus the once-per-operator
    schema-level path records).
    """

    __slots__ = ("lineage_bytes", "structural_bytes", "association_count", "per_operator")

    def __init__(
        self,
        lineage_bytes: int,
        structural_bytes: int,
        association_count: int,
        per_operator: dict[int, tuple[str, int, int]],
    ):
        self.lineage_bytes = lineage_bytes
        self.structural_bytes = structural_bytes
        self.association_count = association_count
        #: oid -> (operator type, lineage bytes, structural extra bytes)
        self.per_operator = per_operator

    @property
    def total_bytes(self) -> int:
        return self.lineage_bytes + self.structural_bytes

    def __repr__(self) -> str:
        return (
            f"ProvenanceSizeReport(lineage={self.lineage_bytes}B, "
            f"structural=+{self.structural_bytes}B, records={self.association_count})"
        )


@runtime_checkable
class ProvenanceStoreProtocol(Protocol):
    """What backtracing and query resolution need from a provenance store.

    Two implementations exist: the in-memory :class:`ProvenanceStore` filled
    by the capture-enabled executor, and the on-disk
    :class:`~repro.warehouse.reader.LazyProvenanceStore` that decodes
    warehouse segments on demand.  Backtracing
    (:class:`~repro.core.backtrace.algorithms.Backtracer`) and result
    resolution (:meth:`~repro.core.backtrace.result.ProvenanceResult.resolve`)
    accept anything satisfying this protocol, which is what lets a
    persisted run answer queries without a full load.
    """

    def get(self, oid: int) -> OperatorProvenance: ...

    def has(self, oid: int) -> bool: ...

    def operators(self) -> Iterator[OperatorProvenance]: ...

    def is_source(self, oid: int) -> bool: ...

    def source_name(self, oid: int) -> str: ...

    def source_item(self, oid: int, item_id: int) -> DataItem: ...

    def source_items(self, oid: int) -> dict[int, DataItem]: ...

    def size_report(self) -> "ProvenanceSizeReport": ...

    def __len__(self) -> int: ...


class ProvenanceStore:
    """Holds the operator provenance of one (or more) executed pipelines."""

    def __init__(self) -> None:
        self._operators: dict[int, OperatorProvenance] = {}
        self._source_items: dict[int, dict[int, DataItem]] = {}
        self._source_names: dict[int, str] = {}

    # -- registration (capture phase) ---------------------------------------

    def register(self, provenance: OperatorProvenance) -> None:
        """Register the provenance of one executed operator."""
        if provenance.oid in self._operators:
            raise ProvenanceError(f"operator {provenance.oid} registered twice")
        self._operators[provenance.oid] = provenance

    def register_source_items(
        self, oid: int, name: str, items: dict[int, DataItem]
    ) -> None:
        """Remember the id -> item mapping of a read operator.

        Backtracing results resolve input identifiers to the actual input
        items through this mapping (the paper keeps inputs addressable via
        their annotation ids).
        """
        self._source_names[oid] = name
        self._source_items[oid] = items

    # -- lookup (query phase) ------------------------------------------------

    def get(self, oid: int) -> OperatorProvenance:
        """Return the provenance of operator *oid*."""
        provenance = self._operators.get(oid)
        if provenance is None:
            raise BacktraceError(f"no captured provenance for operator {oid}")
        return provenance

    def has(self, oid: int) -> bool:
        return oid in self._operators

    def operators(self) -> Iterator[OperatorProvenance]:
        return iter(self._operators.values())

    def is_source(self, oid: int) -> bool:
        """Return ``True`` if *oid* is a read operator (recursion anchor)."""
        return isinstance(self.get(oid).associations, ReadAssociations)

    def source_name(self, oid: int) -> str:
        """Return the dataset name of a read operator."""
        return self._source_names.get(oid, f"source-{oid}")

    def source_item(self, oid: int, item_id: int) -> DataItem:
        """Resolve a source identifier to the input data item."""
        items = self._source_items.get(oid)
        if items is None or item_id not in items:
            raise BacktraceError(f"source {oid} has no item with id {item_id}")
        return items[item_id]

    def source_items(self, oid: int) -> dict[int, DataItem]:
        """Return all id -> item mappings of a read operator."""
        return dict(self._source_items.get(oid, {}))

    def clear(self) -> None:
        """Drop all captured provenance (fresh run)."""
        self._operators.clear()
        self._source_items.clear()
        self._source_names.clear()

    # -- persistence ------------------------------------------------------------

    def serialize(self) -> bytes:
        """Encode the captured provenance into a compact, decodable blob.

        Eager capture does not end at collecting the pebbles -- Pebble
        persists them so provenance queries can run later.  The encoding is
        the warehouse segment format (:mod:`repro.warehouse.format`):
        length-prefixed records with 8 bytes per identifier and 4 per
        position (matching :meth:`size_report` accounting) and a sentinel
        for absent union/outer-join sides, so a legitimate id ``0`` stays
        distinguishable from "no match" and every aggregation record carries
        its input-id count.  Benchmark capture timings include this call so
        the measured overhead covers the full eager capture path.
        """
        from repro.warehouse.format import encode_store_blob

        return encode_store_blob(list(self._operators.values()))

    # -- space accounting (Fig. 8) -------------------------------------------

    def size_report(self) -> ProvenanceSizeReport:
        """Summarise the stored bytes, split into lineage vs structural."""
        lineage = 0
        structural = 0
        records = 0
        per_operator: dict[int, tuple[str, int, int]] = {}
        for provenance in self._operators.values():
            op_lineage = provenance.lineage_bytes()
            op_structural = provenance.structural_extra_bytes()
            lineage += op_lineage
            structural += op_structural
            records += len(provenance.associations)
            per_operator[provenance.oid] = (provenance.op_type, op_lineage, op_structural)
        return ProvenanceSizeReport(lineage, structural, records, per_operator)

    def __len__(self) -> int:
        return len(self._operators)

    def __repr__(self) -> str:
        return f"ProvenanceStore({len(self._operators)} operators)"
