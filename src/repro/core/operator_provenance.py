"""Lightweight operator provenance (paper Def. 5.1 and Tab. 6).

The eager capture phase records, per executed operator, the 5-tuple

``P = <oid, type, I: {{<p, A>}}, M, P>``

where ``I`` references each input's preceding operator ``p`` together with
the **schema-level** paths ``A`` accessed on that input, ``M`` is the bag of
schema-level manipulation pairs (input path -> output path, positions
replaced by the ``[pos]`` placeholder), and the associations ``P`` hold the
per-item identifiers (and positions where needed).  The structure of the
associations depends on the operator type (Tab. 6):

=================  =====================================================
operator           association record
=================  =====================================================
map/select/filter  ``(id_i, id_o)``
join/union         ``(id_i1, id_i2, id_o)`` (one side ``None`` in union)
flatten            ``(id_i, pos, id_o)``
groupBy+aggregate  ``(ids_i tuple, id_o)`` -- input position = nested pos
read               ``(id_o,)`` -- fresh identifiers
=================  =====================================================

Size accounting distinguishes the *lineage* share (what a Titian-style
solution would store: the bare id associations) from the *structural* share
(positions, accessed/manipulated schema paths) to reproduce Fig. 8.

Every per-kind reading of the records is a method of its association class
(``input_ids``, ``derived``, ``renumbered``, ``by_output``, the byte
accounting): the index feed, the forward closure, compaction, the stored-run
reader and the JSON export call these instead of testing the kind.  A new
association kind touches only this module, the segment codec
(:mod:`repro.warehouse.format`) and the backtracing step
(``Backtracer._step``).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.core.paths import Path
from repro.errors import ProvenanceError
from repro.nested.schema import Schema

__all__ = [
    "UNDEFINED",
    "InputRef",
    "Associations",
    "UnaryAssociations",
    "BinaryAssociations",
    "FlattenAssociations",
    "AggregationAssociations",
    "ReadAssociations",
    "OperatorProvenance",
]

_ID_BYTES = 8  # one stored identifier (64-bit)
_POS_BYTES = 4  # one stored position (32-bit)


class _Undefined:
    """Singleton for the paper's ``bot`` (unknown A or M, e.g. for map)."""

    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


#: The paper's ``bot``: semantics of the operator are unknown (map UDFs).
UNDEFINED = _Undefined()


class InputRef:
    """One entry of ``I``: predecessor operator id plus accessed paths ``A``.

    ``predecessor`` is ``None`` for source (read) operators.  ``accessed`` is
    a frozen set of schema-level paths, or :data:`UNDEFINED` when the
    operator's internals are opaque (map).
    """

    __slots__ = ("predecessor", "accessed", "schema")

    def __init__(
        self,
        predecessor: int | None,
        accessed: Iterable[Path] | _Undefined,
        schema: Schema | None = None,
    ):
        self.predecessor = predecessor
        if isinstance(accessed, _Undefined):
            self.accessed: frozenset[Path] | _Undefined = UNDEFINED
        else:
            self.accessed = frozenset(accessed)
        #: Input schema snapshot; needed to backtrace map (mark whole schema
        #: manipulated) and join (prune the other side's attributes).
        self.schema = schema

    def accessed_or_empty(self) -> frozenset[Path]:
        """Return the accessed paths, treating UNDEFINED as empty."""
        if isinstance(self.accessed, _Undefined):
            return frozenset()
        return self.accessed

    def __repr__(self) -> str:
        return f"InputRef(pred={self.predecessor}, A={self.accessed!r})"


def _renumber(id_map: dict[int, int], fresh: Iterator[int], old: int) -> int:
    """Give output id *old* the next id of *fresh*; remember it in *id_map*."""
    id_map[old] = new = next(fresh)
    return new


_FIRST = itemgetter(0)


class Associations:
    """Base class of the operator-dependent id association bags.

    ``records`` holds one entry per output item, in output order.
    """

    #: The kind's name in the footer index and the JSON export.
    kind: str
    records: list

    def __len__(self) -> int:
        raise NotImplementedError

    def lineage_bytes(self) -> int:
        """Bytes a lineage-only (Titian-style) capture would store."""
        raise NotImplementedError

    def structural_extra_bytes(self) -> int:
        """Extra bytes structural provenance stores (positions)."""
        return 0

    def output_ids(self) -> Iterator[int]:
        """Iterate over all output identifiers."""
        raise NotImplementedError

    def input_ids(self) -> Iterator[int]:
        """Iterate over every input identifier a record references."""
        raise NotImplementedError

    def derived(self, frontier: set[int]) -> set[int]:
        """The output ids of the records that reference an id in *frontier*."""
        raise NotImplementedError

    def renumbered(self, id_map: dict[int, int], fresh: Iterator[int]) -> "Associations":
        """A copy whose output ids are drawn from *fresh*, record by record.

        Input ids are translated through *id_map*; each old output id is
        added to it with its new id, for the operators downstream.
        """
        raise NotImplementedError


class UnaryAssociations(Associations):
    """``{(id_i, id_o)}`` for map, select, filter."""

    __slots__ = ("records", "_by_output")
    kind = "unary"

    def __init__(self, records: Sequence[tuple[int, int]] = ()):
        self.records: list[tuple[int, int]] = list(records)
        self._by_output: dict[int, int] | None = None

    def add(self, id_in: int, id_out: int) -> None:
        self.records.append((id_in, id_out))
        self._by_output = None

    def by_output(self) -> dict[int, int]:
        """Cached output-id index (built once, reused across queries).

        The backtracing join of Alg. 3 probes this index; caching it per
        operator amortises repeated provenance questions on one capture --
        the query-time optimisation the paper lists as future work.
        """
        if self._by_output is None:
            self._by_output = {id_out: id_in for id_in, id_out in self.records}
        return self._by_output

    def __len__(self) -> int:
        return len(self.records)

    def lineage_bytes(self) -> int:
        return len(self.records) * 2 * _ID_BYTES

    def output_ids(self) -> Iterator[int]:
        return (id_out for _, id_out in self.records)

    def input_ids(self) -> Iterator[int]:
        return map(_FIRST, self.records)

    def derived(self, frontier: set[int]) -> set[int]:
        return {id_out for id_in, id_out in self.records if id_in in frontier}

    def renumbered(self, id_map: dict[int, int], fresh: Iterator[int]) -> "UnaryAssociations":
        return UnaryAssociations(
            [(id_map[id_in], _renumber(id_map, fresh, id_out)) for id_in, id_out in self.records]
        )


class BinaryAssociations(Associations):
    """``{(id_i1, id_i2, id_o)}`` for join and union.

    For a union, exactly one of ``id_i1``/``id_i2`` is ``None`` per record,
    marking which input the item originates from; the union backtracing
    filters on definedness (Sec. 6.3).
    """

    __slots__ = ("records", "_by_output")
    kind = "binary"

    def __init__(self, records: Sequence[tuple[int | None, int | None, int]] = ()):
        self.records: list[tuple[int | None, int | None, int]] = list(records)
        self._by_output: dict[int, tuple[int | None, int | None]] | None = None

    def add(self, id_in1: int | None, id_in2: int | None, id_out: int) -> None:
        self.records.append((id_in1, id_in2, id_out))
        self._by_output = None

    def by_output(self) -> dict[int, tuple[int | None, int | None]]:
        """Cached output-id index (see :meth:`UnaryAssociations.by_output`)."""
        if self._by_output is None:
            self._by_output = {
                id_out: (id_in1, id_in2) for id_in1, id_in2, id_out in self.records
            }
        return self._by_output

    def __len__(self) -> int:
        return len(self.records)

    def lineage_bytes(self) -> int:
        return len(self.records) * 3 * _ID_BYTES

    def output_ids(self) -> Iterator[int]:
        return (id_out for _, _, id_out in self.records)

    def input_ids(self) -> Iterator[int]:
        for id_in1, id_in2, _ in self.records:
            if id_in1 is not None:
                yield id_in1
            if id_in2 is not None:
                yield id_in2

    def derived(self, frontier: set[int]) -> set[int]:
        # ``None`` (the absent union side) is never in an id frontier.
        return {
            id_out
            for id_in1, id_in2, id_out in self.records
            if id_in1 in frontier or id_in2 in frontier
        }

    def renumbered(self, id_map: dict[int, int], fresh: Iterator[int]) -> "BinaryAssociations":
        return BinaryAssociations(
            [
                (
                    None if id_in1 is None else id_map[id_in1],
                    None if id_in2 is None else id_map[id_in2],
                    _renumber(id_map, fresh, id_out),
                )
                for id_in1, id_in2, id_out in self.records
            ]
        )


class FlattenAssociations(Associations):
    """``{(id_i, pos, id_o)}`` for flatten; ``pos`` is 1-based.

    The position is the *structural* extra that lineage solutions do not
    capture (Sec. 7.3.2, last paragraph).
    """

    __slots__ = ("records", "_by_output")
    kind = "flatten"

    def __init__(self, records: Sequence[tuple[int, int, int]] = ()):
        self.records: list[tuple[int, int, int]] = list(records)
        self._by_output: dict[int, tuple[int, int]] | None = None

    def add(self, id_in: int, pos: int, id_out: int) -> None:
        self.records.append((id_in, pos, id_out))
        self._by_output = None

    def by_output(self) -> dict[int, tuple[int, int]]:
        """Cached output-id index (see :meth:`UnaryAssociations.by_output`)."""
        if self._by_output is None:
            self._by_output = {
                id_out: (id_in, pos) for id_in, pos, id_out in self.records
            }
        return self._by_output

    def __len__(self) -> int:
        return len(self.records)

    def lineage_bytes(self) -> int:
        return len(self.records) * 2 * _ID_BYTES

    def structural_extra_bytes(self) -> int:
        return len(self.records) * _POS_BYTES

    def output_ids(self) -> Iterator[int]:
        return (id_out for _, _, id_out in self.records)

    def input_ids(self) -> Iterator[int]:
        return map(_FIRST, self.records)

    def derived(self, frontier: set[int]) -> set[int]:
        return {id_out for id_in, _pos, id_out in self.records if id_in in frontier}

    def renumbered(self, id_map: dict[int, int], fresh: Iterator[int]) -> "FlattenAssociations":
        return FlattenAssociations(
            [
                (id_map[id_in], pos, _renumber(id_map, fresh, id_out))
                for id_in, pos, id_out in self.records
            ]
        )


class AggregationAssociations(Associations):
    """``{(ids_i, id_o)}`` for groupBy+aggregation.

    The i-th input id corresponds to the i-th element of any nested
    collection the aggregation produced for the group (Tab. 6), so positions
    are stored implicitly by order.
    """

    __slots__ = ("records", "_by_output")
    kind = "aggregation"

    def __init__(self, records: Sequence[tuple[tuple[int, ...], int]] = ()):
        self.records: list[tuple[tuple[int, ...], int]] = list(records)
        self._by_output: dict[int, tuple[int, ...]] | None = None

    def add(self, ids_in: Sequence[int], id_out: int) -> None:
        self.records.append((tuple(ids_in), id_out))
        self._by_output = None

    def by_output(self) -> dict[int, tuple[int, ...]]:
        """Cached output-id index (see :meth:`UnaryAssociations.by_output`)."""
        if self._by_output is None:
            self._by_output = {id_out: ids_in for ids_in, id_out in self.records}
        return self._by_output

    def __len__(self) -> int:
        return len(self.records)

    def total_input_ids(self) -> int:
        return sum(len(ids_in) for ids_in, _ in self.records)

    def lineage_bytes(self) -> int:
        return (self.total_input_ids() + len(self.records)) * _ID_BYTES

    def output_ids(self) -> Iterator[int]:
        return (id_out for _, id_out in self.records)

    def input_ids(self) -> Iterator[int]:
        return chain.from_iterable(map(_FIRST, self.records))

    def derived(self, frontier: set[int]) -> set[int]:
        return {
            id_out for ids_in, id_out in self.records if not frontier.isdisjoint(ids_in)
        }

    def renumbered(
        self, id_map: dict[int, int], fresh: Iterator[int]
    ) -> "AggregationAssociations":
        return AggregationAssociations(
            [
                (tuple(id_map[id_in] for id_in in ids_in), _renumber(id_map, fresh, id_out))
                for ids_in, id_out in self.records
            ]
        )


class ReadAssociations(Associations):
    """Fresh identifiers assigned to source items; ``records`` are the ids."""

    __slots__ = ("ids",)
    kind = "read"

    def __init__(self, ids: Sequence[int] = ()):
        self.ids: list[int] = list(ids)

    @property
    def records(self) -> list[int]:  # type: ignore[override]
        return self.ids

    def add(self, id_out: int) -> None:
        self.ids.append(id_out)

    def __len__(self) -> int:
        return len(self.ids)

    def lineage_bytes(self) -> int:
        return len(self.ids) * _ID_BYTES

    def output_ids(self) -> Iterator[int]:
        return iter(self.ids)

    def input_ids(self) -> Iterator[int]:
        return iter(())

    def derived(self, frontier: set[int]) -> set[int]:
        return set()

    def renumbered(self, id_map: dict[int, int], fresh: Iterator[int]) -> "ReadAssociations":
        return ReadAssociations([_renumber(id_map, fresh, old) for old in self.ids])


class OperatorProvenance:
    """The lightweight 5-tuple ``P`` for one executed operator (Def. 5.1)."""

    __slots__ = ("oid", "op_type", "inputs", "manipulations", "associations", "label")

    def __init__(
        self,
        oid: int,
        op_type: str,
        inputs: Sequence[InputRef],
        manipulations: Sequence[tuple[Path, Path]] | _Undefined,
        associations: Associations,
        label: str | None = None,
    ):
        self.oid = oid
        self.op_type = op_type
        self.inputs: tuple[InputRef, ...] = tuple(inputs)
        if isinstance(manipulations, _Undefined):
            self.manipulations: tuple[tuple[Path, Path], ...] | _Undefined = UNDEFINED
        else:
            self.manipulations = tuple(manipulations)
        self.associations = associations
        #: Human-readable label for reports (e.g. "flatten user_mentions").
        self.label = label or op_type

    def input(self, index: int = 0) -> InputRef:
        """Return the *index*-th input reference."""
        try:
            return self.inputs[index]
        except IndexError:
            raise ProvenanceError(
                f"operator {self.oid} ({self.op_type}) has no input #{index}"
            ) from None

    def manipulations_or_empty(self) -> tuple[tuple[Path, Path], ...]:
        """Return M, treating UNDEFINED as empty (callers check separately)."""
        if isinstance(self.manipulations, _Undefined):
            return ()
        return self.manipulations

    def manipulations_undefined(self) -> bool:
        """Return ``True`` if M is the paper's ``bot`` (map operator)."""
        return isinstance(self.manipulations, _Undefined)

    # -- space accounting (Fig. 8) ------------------------------------------

    def lineage_bytes(self) -> int:
        """Bytes of the lineage share (bare id associations)."""
        return self.associations.lineage_bytes()

    def structural_extra_bytes(self) -> int:
        """Bytes of the structural share: positions plus schema-level paths.

        Schema-level paths are stored once per operator, which is exactly why
        the structural overhead stays small (Sec. 5.1).
        """
        path_bytes = 0
        for input_ref in self.inputs:
            for path in input_ref.accessed_or_empty():
                path_bytes += len(str(path))
        for path_in, path_out in self.manipulations_or_empty():
            path_bytes += len(str(path_in)) + len(str(path_out))
        return path_bytes + self.associations.structural_extra_bytes()

    def total_bytes(self) -> int:
        """Total stored bytes for this operator's provenance."""
        return self.lineage_bytes() + self.structural_extra_bytes()

    def __repr__(self) -> str:
        return (
            f"OperatorProvenance(oid={self.oid}, type={self.op_type!r}, "
            f"|P|={len(self.associations)})"
        )
