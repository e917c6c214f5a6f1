"""Unit tests for the lightweight operator provenance (Def. 5.1, Tab. 6)."""

import pytest

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    InputRef,
    OperatorProvenance,
    ReadAssociations,
    UNDEFINED,
    UnaryAssociations,
)
from repro.core.paths import parse_path
from repro.errors import ProvenanceError


class TestAssociations:
    def test_unary_records(self):
        associations = UnaryAssociations()
        associations.add(1, 10)
        associations.add(2, 11)
        assert len(associations) == 2
        assert list(associations.output_ids()) == [10, 11]
        assert associations.lineage_bytes() == 2 * 2 * 8

    def test_binary_union_side_undefined(self):
        associations = BinaryAssociations()
        associations.add(1, None, 10)
        associations.add(None, 2, 11)
        assert associations.records[0] == (1, None, 10)
        assert list(associations.output_ids()) == [10, 11]

    def test_flatten_positions_are_structural_extra(self):
        associations = FlattenAssociations()
        associations.add(1, 1, 10)
        associations.add(1, 2, 11)
        assert associations.lineage_bytes() == 2 * 2 * 8
        assert associations.structural_extra_bytes() == 2 * 4

    def test_aggregation_counts_all_input_ids(self):
        associations = AggregationAssociations()
        associations.add([1, 2, 3], 10)
        associations.add([4], 11)
        assert associations.total_input_ids() == 4
        assert associations.lineage_bytes() == (4 + 2) * 8

    def test_read_ids(self):
        associations = ReadAssociations()
        associations.add(1)
        associations.add(2)
        assert list(associations.output_ids()) == [1, 2]
        assert associations.lineage_bytes() == 16


class TestInputRef:
    def test_accessed_paths_frozen(self):
        ref = InputRef(3, [parse_path("a"), parse_path("a")])
        assert ref.accessed == frozenset({parse_path("a")})

    def test_undefined_access(self):
        ref = InputRef(3, UNDEFINED)
        assert ref.accessed is UNDEFINED
        assert ref.accessed_or_empty() == frozenset()

    def test_undefined_is_falsy_singleton(self):
        assert not UNDEFINED
        assert UNDEFINED is type(UNDEFINED)()


class TestOperatorProvenance:
    def _make(self, manipulations=()):
        return OperatorProvenance(
            5,
            "select",
            (InputRef(4, [parse_path("user.id_str")]),),
            manipulations,
            UnaryAssociations([(1, 10)]),
        )

    def test_input_lookup(self):
        provenance = self._make()
        assert provenance.input(0).predecessor == 4
        with pytest.raises(ProvenanceError):
            provenance.input(1)

    def test_manipulations_undefined(self):
        provenance = OperatorProvenance(
            5, "map", (InputRef(4, UNDEFINED),), UNDEFINED, UnaryAssociations()
        )
        assert provenance.manipulations_undefined()
        assert provenance.manipulations_or_empty() == ()

    def test_manipulations_defined(self):
        pair = (parse_path("user.id_str"), parse_path("id_str"))
        provenance = self._make([pair])
        assert not provenance.manipulations_undefined()
        assert provenance.manipulations_or_empty() == (pair,)

    def test_structural_bytes_count_path_strings(self):
        pair = (parse_path("user.id_str"), parse_path("id_str"))
        provenance = self._make([pair])
        expected = len("user.id_str") + len("user.id_str") + len("id_str")
        assert provenance.structural_extra_bytes() == expected

    def test_total_bytes(self):
        provenance = self._make()
        assert provenance.total_bytes() == provenance.lineage_bytes() + provenance.structural_extra_bytes()

    def test_default_label(self):
        assert self._make().label == "select"


class TestPerKindReadings:
    """``input_ids`` / ``derived`` / ``renumbered`` for each association kind."""

    def test_read(self):
        associations = ReadAssociations([5, 6])
        assert associations.kind == "read"
        assert associations.records == [5, 6]
        assert list(associations.input_ids()) == []
        assert associations.derived({5, 6}) == set()
        id_map: dict[int, int] = {}
        renumbered = associations.renumbered(id_map, iter([1, 2]))
        assert isinstance(renumbered, ReadAssociations)
        assert renumbered.ids == [1, 2]
        assert id_map == {5: 1, 6: 2}

    def test_unary(self):
        associations = UnaryAssociations([(1, 10), (2, 11), (2, 12)])
        assert associations.kind == "unary"
        assert list(associations.input_ids()) == [1, 2, 2]
        assert associations.derived({2, 99}) == {11, 12}
        assert associations.derived(set()) == set()
        id_map = {1: 101, 2: 102}
        renumbered = associations.renumbered(id_map, iter([7, 8, 9]))
        assert renumbered.records == [(101, 7), (102, 8), (102, 9)]
        assert id_map == {1: 101, 2: 102, 10: 7, 11: 8, 12: 9}

    def test_flatten_keeps_positions(self):
        associations = FlattenAssociations([(1, 1, 10), (1, 2, 11), (3, 1, 12)])
        assert associations.kind == "flatten"
        assert list(associations.input_ids()) == [1, 1, 3]
        assert associations.derived({1}) == {10, 11}
        id_map = {1: 1, 3: 2}
        renumbered = associations.renumbered(id_map, iter([3, 4, 5]))
        assert isinstance(renumbered, FlattenAssociations)
        assert renumbered.records == [(1, 1, 3), (1, 2, 4), (2, 1, 5)]
        assert id_map[11] == 4

    def test_binary_union_none_side(self):
        associations = BinaryAssociations([(1, None, 10), (None, 2, 11)])
        assert associations.kind == "binary"
        assert list(associations.input_ids()) == [1, 2]
        assert associations.derived({1}) == {10}
        assert associations.derived({2}) == {11}
        id_map = {1: 1, 2: 2}
        renumbered = associations.renumbered(id_map, iter([3, 4]))
        assert renumbered.records == [(1, None, 3), (None, 2, 4)]

    def test_binary_self_join_duplicate_predecessor(self):
        # A self-join reads one operator twice: the same id on both sides.
        associations = BinaryAssociations([(1, 1, 10), (1, 2, 11)])
        assert list(associations.input_ids()) == [1, 1, 1, 2]
        assert associations.derived({1}) == {10, 11}
        assert associations.derived({2}) == {11}
        id_map = {1: 5, 2: 6}
        renumbered = associations.renumbered(id_map, iter([7, 8]))
        assert renumbered.records == [(5, 5, 7), (5, 6, 8)]

    def test_aggregation_multi_id_records(self):
        associations = AggregationAssociations([((1, 2, 3), 10), ((4,), 11)])
        assert associations.kind == "aggregation"
        assert list(associations.input_ids()) == [1, 2, 3, 4]
        assert associations.derived({3}) == {10}
        assert associations.derived({2, 4}) == {10, 11}
        assert associations.derived({5}) == set()
        id_map = {1: 1, 2: 2, 3: 3, 4: 4}
        renumbered = associations.renumbered(id_map, iter([5, 6]))
        assert renumbered.records == [((1, 2, 3), 5), ((4,), 6)]
        assert id_map[10] == 5 and id_map[11] == 6

    def test_renumbering_chains_through_operators(self):
        """Each operator's outputs become the next one's translated inputs."""
        fresh = iter(range(1, 100))
        id_map: dict[int, int] = {}
        read = ReadAssociations([40, 41]).renumbered(id_map, fresh)
        unary = UnaryAssociations([(41, 50), (40, 51)]).renumbered(id_map, fresh)
        assert read.ids == [1, 2]
        assert unary.records == [(2, 3), (1, 4)]
