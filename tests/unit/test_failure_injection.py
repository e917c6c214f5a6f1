"""Failure-injection tests: broken sources, UDFs, and provenance stores."""

import pytest

from repro.baselines.lineage import LineageQuerier
from repro.core.backtrace.algorithms import Backtracer
from repro.core.backtrace.tree import BacktraceStructure, BacktraceTree
from repro.core.operator_provenance import (
    InputRef,
    OperatorProvenance,
    UnaryAssociations,
)
from repro.core.paths import parse_path
from repro.core.store import ProvenanceStore
from repro.engine.expressions import col
from repro.engine.plan import ReadNode
from repro.errors import BacktraceError, ExecutionError


class TestBrokenSources:
    def test_loader_exception_propagates(self, session):
        from repro.engine.dataset import Dataset

        def explode():
            raise OSError("disk on fire")

        node = ReadNode(session.next_oid(), "broken", explode)
        with pytest.raises(OSError, match="disk on fire"):
            Dataset(session, node).collect()

    def test_corrupt_jsonl_line(self, tmp_path, session):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\nnot json\n')
        ds = session.read_jsonl(path)
        with pytest.raises(Exception):
            ds.collect()


class TestBrokenUdfs:
    def test_udf_raising_mid_partition(self, session):
        data = [{"a": index} for index in range(10)]

        def sometimes(item):
            if item["a"] == 7:
                raise ValueError("poison row")
            return item

        ds = session.create_dataset(data, "in").map(sometimes)
        with pytest.raises(ExecutionError, match="poison row"):
            ds.collect()

    def test_udf_returning_none(self, session):
        ds = session.create_dataset([{"a": 1}], "in").map(lambda item: None)
        with pytest.raises(ExecutionError):
            ds.collect()

    def test_predicate_raising(self, session):
        bad = col("a").contains("x")  # 'in' over an int raises TypeError
        ds = session.create_dataset([{"a": 1}], "in").filter(bad)
        with pytest.raises(TypeError):
            ds.collect()


class TestBrokenStores:
    def _seed(self, item_id=1):
        return BacktraceStructure([(item_id, BacktraceTree.from_paths([parse_path("a")]))])

    def test_missing_operator_provenance(self):
        store = ProvenanceStore()
        # A filter whose predecessor was never registered.
        store.register(
            OperatorProvenance(
                2, "filter", (InputRef(1, []),), (), UnaryAssociations([(1, 10)])
            )
        )
        with pytest.raises(BacktraceError, match="no captured provenance"):
            Backtracer(store).backtrace(2, self._seed(10))

    def test_missing_operator_in_lineage(self):
        store = ProvenanceStore()
        store.register(
            OperatorProvenance(
                2, "filter", (InputRef(1, []),), (), UnaryAssociations([(1, 10)])
            )
        )
        with pytest.raises(BacktraceError):
            LineageQuerier(store).backtrace_ids(2, {10})

    def test_unknown_sink(self):
        with pytest.raises(BacktraceError):
            Backtracer(ProvenanceStore()).backtrace(99, self._seed())

    def test_unknown_operator_type(self):
        class WeirdAssociations(UnaryAssociations):
            pass

        store = ProvenanceStore()
        provenance = OperatorProvenance(
            2, "weird", (InputRef(1, []),), (), WeirdAssociations([(1, 10)])
        )
        # Unary-shaped associations still backtrace generically; the guard
        # fires for genuinely unknown association classes.
        from repro.core.operator_provenance import Associations

        class Alien(Associations):
            def __len__(self):
                return 0

            def lineage_bytes(self):
                return 0

            def output_ids(self):
                return iter(())

        alien = OperatorProvenance(3, "alien", (InputRef(1, []),), (), Alien())
        store.register(provenance)
        store.register(alien)
        with pytest.raises(BacktraceError, match="cannot backtrace"):
            Backtracer(store)._step(alien, self._seed())

    def test_ids_never_captured(self, session):
        """Querying with ids that never existed yields empty provenance."""
        ds = session.create_dataset([{"a": 1}], "in").filter(col("a") == 1)
        execution = ds.execute(capture=True)
        sources = Backtracer(execution.store).backtrace(
            execution.root.oid, self._seed(item_id=424242)
        )
        assert all(source.structure.is_empty() for source in sources)
