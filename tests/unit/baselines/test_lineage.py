"""Unit tests for the Titian-style lineage baseline."""

from paperbench.lineage import LineageQuerier, blank_structure
from repro.core.operator_provenance import UNDEFINED
from repro.engine.expressions import col, collect_list
from repro.engine.session import Session


def _lineage(execution, output_ids):
    return LineageQuerier(execution.store).backtrace_ids(execution.root.oid, output_ids)


class TestLineage:
    def test_filter_select_chain(self):
        session = Session()
        ds = (
            session.create_dataset([{"a": 1}, {"a": 2}, {"a": 3}], "in")
            .filter(col("a") >= 2)
            .select(col("a"))
        )
        execution = ds.execute(capture=True)
        last_id = execution.rows()[-1][0]
        [source] = _lineage(execution, {last_id})
        assert source.ids == {3}

    def test_aggregation_returns_all_group_members(self):
        """The imprecision of lineage (Sec. 2): every member shows up."""
        session = Session()
        data = [{"g": 1, "v": "a"}, {"g": 1, "v": "b"}, {"g": 2, "v": "c"}]
        ds = session.create_dataset(data, "in").group_by(col("g")).agg(
            collect_list(col("v")).alias("vs")
        )
        execution = ds.execute(capture=True)
        g1_id = next(pid for pid, item in execution.rows() if item["g"] == 1)
        [source] = _lineage(execution, {g1_id})
        assert source.ids == {1, 2}

    def test_union_splits_sides(self):
        session = Session()
        left = session.create_dataset([{"a": 1}], "left")
        right = session.create_dataset([{"a": 2}], "right")
        execution = left.union(right).execute(capture=True)
        ids = {pid for pid, _ in execution.rows()}
        sources = _lineage(execution, ids)
        by_name = {source.name: source.ids for source in sources}
        assert by_name == {"left": {1}, "right": {2}}

    def test_join_traces_both_sides(self):
        session = Session()
        left = session.create_dataset([{"k": 1}], "left")
        right = session.create_dataset([{"fk": 1}], "right")
        execution = left.join(right, col("k") == col("fk")).execute(capture=True)
        out_id = execution.rows()[0][0]
        sources = _lineage(execution, {out_id})
        by_name = {source.name: source.ids for source in sources}
        assert by_name["left"] == {1}
        assert by_name["right"] == {2}

    def test_flatten_ignores_positions(self):
        session = Session()
        ds = session.create_dataset([{"tags": ["x", "y"]}], "in").flatten("tags", "t")
        execution = ds.execute(capture=True)
        out_ids = {pid for pid, _ in execution.rows()}
        [source] = _lineage(execution, out_ids)
        assert source.ids == {1}

    def test_empty_output_ids(self):
        session = Session()
        ds = session.create_dataset([{"a": 1}], "in").filter(col("a") == 1)
        execution = ds.execute(capture=True)
        [source] = _lineage(execution, set())
        assert source.ids == set()

    def test_works_over_blank_structure(self):
        session = Session()
        ds = session.create_dataset([{"a": 1, "tags": ["x"]}], "in").flatten("tags", "t")
        execution = ds.execute(capture=True)
        out_ids = {pid for pid, _ in execution.rows()}
        lineage = blank_structure(execution.store)
        [source] = LineageQuerier(lineage).backtrace_ids(ds.plan.oid, out_ids)
        assert source.ids == {1}


class TestBlankStructure:
    def test_blanks_structure_keeps_associations(self):
        session = Session()
        ds = (
            session.create_dataset(
                [{"a": index, "b": index * 2, "tags": ["x", "y"]} for index in range(6)],
                "in",
            )
            .filter(col("a") >= 1)
            .select(col("a"), col("tags"))
            .flatten("tags", "tag")
        )
        store = ds.execute(capture=True).store
        before = store.serialize()
        lineage = blank_structure(store)
        assert store.serialize() == before  # the input store is left unchanged
        assert [op.oid for op in lineage.operators()] == [op.oid for op in store.operators()]
        for full in store.operators():
            blanked = lineage.get(full.oid)
            # Same id associations (what Titian keeps)...
            assert type(blanked.associations) is type(full.associations)
            assert list(blanked.associations.output_ids()) == list(full.associations.output_ids())
            assert blanked.op_type == full.op_type
            # ...but no accessed paths or manipulations below the top level.
            assert all(ref.accessed_or_empty() == frozenset() for ref in blanked.inputs)
            assert all(ref.accessed is not UNDEFINED for ref in blanked.inputs)
            assert blanked.manipulations_or_empty() == ()
            assert not blanked.manipulations_undefined()
        source_oid = next(op.oid for op in store.operators() if store.is_source(op.oid))
        assert lineage.source_name(source_oid) == "in"
        assert lineage.source_items(source_oid) == store.source_items(source_oid)

    def test_blanks_flatten_paths_and_manipulations(self):
        session = Session()
        ds = session.create_dataset([{"a": 1, "tags": ["x"]}], "in").flatten("tags", "t")
        store = ds.execute(capture=True).store
        full = store.get(ds.plan.oid)
        # The flatten had structure to blank.
        assert full.input(0).accessed_or_empty()
        assert full.manipulations_or_empty()
        blanked = blank_structure(store).get(ds.plan.oid)
        assert blanked.manipulations_or_empty() == ()
        assert blanked.input(0).accessed_or_empty() == frozenset()
