"""Unit tests for the Titian-style lineage baseline."""

from repro.baselines.lineage import LineageQuerier
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

    def test_works_over_lineage_only_capture(self):
        from repro.engine.executor import Executor

        session = Session()
        ds = session.create_dataset([{"a": 1, "tags": ["x"]}], "in").flatten("tags", "t")
        execution = Executor(capture=True, lineage_only=True).execute(ds.plan)
        out_ids = {pid for pid, _ in execution.rows()}
        [source] = LineageQuerier(execution.store).backtrace_ids(ds.plan.oid, out_ids)
        assert source.ids == {1}
