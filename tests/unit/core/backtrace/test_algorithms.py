"""Per-operator backtracing tests (Algs. 1-4) over minimal pipelines."""

from repro.core.backtrace.algorithms import Backtracer
from repro.core.backtrace.tree import BacktraceStructure
from repro.core.paths import parse_path
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.matcher import match_rows, seed_structure
from repro.engine.expressions import col, collect_list, count, struct_, sum_
from repro.engine.session import Session


def _backtrace(execution, pattern_text):
    pattern = parse_pattern(pattern_text)
    matches = match_rows(pattern, execution.rows())
    seeds = seed_structure(matches)
    return Backtracer(execution.store).backtrace(execution.root.oid, seeds)


def _single_source(sources, name=None):
    non_empty = [source for source in sources if not source.structure.is_empty()]
    assert len(non_empty) == 1, sources
    return non_empty[0]


class TestFilterBacktrace:
    def test_ids_and_access_marks(self):
        session = Session()
        data = [{"a": 1, "flag": True}, {"a": 2, "flag": False}, {"a": 3, "flag": True}]
        ds = session.create_dataset(data, "in").filter(col("flag") == True)  # noqa: E712
        execution = ds.execute(capture=True)
        sources = _backtrace(execution, "root{/a=3}")
        source = _single_source(sources)
        assert source.ids() == [3]
        tree = source.structure.tree(3)
        flag = tree.find(parse_path("flag"))
        assert flag is not None and not flag.contributing
        assert flag.access == {ds.plan.oid}

    def test_filtered_out_items_not_in_provenance(self):
        session = Session()
        ds = session.create_dataset([{"a": 1}, {"a": 2}], "in").filter(col("a") == 1)
        execution = ds.execute(capture=True)
        sources = _backtrace(execution, "root{/a=1}")
        assert _single_source(sources).ids() == [1]


class TestSelectBacktrace:
    def test_projection_moved_back(self):
        session = Session()
        data = [{"user": {"id_str": "lp", "name": "Lisa"}, "x": 1}]
        ds = session.create_dataset(data, "in").select(col("user.id_str"))
        execution = ds.execute(capture=True)
        source = _single_source(_backtrace(execution, 'root{/id_str="lp"}'))
        tree = source.structure.tree(1)
        assert tree.find(parse_path("user.id_str")) is not None
        assert tree.find(parse_path("id_str")) is None

    def test_struct_projection(self):
        session = Session()
        data = [{"a": 1, "b": 2}]
        ds = session.create_dataset(data, "in").select(
            struct_(a=col("a"), b=col("b")).alias("pair")
        )
        execution = ds.execute(capture=True)
        source = _single_source(_backtrace(execution, "root{/pair{/a=1}}"))
        tree = source.structure.tree(1)
        assert tree.find(parse_path("a")) is not None
        assert tree.find(parse_path("pair")) is None

    def test_computed_expression_maps_to_inputs(self):
        session = Session()
        ds = session.create_dataset([{"a": 2, "b": 3}], "in").select(
            (col("a") + col("b")).alias("total")
        )
        execution = ds.execute(capture=True)
        source = _single_source(_backtrace(execution, "root{/total=5}"))
        tree = source.structure.tree(1)
        assert tree.find(parse_path("a")) is not None
        assert tree.find(parse_path("b")) is not None


class TestMapBacktrace:
    def test_whole_input_schema_manipulated(self):
        session = Session()
        data = [{"a": 1, "nested": {"b": 2}}]
        ds = session.create_dataset(data, "in").map(
            lambda item: item.replace(c=item["a"] * 10), "times10"
        )
        execution = ds.execute(capture=True)
        source = _single_source(_backtrace(execution, "root{/c=10}"))
        tree = source.structure.tree(1)
        for path in ("a", "nested", "nested.b"):
            node = tree.find(parse_path(path))
            assert node is not None and node.contributing
            assert ds.plan.oid in node.manipulation


class TestFlattenBacktrace:
    def test_position_recorded(self):
        session = Session()
        data = [{"tags": ["x", "y", "z"]}, {"tags": ["y"]}]
        ds = session.create_dataset(data, "in").flatten("tags", "tag")
        execution = ds.execute(capture=True)
        source = _single_source(_backtrace(execution, 'root{/tag="z"}'))
        assert source.ids() == [1]
        tree = source.structure.tree(1)
        tags = tree.find(parse_path("tags"))
        assert set(tags.children) == {3}

    def test_merge_trees_same_input(self):
        session = Session()
        data = [{"tags": ["x", "y"]}]
        ds = session.create_dataset(data, "in").flatten("tags", "tag")
        execution = ds.execute(capture=True)
        # Pattern matching every output row: both positions merge into one id.
        source = _single_source(_backtrace(execution, "root{/tag}"))
        assert source.ids() == [1]
        tags = source.structure.tree(1).find(parse_path("tags"))
        assert set(tags.children) == {1, 2}

    def test_outer_flatten_keeps_empty_items(self):
        session = Session()
        data = [{"a": 1, "tags": []}]
        ds = session.create_dataset(data, "in").flatten("tags", "tag", outer=True)
        execution = ds.execute(capture=True)
        assert len(execution) == 1
        source = _single_source(_backtrace(execution, "root{/a=1}"))
        assert source.ids() == [1]


class TestUnionBacktrace:
    def test_sides_separated(self):
        session = Session()
        left = session.create_dataset([{"a": 1}], "left")
        right = session.create_dataset([{"a": 2}], "right")
        execution = left.union(right).execute(capture=True)
        sources = _backtrace(execution, "root{/a=2}")
        by_name = {source.name: source for source in sources}
        assert by_name["left"].ids() == []
        # Identifiers are global across reads: "left" got id 1, "right" id 2.
        assert by_name["right"].ids() == [2]


class TestJoinBacktrace:
    def test_both_sides_traced_with_pruned_trees(self):
        session = Session()
        left = session.create_dataset([{"k": 1, "l_val": "a"}, {"k": 2, "l_val": "b"}], "left")
        right = session.create_dataset([{"fk": 1, "r_val": "x"}], "right")
        execution = left.join(right, col("k") == col("fk")).execute(capture=True)
        sources = _backtrace(execution, 'root{/l_val="a", /r_val="x"}')
        by_name = {source.name: source for source in sources}
        assert by_name["left"].ids() == [1]
        assert by_name["right"].ids() == [3]  # ids are global across reads
        left_tree = by_name["left"].structure.tree(1)
        assert left_tree.find(parse_path("l_val")) is not None
        assert left_tree.find(parse_path("r_val")) is None  # pruned: other side
        key_node = left_tree.find(parse_path("k"))
        assert key_node is not None and key_node.access  # join key accessed

    def test_unjoined_rows_absent(self):
        session = Session()
        left = session.create_dataset([{"k": 1}, {"k": 9}], "left")
        right = session.create_dataset([{"fk": 1, "v": 5}], "right")
        execution = left.join(right, col("k") == col("fk")).execute(capture=True)
        sources = _backtrace(execution, "root{/v=5}")
        by_name = {source.name: source for source in sources}
        assert by_name["left"].ids() == [1]


class TestAggregationBacktrace:
    def _captured(self, session=None):
        session = session or Session()
        data = [
            {"grp": "g1", "val": 1, "label": "a"},
            {"grp": "g1", "val": 2, "label": "b"},
            {"grp": "g2", "val": 3, "label": "c"},
        ]
        ds = session.create_dataset(data, "in").group_by(col("grp")).agg(
            collect_list(col("label")).alias("labels"),
            sum_(col("val")).alias("total"),
            count().alias("n"),
        )
        return ds.execute(capture=True)

    def test_positional_query_keeps_only_matching_member(self):
        execution = self._captured()
        source = _single_source(_backtrace(execution, 'root{/grp="g1", /labels="b"}'))
        # "b" is the second member of group g1 -> only input id 2 remains.
        assert source.ids() == [2]

    def test_scalar_aggregate_keeps_all_members(self):
        execution = self._captured()
        source = _single_source(_backtrace(execution, 'root{/grp="g1", /total=3}'))
        assert source.ids() == [1, 2]
        tree = source.structure.tree(1)
        assert tree.find(parse_path("val")) is not None
        assert tree.find(parse_path("total")) is None

    def test_whole_collection_query_keeps_all_members(self):
        execution = self._captured()
        source = _single_source(_backtrace(execution, 'root{/grp="g2", /labels}'))
        assert source.ids() == [3]

    def test_key_only_query_yields_empty_provenance(self):
        """Alg. 4's strict inProv filter: key-only matches are removed."""
        execution = self._captured()
        sources = _backtrace(execution, 'root{/grp="g1"}')
        assert all(source.structure.is_empty() for source in sources)

    def test_group_key_marked_accessed(self):
        execution = self._captured()
        source = _single_source(_backtrace(execution, 'root{/grp="g1", /labels="a"}'))
        tree = source.structure.tree(1)
        grp = tree.find(parse_path("grp"))
        assert grp is not None and grp.access


class TestWholeDagBacktrace:
    def test_manual_seed_over_shared_source(self):
        """A diamond plan (one read consumed twice) visits the read once."""
        session = Session()
        base = session.create_dataset([{"a": 1}, {"a": 2}], "in")
        left = base.filter(col("a") == 1)
        right = base.filter(col("a") == 2)
        union = left.union(right)
        execution = union.execute(capture=True)
        sources = _backtrace(execution, "root{/a}")
        assert len(sources) == 1
        assert sources[0].ids() == [1, 2]

    def test_empty_seed_returns_empty_sources(self):
        session = Session()
        ds = session.create_dataset([{"a": 1}], "in").filter(col("a") == 1)
        execution = ds.execute(capture=True)
        sources = Backtracer(execution.store).backtrace(
            execution.root.oid, BacktraceStructure()
        )
        assert len(sources) == 1
        assert sources[0].structure.is_empty()
