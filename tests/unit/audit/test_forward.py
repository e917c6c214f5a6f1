"""Forward tracing over in-memory captures: the per-operator dual steps."""

from __future__ import annotations

import json

import pytest

from repro.audit.forward import ForwardTracer, required_terms, trace_forward
from repro.audit.sar import harvest_subjects, subject_pattern
from repro.core.treepattern.parser import parse_pattern
from repro.engine import col, collect_list, count, struct_
from repro.errors import AuditError
from repro.obs.breakdown import QueryBreakdown
from repro.warehouse import Warehouse
from repro.workloads.scenarios import scenario


class TestRequiredTerms:
    def test_equality_leaves_are_required(self):
        pattern = parse_pattern('root{//id_str="lp", /user{/name="Lisa Paul"}}')
        assert required_terms(pattern) == {"lp", "Lisa Paul"}

    def test_zero_lower_bound_disables_the_subtree(self):
        """[0,n] may be a negation: nothing below it is a required term."""
        pattern = parse_pattern('root{/tweets[0,2]{/text="Hello"}}')
        assert required_terms(pattern) == set()

    def test_positive_count_keeps_terms_required(self):
        pattern = parse_pattern('root{/tweets[2,2]{/text="Hello"}}')
        assert required_terms(pattern) == {"Hello"}

    def test_non_string_constraints_yield_nothing(self):
        assert required_terms(parse_pattern("root{//retweet_count=3}")) == set()


class TestForwardSteps:
    """Each operator kind: forward(x) contains y iff backtrace(y) contains x."""

    def _roundtrip(self, execution, pattern):
        """Forward from *pattern* inputs == outputs whose backtrace hits them."""
        tracer = ForwardTracer(execution)
        forward = tracer.trace(pattern)
        seeds = {i for source in forward.sources for i in source.ids}
        assert seeds, f"pattern {pattern} matched no source items"
        # Backtrace every output item individually: an output belongs in the
        # forward answer exactly when its backtrace reaches a seed.
        expected = set()
        for output_id, _ in execution.rows():
            if output_id is None:
                continue
            if _backtrace_ids(execution, output_id) & seeds:
                expected.add(output_id)
        assert set(forward.output_ids) == expected
        return forward

    def test_filter_select_chain(self, session):
        data = [{"k": "a", "v": 1}, {"k": "b", "v": 2}, {"k": "keepme", "v": 3}]
        execution = (
            session.create_dataset(data, "rows.json")
            .filter(col("k").contains("keep"))
            .select(col("k").alias("key"))
            .execute(capture=True)
        )
        forward = self._roundtrip(execution, 'root{/k="keepme"}')
        assert len(forward.output_ids) == 1

    def test_flatten_fans_out(self, session):
        data = [
            {"who": "lp", "tags": [{"t": "x"}, {"t": "y"}]},
            {"who": "jm", "tags": [{"t": "z"}]},
        ]
        execution = (
            session.create_dataset(data, "rows.json")
            .flatten("tags", "tag")
            .execute(capture=True)
        )
        forward = self._roundtrip(execution, 'root{/who="lp"}')
        assert len(forward.output_ids) == 2  # lp's two tags

    def test_join_reaches_both_sides(self, session):
        left = session.create_dataset(
            [{"id": "u1", "name": "A"}, {"id": "u2", "name": "B"}], "users.json"
        )
        right = session.create_dataset(
            [{"uid": "u1", "city": "X"}, {"uid": "u3", "city": "Y"}], "homes.json"
        )
        execution = left.join(right, col("id") == col("uid")).execute(capture=True)
        self._roundtrip(execution, 'root{/id="u1"}')
        self._roundtrip(execution, 'root{/uid="u1"}')

    def test_union_and_distinct(self, session):
        a = session.create_dataset([{"k": "dup"}, {"k": "only-a"}], "a.json")
        b = session.create_dataset([{"k": "dup"}, {"k": "only-b"}], "b.json")
        execution = a.union(b).distinct().execute(capture=True)
        forward = self._roundtrip(execution, 'root{/k="dup"}')
        assert len(forward.output_ids) == 1  # both duplicates feed one survivor

    def test_aggregation_members(self, session):
        data = [
            {"g": "x", "v": 1},
            {"g": "x", "v": 2},
            {"g": "y", "v": 3},
        ]
        execution = (
            session.create_dataset(data, "rows.json")
            .group_by(col("g"))
            .agg(collect_list(struct_(v=col("v"))).alias("vs"), count().alias("n"))
            .execute(capture=True)
        )
        forward = ForwardTracer(execution).trace('root{/g="x", /v=1}')
        assert len(forward.output_ids) == 1  # only group x derives from v=1


class TestResultShape:
    def test_to_json_excludes_stats(self, captured_example):
        result = ForwardTracer(captured_example).trace('root{//id_str="lp"}')
        payload = result.to_json()
        assert "stats" not in payload
        assert result.stats["index_used"] is False
        assert payload["direction"] == "forward"
        assert payload["output_ids"] == sorted(payload["output_ids"])

    def test_capture_disabled_raises(self, example_pipeline):
        execution = example_pipeline.execute(capture=False)
        with pytest.raises(AuditError):
            ForwardTracer(execution)

    def test_unknown_method_raises(self, captured_example, tmp_path):
        """There is one way to read a stored run: the lazy/eager ``method``
        keyword is gone (3.9), not silently accepted."""
        warehouse = Warehouse.open(tmp_path / "wh")
        warehouse.record(captured_example, name="example")
        with pytest.raises(TypeError, match="method"):
            trace_forward(warehouse, "root", method="eager")


class TestIndexedEqualsScan:
    def test_byte_identical_answers(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path / "wh")
        warehouse.record(captured_example, name="example")
        pattern = 'root{//id_str="lp"}'
        indexed = trace_forward(warehouse, pattern, use_index=True)
        scanned = trace_forward(warehouse, pattern, use_index=False)
        assert indexed.stats["index_used"] and not scanned.stats["index_used"]
        assert json.dumps(indexed.to_json(), sort_keys=True) == json.dumps(
            scanned.to_json(), sort_keys=True
        )

    def test_index_skips_untouched_operators(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path / "wh")
        warehouse.record(captured_example, name="example")
        miss = trace_forward(warehouse, 'root{//id_str="no-such-user"}')
        assert miss.output_ids == ()
        assert miss.stats["operators_decoded"] == 0
        assert miss.stats["operators_skipped"] > 0


class TestCandidateAccounting:
    """What an audit request does is parse and walk candidate source items;
    ``candidates_tested`` / ``candidates_confirmed`` count exactly that."""

    @pytest.fixture(scope="class")
    def recorded_t3(self, tmp_path_factory):
        warehouse = Warehouse.open(tmp_path_factory.mktemp("t3") / "wh")
        execution = scenario("T3").instantiate(0.2).execute(capture=True)
        record = warehouse.record(execution, name="t3")
        return warehouse, record.run_id

    def test_indexed_route_tests_the_terms_postings(self, recorded_t3):
        warehouse, run_id = recorded_t3
        run = warehouse.load(run_id)
        index = warehouse.load_index(run_id)
        sources = {
            provenance.oid
            for provenance in run.store.operators()
            if run.store.is_source(provenance.oid)
        }
        for subject in harvest_subjects(run, limit=200)[::20]:
            breakdown = QueryBreakdown()
            result = trace_forward(
                warehouse, subject_pattern(subject), run_id, breakdown=breakdown
            )
            postings = [oid for oid, _ in index.candidates(subject) if oid in sources]
            assert result.stats["index_used"]
            assert result.stats["candidates_tested"] == len(postings) > 0
            assert result.stats["candidates_confirmed"] == result.matched_input_count > 0
            counters = breakdown.to_json()["counters"]
            assert counters["candidates_tested"] == result.stats["candidates_tested"]
            assert counters["candidates_confirmed"] == counters["matched_inputs"]
            assert "candidates_tested" not in result.to_json()

    def test_scan_route_tests_every_item(self, recorded_t3):
        warehouse, run_id = recorded_t3
        store = warehouse.load(run_id).store
        item_count = sum(
            len(store.source_items(provenance.oid))
            for provenance in store.operators()
            if store.is_source(provenance.oid)
        )
        scanned = trace_forward(warehouse, 'root{//*="u1"}', run_id, use_index=False)
        indexed = trace_forward(warehouse, 'root{//*="u1"}', run_id)
        assert scanned.stats["candidates_tested"] == item_count
        assert indexed.stats["candidates_tested"] < item_count
        assert scanned.stats["candidates_confirmed"] == indexed.stats["candidates_confirmed"]
        assert scanned.to_json() == indexed.to_json()

    def test_no_postings_tests_nothing(self, recorded_t3):
        warehouse, run_id = recorded_t3
        miss = trace_forward(warehouse, 'root{//*="no-such-subject"}', run_id)
        assert miss.stats["candidates_tested"] == miss.stats["candidates_confirmed"] == 0


def _backtrace_ids(execution, output_id):
    """Source item ids in the full-item backtrace of one output item."""
    from repro.core.backtrace.algorithms import Backtracer
    from repro.core.backtrace.tree import BacktraceStructure, BacktraceTree
    from repro.core.paths import enumerate_paths

    tree = BacktraceTree()
    for path in enumerate_paths(_item_of(execution, output_id)):
        tree.ensure_path(path, contributing=True)
    structure = BacktraceStructure()
    structure.add(output_id, tree)
    sources = Backtracer(execution.store).backtrace(execution.root.oid, structure)
    return {i for source in sources for i in source.ids()}


def _item_of(execution, output_id):
    for pid, item in execution.rows():
        if pid == output_id:
            return item
    raise AssertionError(f"no output with id {output_id}")
