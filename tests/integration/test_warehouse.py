"""Integration tests for the provenance warehouse (record once, query later).

The acceptance path of the subsystem: capture the running example, record
it into a warehouse, reopen the warehouse from disk (a fresh object, as
after a process restart), and check that a lazy tree-pattern backtrace
returns exactly the in-memory answer -- while the segment-cache counters
prove how little of the run the query actually decoded.
"""

import zlib

import pytest

import repro.warehouse.format as wf
from repro.cli import main
from repro.engine.expressions import col
from repro.engine.session import Session
from repro.errors import BacktraceError, ProvenanceError
from repro.pebble.query import query_provenance
from repro.stream import StreamSession
from repro.warehouse import LazyProvenanceStore, Warehouse
from repro.warehouse.reader import StoredRun
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN
from tests.oracle.full_parse import full_parse_backtrace


@pytest.fixture
def recorded(captured_example, tmp_path):
    """The running example recorded into a warehouse; returns (root, run_id)."""
    warehouse = Warehouse.open(tmp_path / "wh")
    record = warehouse.record(captured_example, name="example")
    return tmp_path / "wh", record.run_id


@pytest.fixture(params=["batch", "uncompacted-epoch"])
def stored_run(request, captured_example, tmp_path):
    """One stored run per on-disk layout, every operator of which sits on the
    backtrace path from the sink; returns (root, run_id, pattern, operators)."""
    warehouse = Warehouse.open(tmp_path / "wh")
    if request.param == "batch":
        record = warehouse.record(captured_example, name="example")
        return tmp_path / "wh", record.run_id, RUNNING_EXAMPLE_PATTERN, 9
    stream = StreamSession(warehouse=warehouse, name="feed")
    stream.open(stream.dataset().filter(col("user") == "u1").select(col("id"), col("user")))
    for low in (0, 4, 8):
        stream.ingest([{"id": i, "user": f"u{i % 2}"} for i in range(low, low + 4)])
    stream.finish(compact=False)
    return tmp_path / "wh", stream.run_id, 'root{/user="u1"}', 3


class TestRecordAndCatalog:
    def test_record_creates_catalogued_run(self, recorded):
        root, run_id = recorded
        warehouse = Warehouse.open(root)
        runs = warehouse.runs()
        assert [record.run_id for record in runs] == [run_id]
        assert runs[0].name == "example"
        assert runs[0].operator_count == 9
        assert runs[0].row_count == 3
        assert runs[0].total_bytes > 0

    def test_many_runs_under_one_root(self, captured_example, tmp_path):
        warehouse = Warehouse.open(tmp_path / "wh")
        first = warehouse.record(captured_example, name="example")
        second = warehouse.record(captured_example, name="example")
        assert first.run_id != second.run_id
        reopened = Warehouse.open(tmp_path / "wh")
        assert len(reopened) == 2
        # A name resolves to its newest run; explicit ids stay addressable.
        assert reopened.load("example").store.run_id == second.run_id
        assert reopened.load(first.run_id).store.run_id == first.run_id

    def test_plain_execution_rejected(self, example_pipeline, tmp_path):
        execution = example_pipeline.execute(capture=False)
        with pytest.raises(ProvenanceError):
            Warehouse.open(tmp_path / "wh").record(execution)

    def test_root_must_be_a_directory(self, tmp_path):
        afile = tmp_path / "not-a-dir"
        afile.write_text("x")
        with pytest.raises(ProvenanceError):
            Warehouse.open(afile)


class TestLazyBacktrace:
    def test_backtrace_identical_to_in_memory(self, captured_example, recorded):
        """The acceptance criterion: restart, query, same answer."""
        before = query_provenance(captured_example, RUNNING_EXAMPLE_PATTERN)

        root, run_id = recorded
        warehouse = Warehouse.open(root)  # fresh object: simulated restart
        after, _ = warehouse.backtrace(run_id, RUNNING_EXAMPLE_PATTERN)

        assert after.all_ids() == before.all_ids()
        assert after.matched_output_ids == before.matched_output_ids
        assert after.render() == before.render()

    def test_query_decodes_reachable_operators_once(self, stored_run):
        root, run_id, pattern, operators = stored_run
        warehouse = Warehouse.open(root)
        run = warehouse.load(run_id)
        store = run.store
        assert isinstance(store, LazyProvenanceStore)

        assert run.backtrace(pattern).matched_output_ids
        # Every operator sits on the backtrace path from the sink; each
        # decoded exactly once (however many epochs hold a piece of it).
        first_misses = store.metrics.misses
        assert first_misses == len(store) == operators

        run.backtrace(pattern)
        assert store.metrics.misses == first_misses, "second query must hit the cache"
        assert store.metrics.hits > 0

    def test_unmatched_branch_items_never_decode(self, tmp_path):
        """Item blocks decode per contributing source, not per run."""
        session = Session()
        left = session.create_dataset(
            [{"grp": "a", "val": 1}, {"grp": "a", "val": 2}], "left.json"
        )
        right = session.create_dataset([{"grp": "b", "val": 3}], "right.json")
        execution = left.union(right).execute(capture=True)

        warehouse = Warehouse.open(tmp_path / "wh")
        run_id = warehouse.record(execution, name="union").run_id

        result, metrics = warehouse.backtrace(run_id, 'root{/grp="a"}')
        by_name = {source.name: source for source in result.sources}
        assert len(by_name["left.json"]) == 2
        assert len(by_name["right.json"]) == 0
        # Both read operators' records decode (the backtrace walks them),
        # but only the contributing source pays for its item block.
        assert metrics.item_misses == 1

    def test_index_only_lookups_decode_nothing(self, captured_example, recorded):
        root, run_id = recorded
        warehouse = Warehouse.open(root)
        store = LazyProvenanceStore(warehouse.run_dir(run_id))
        metrics = store.metrics

        assert len(store) == 9
        assert store.is_source(1) and not store.is_source(9)
        assert store.source_name(1) == "tweets.json"
        lazy_report = store.size_report()
        assert metrics.misses == 0 and metrics.item_misses == 0, (
            "catalog/index lookups must not decode segments"
        )
        eager_report = captured_example.store.size_report()
        assert lazy_report.lineage_bytes == eager_report.lineage_bytes
        assert lazy_report.structural_bytes == eager_report.structural_bytes

    def test_inspect_serves_from_the_index(self, recorded):
        root, run_id = recorded
        summary = Warehouse.open(root).inspect(run_id)
        assert summary["run_id"] == run_id
        assert summary["rows"] == 3
        assert len(summary["operators"]) == 9
        reads = [op for op in summary["operators"] if op["kind"] == "read"]
        assert {op["source_name"] for op in reads} == {"tweets.json"}

    def test_the_byte_ledger_adds_up_to_the_part_file(self, recorded, tmp_path, capsys):
        """Items, records, rows and index: every byte of ``part.seg`` of a
        run recorded with its index, from the footer alone; an epoch run
        sums its parts.  ``warehouse inspect`` prints the same line."""
        from tests.fixtures.make_warehouse_v2 import narrow, stream_rows

        root, run_id = recorded
        warehouse = Warehouse.open(root)
        ledger = warehouse.inspect(run_id)["bytes"]
        assert set(ledger) == {"items", "records", "rows", "index"}
        assert min(ledger.values()) > 0
        assert sum(ledger.values()) == (warehouse.run_dir(run_id) / "part.seg").stat().st_size

        stream = StreamSession(warehouse=root, name="feed")
        stream.open(narrow(stream.dataset()))
        for lo, hi in ((0, 6), (6, 10)):
            stream.ingest(stream_rows(lo, hi))
        run_dir = stream.warehouse.run_dir(stream.run_id)
        ledger = Warehouse.open(root).inspect(stream.run_id)["bytes"]
        assert sum(ledger.values()) == sum(p.stat().st_size for p in run_dir.rglob("part.seg"))

        capsys.readouterr()
        for run in (run_id, stream.run_id):
            assert main(["warehouse", "inspect", run, "--root", str(root)]) == 0
            ledger = Warehouse.open(root).inspect(run)["bytes"]
            line = (
                f"bytes: {ledger['items']} items, {ledger['records']} records, "
                f"{ledger['rows']} rows, {ledger['index']} index"
            )
            assert line in capsys.readouterr().out.splitlines()

    def test_eviction_keeps_answers_correct(self, captured_example, recorded):
        """The store never evicts: repeated backtraces answer as the
        in-memory run does, and only the first one decodes anything."""
        root, run_id = recorded
        run = StoredRun(LazyProvenanceStore(Warehouse.open(root).run_dir(run_id)))
        before = query_provenance(captured_example, RUNNING_EXAMPLE_PATTERN)
        assert run.backtrace(RUNNING_EXAMPLE_PATTERN).render() == before.render()
        decoded = (run.store.metrics.misses, run.store.metrics.item_misses)
        assert run.backtrace(RUNNING_EXAMPLE_PATTERN).render() == before.render()
        assert (run.store.metrics.misses, run.store.metrics.item_misses) == decoded


class TestColdPathParsesOnlyWhatTheQuestionTouches:
    def test_t2_decodes_only_candidate_rows_and_answer_items(self, tmp_path):
        from repro.obs.breakdown import QueryBreakdown
        from repro.workloads.scenarios import load_workload, scenario

        spec = scenario("T2")
        execution = spec.build(Session(), load_workload("twitter", 0.2)).execute(
            capture=True
        )
        warehouse = Warehouse.open(tmp_path / "wh")
        run_id = warehouse.record(execution, name="T2").run_id

        breakdown = QueryBreakdown()
        result, metrics = Warehouse.open(tmp_path / "wh").backtrace(
            run_id, spec.pattern, breakdown=breakdown
        )
        answer_items = sum(len(source) for source in result.sources)
        assert answer_items > 0
        assert metrics.items_decoded == answer_items
        counters = breakdown.counters
        assert counters["items_decoded"] == answer_items
        assert counters["rows_visited"] == len(execution)
        assert len(result.matched_output_ids) <= counters["rows_decoded"]
        assert counters["rows_decoded"] == metrics.rows_decoded < counters["rows_visited"]
        manifest = LazyProvenanceStore(warehouse.run_dir(run_id)).manifest
        stored_items = sum(
            entry.get("item_count", 0) for entry in manifest["operators"].values()
        )
        assert metrics.items_decoded < stored_items

        assert result.render() == query_provenance(execution, spec.pattern).render()

        # A run kept open answers again without parsing a row twice; its
        # rows() parses the rest, once each.
        run = warehouse.load(run_id)
        assert run.backtrace(spec.pattern).render() == result.render()
        parsed = run.store.metrics.rows_decoded
        assert run.backtrace(spec.pattern).render() == result.render()
        assert run.store.metrics.rows_decoded == parsed
        assert len(run.rows()) == run.store.metrics.rows_decoded == len(execution)

    def test_resident_store_parses_an_item_once(self, recorded):
        root, run_id = recorded
        store = LazyProvenanceStore(Warehouse.open(root).run_dir(run_id))
        first = store.source_item(1, 1)
        assert store.source_item(1, 1) is first
        assert store.metrics.items_decoded == 1
        assert (store.metrics.item_misses, store.metrics.item_hits) == (1, 1)
        everything = store.source_items(1)
        assert everything[1] is first
        assert store.metrics.items_decoded == len(everything)
        with pytest.raises(BacktraceError):
            store.source_item(1, 10**9)

    def test_peeked_items_are_not_kept(self, recorded):
        """Forward-trace candidates are tested and dropped: peeking parses
        without growing the resident block (serve RSS follows answers)."""
        root, run_id = recorded
        store = LazyProvenanceStore(Warehouse.open(root).run_dir(run_id))
        peeked = store.peek_source_item(1, 1)
        assert store.peek_source_item(1, 1) is not peeked
        assert store.metrics.items_decoded == 0 and store.metrics.item_misses == 1
        kept = store.source_item(1, 1)
        assert repr(kept) == repr(peeked)
        assert store.peek_source_item(1, 1) is kept
        with pytest.raises(BacktraceError):
            store.peek_source_item(1, 10**9)


@pytest.fixture
def inflations(monkeypatch) -> list[int]:
    """The compressed size of every item frame inflated from here on."""
    calls: list[int] = []
    real = zlib.decompress

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(zlib, "decompress", counting)
    return calls


class TestFramesInflateOnlyWhatTheAnswerReaches:
    def test_a_cold_t2_backtrace_inflates_no_more_frames_than_items_it_decodes(
        self, tmp_path, inflations
    ):
        from repro.workloads.scenarios import load_workload, scenario

        spec = scenario("T2")
        execution = spec.build(Session(), load_workload("twitter", 0.2)).execute(
            capture=True
        )
        warehouse = Warehouse.open(tmp_path / "wh")
        run_id = warehouse.record(execution, name="T2").run_id
        inflations.clear()
        result, metrics = Warehouse.open(tmp_path / "wh").backtrace(run_id, spec.pattern)
        assert result.render() == query_provenance(execution, spec.pattern).render()
        assert 0 < len(inflations) <= metrics.items_decoded
        manifest = LazyProvenanceStore(warehouse.run_dir(run_id)).manifest
        frames = sum(
            -(-entry["item_count"] // wf.FRAME_ITEMS)
            for entry in manifest["operators"].values()
            if "item_count" in entry
        )
        assert len(inflations) < frames

    def test_ids_membership_and_retention_inflate_nothing(self, tmp_path, inflations):
        from tests.fixtures.make_warehouse_v2 import narrow, stream_rows

        stream = StreamSession(warehouse=tmp_path / "wh", name="feed")
        stream.open(narrow(stream.dataset()))
        for lo, hi in ((0, 20), (20, 40), (40, 60)):
            stream.ingest(stream_rows(lo, hi))
        stream.finish(compact=False)
        warehouse, run_dir = stream.warehouse, stream.warehouse.run_dir(stream.run_id)
        store = LazyProvenanceStore(run_dir)
        (source,) = [oid for oid in store.topology() if store.is_source(oid)]
        everything = store.source_ids(source)
        created = store.manifest["epochs"][0]["created"]
        inflations.clear()
        (receipt,) = warehouse.retain(1.0, stream.run_id, now=created + 1.0)["receipts"]
        assert receipt["verified"] == {"sink_ids_absent": True, "source_ids_absent": True}
        expired = set(receipt["expired_epochs"][0]["source_ids"][str(source)])
        assert len(expired) == 20
        store = LazyProvenanceStore(run_dir)
        assert store.source_ids(source) == [i for i in everything if i not in expired]
        assert all(
            store.decayed_source_id(source, item_id) == (item_id in expired)
            for item_id in everything
        )
        assert inflations == []
        store.source_item(source, store.source_ids(source)[0])
        assert len(inflations) == 1


class TestEvictionAccounting:
    """Decoded operators and opened item blocks stay for the store's life:
    nothing is evicted, so each is decoded at most once per store."""

    @pytest.fixture
    def store(self, recorded):
        root, run_id = recorded
        return LazyProvenanceStore(Warehouse.open(root).run_dir(run_id))

    def test_operator_evictions_count_each_displacement(self, store):
        metrics = store.metrics
        store.get(9)
        store.get(8)
        store.get(9)  # 9 was not displaced by 8: a hit, not a re-decode
        assert metrics.misses == 2 and metrics.hits == 1
        assert "evictions" not in metrics.to_json()

    def test_item_block_evictions_count_separately(self, store):
        # Operators 1 and 4 are the running example's two read operators.
        store.source_items(1)
        store.source_items(4)
        store.source_items(1)
        metrics = store.metrics
        assert metrics.item_misses == 2 and metrics.item_hits == 1
        assert metrics.misses == metrics.hits == 0, "item blocks count apart"

    def test_within_capacity_never_evicts(self, store):
        for oid in range(1, 10):
            store.get(oid)
            store.get(oid)
        assert store.metrics.hits == store.metrics.misses == 9

    def test_decodes_each_once(self, stored_run):
        """Repeated backtraces over one store, batch or epoch layout: each
        operator decodes once (``misses``) and each read operator that
        contributes opens its item block once (``item_misses``); the answer
        equals the full-parse oracle's every time."""
        root, run_id, pattern, operators = stored_run
        warehouse = Warehouse.open(root)
        expected = full_parse_backtrace(warehouse.load(run_id).store, pattern)
        run = StoredRun(LazyProvenanceStore(warehouse.run_dir(run_id)))
        for _ in range(3):
            answer = run.backtrace(pattern)
            assert answer.render() == expected.render()
            assert answer.all_ids() == expected.all_ids()
        metrics = run.store.metrics
        contributing = [source for source in answer.sources if not source.is_empty()]
        assert metrics.misses == operators
        assert metrics.item_misses == len(contributing) > 0
        assert metrics.hits > 0 and metrics.item_hits > 0

    def test_reset_clears_every_counter(self, store):
        store.get(9)
        store.get(8)
        store.source_items(1)
        metrics = store.metrics
        assert metrics.lookups > 0 and metrics.bytes_read > 0
        metrics.reset()
        assert metrics.to_json() == {
            "hits": 0,
            "misses": 0,
            "item_hits": 0,
            "item_misses": 0,
            "bytes_read": 0,
            "rows_decoded": 0,
            "items_decoded": 0,
            "hit_rate": 0.0,
        }


class TestWarehouseCli:
    def test_record_ls_inspect_query(self, tmp_path, capsys):
        root = str(tmp_path / "wh")
        assert main(["warehouse", "record", "example", "--root", root]) == 0
        assert main(["warehouse", "ls", "--root", root]) == 0
        assert main(["warehouse", "inspect", "example", "--root", root]) == 0
        assert (
            main(
                [
                    "warehouse",
                    "query",
                    "example",
                    RUNNING_EXAMPLE_PATTERN,
                    "--root",
                    root,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "run-0001-example" in output
        assert "segments decoded: 9/9" in output
        assert "contributing" in output
        assert '"bytes_read"' in output, "query must print the cache accounting"

    def test_query_trace_flag_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs.tracer import iter_b_e_pairs

        root = str(tmp_path / "wh")
        trace_path = tmp_path / "query-trace.json"
        assert main(["warehouse", "record", "example", "--root", root]) == 0
        assert (
            main(
                [
                    "warehouse",
                    "query",
                    "example",
                    RUNNING_EXAMPLE_PATTERN,
                    "--root",
                    root,
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        list(iter_b_e_pairs(events))  # raises on imbalance
        names = {event["name"] for event in events if event["ph"] == "B"}
        assert {"pattern-match", "backtrace", "source-resolution"} <= names
        assert any(name.startswith("segment-read") for name in names)
        assert all("ts" in e and "pid" in e and "tid" in e for e in events)

    def test_inspect_probe_reports_cache_accounting(self, tmp_path, capsys):
        root = str(tmp_path / "wh")
        assert main(["warehouse", "record", "example", "--root", root]) == 0
        assert (
            main(
                [
                    "warehouse",
                    "inspect",
                    "example",
                    "--root",
                    root,
                    "--probe",
                    RUNNING_EXAMPLE_PATTERN,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "segment cache:" in output
        assert '"misses": 9' in output

    def test_stats_command(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "wh")
        assert main(["warehouse", "record", "example", "--root", root]) == 0
        assert main(["stats", "example", "--root", root]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_run_operators gauge" in text
        assert "repro_run_operators" in text and "} 9" in text
        assert "repro_run_capture_seconds_total" in text

        assert (
            main(
                [
                    "stats",
                    "--root",
                    root,
                    "--pattern",
                    RUNNING_EXAMPLE_PATTERN,
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload["metrics"]}
        assert "repro_segment_cache_misses_total" in names
        assert "repro_run_rows" in names

    def test_stats_reads_a_run_stored_before_3_3(self, tmp_path, capsys):
        """Runs recorded before 3.3 carry a ``scheduler`` block in their
        ``metrics.json``; ``repro stats`` still reports them and ignores it."""
        import json

        root = tmp_path / "wh"
        record = Warehouse.open(root).record(
            Session().create_dataset([{"a": 1}], "in").execute(capture=True),
            name="old",
        )
        metrics_path = Warehouse.open(root).run_dir(record.run_id) / "metrics.json"
        stored = json.loads(metrics_path.read_text())
        assert "scheduler" not in stored
        stored["scheduler"] = {"backend": "threads"} | {
            f"task_{kind}": count
            for kind, count in (("attempts", 6), ("retries", 2), ("timeouts", 0))
        }
        metrics_path.write_text(json.dumps(stored))

        assert main(["stats", "old", "--root", str(root)]) == 0
        text = capsys.readouterr().out
        assert "repro_run_operators" in text
        assert "repro_run_task_" not in text
        assert main(["stats", "old", "--root", str(root), "--json"]) == 0
        names = {entry["name"] for entry in json.loads(capsys.readouterr().out)["metrics"]}
        assert "repro_run_total_seconds" in names
        assert not any(name.startswith("repro_run_task_") for name in names)
