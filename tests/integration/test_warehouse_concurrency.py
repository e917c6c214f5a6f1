"""Warehouse readers racing a concurrent writer.

``record`` writes the run directory (segments, metrics, index) *before*
the catalog entry that makes it visible, so a reader that refreshes while
a write is in flight must either not see the new run yet or see it fully
loadable and queryable -- never a partially written directory.  These
tests drive that window hard: reader threads loop ``refresh()`` /
``resolve()`` / ``load()`` / query while a writer keeps recording into
the same root, and every answer must match the single-threaded baseline.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.pebble.query import query_provenance
from repro.serve.service import result_to_json
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN
from tests.oracle.full_parse import full_parse_backtrace

FORWARD_PATTERN = 'root{//id_str="lp"}'


@pytest.fixture
def seeded_root(captured_example, tmp_path):
    root = tmp_path / "wh"
    Warehouse.open(root).record(captured_example, name="seed")
    return root


class TestRefreshRace:
    def test_refresh_never_serves_a_partial_run(self, captured_example, seeded_root):
        baseline_wh = Warehouse.open(seeded_root)
        baseline = json.dumps(
            result_to_json(query_provenance(captured_example, RUNNING_EXAMPLE_PATTERN)),
            sort_keys=True,
        )
        forward_baseline = baseline_wh.forward(
            None, FORWARD_PATTERN
        ).output_ids

        extra_runs = 6
        stop = threading.Event()
        errors: list[BaseException] = []
        lock = threading.Lock()

        def writer():
            try:
                for i in range(extra_runs):
                    Warehouse.open(seeded_root).record(
                        captured_example, name=f"race-{i}"
                    )
            except BaseException as exc:  # noqa: BLE001 -- collected for assert
                with lock:
                    errors.append(exc)
            finally:
                stop.set()

        def reader():
            warehouse = Warehouse.open(seeded_root)
            try:
                while True:
                    final = stop.is_set()
                    warehouse.refresh()
                    for record in warehouse.runs():
                        run = warehouse.load(record.run_id)
                        report = run.store.size_report()
                        if len(report.per_operator) != record.operator_count:
                            raise AssertionError(
                                f"{record.run_id}: partial run served: "
                                f"{len(report.per_operator)} of "
                                f"{record.operator_count} operators"
                            )
                        answer = json.dumps(
                            result_to_json(run.backtrace(RUNNING_EXAMPLE_PATTERN)),
                            sort_keys=True,
                        )
                        if answer != baseline:
                            raise AssertionError(
                                f"{record.run_id}: divergent backtrace answer"
                            )
                        forward = warehouse.forward(record.run_id, FORWARD_PATTERN)
                        if forward.output_ids != forward_baseline:
                            raise AssertionError(
                                f"{record.run_id}: divergent forward answer"
                            )
                    if final:
                        break  # one full sweep after the writer finished
            except BaseException as exc:  # noqa: BLE001 -- collected for assert
                with lock:
                    errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in reader_threads:
            thread.start()
        writer_thread.start()
        writer_thread.join()
        for thread in reader_threads:
            thread.join()

        assert errors == []
        fresh = Warehouse.open(seeded_root)
        assert len(fresh.runs()) == 1 + extra_runs
        assert all(record.indexed for record in fresh.runs())

    def test_resolve_newest_moves_monotonically(self, captured_example, seeded_root):
        """resolve(None) under refresh never goes backwards in creation order."""
        warehouse = Warehouse.open(seeded_root)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                for i in range(5):
                    Warehouse.open(seeded_root).record(
                        captured_example, name=f"mono-{i}"
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        seen: list[str] = []

        def reader():
            try:
                while not stop.is_set():
                    warehouse.refresh()
                    newest = warehouse.resolve()
                    if not seen or seen[-1] != newest.run_id:
                        seen.append(newest.run_id)
                    # The newest run must always be fully loadable.
                    warehouse.load(newest.run_id)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        writer_thread.start()
        writer_thread.join()
        reader_thread.join()

        assert errors == []
        # Run ids are numbered in creation order; visibility is append-only.
        assert seen == sorted(seen)


class TestSharedStore:
    def test_threads_share_one_store_over_an_uncompacted_run(self, tmp_path):
        """``repro serve`` keeps one resident store per run for all request
        threads; over an epoch-layout run it must stay consistent and decode
        every operator once, not once per racing thread."""
        from repro.engine.expressions import col
        from repro.stream import StreamSession

        pattern = 'root{/user="u1"}'
        warehouse = Warehouse.open(tmp_path / "wh")
        stream = StreamSession(warehouse=warehouse, name="feed", num_partitions=2)
        stream.open(stream.dataset().filter(col("user") == "u1").select(col("id"), col("user")))
        for low in range(0, 40, 8):
            stream.ingest([{"id": i, "user": f"u{i % 2}"} for i in range(low, low + 8)])
        stream.finish(compact=False)

        def answer(run) -> str:
            return json.dumps(result_to_json(run.backtrace(pattern)), sort_keys=True)

        single = warehouse.load(stream.run_id)
        baseline = answer(single)
        assert baseline == json.dumps(
            result_to_json(full_parse_backtrace(single.store, pattern)), sort_keys=True
        )
        reached = single.store.metrics.misses
        assert reached == len(single.store) == 3

        shared = warehouse.load(stream.run_id)
        threads = 8
        barrier = threading.Barrier(threads)
        answers: list[str] = []
        errors: list[BaseException] = []

        def worker():
            try:
                barrier.wait()
                answers.append(answer(shared))
            except BaseException as exc:  # noqa: BLE001 -- collected for assert
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert errors == []
        assert answers == [baseline] * threads
        assert shared.store.metrics.misses == reached
        assert shared.store.metrics.item_misses == 1

    def test_two_threads_parse_each_surviving_row_once(self, tmp_path, monkeypatch):
        """Racing first questions over one stored run parse every row that
        survives the prefilter exactly once between them."""
        import time

        import repro.warehouse.reader as reader
        from repro.core.treepattern.matcher import prefilter_encoded_rows
        from repro.engine.expressions import col
        from repro.engine.session import Session
        from repro.pebble.query import as_pattern

        pattern = 'root{/user="u1"}'
        rows = [{"id": i, "user": f"u{i % 4}"} for i in range(64)]
        execution = (
            Session(num_partitions=2)
            .create_dataset(rows, "rows.json")
            .filter(col("id") >= 0)
            .execute(capture=True)
        )
        warehouse = Warehouse.open(tmp_path / "wh")
        run = warehouse.load(warehouse.record(execution, name="rows").run_id)
        survivors = list(prefilter_encoded_rows(as_pattern(pattern), run.store.encoded_rows()))

        parsed: list[bytes] = []
        parse = reader.item_from_json

        def slow_parse(raw):
            parsed.append(raw)
            time.sleep(0.001)  # widen the window in which the threads race
            return parse(raw)

        monkeypatch.setattr(reader, "item_from_json", slow_parse)
        barrier = threading.Barrier(2)
        answers: list[str] = []

        def ask():
            barrier.wait()
            answers.append(json.dumps(result_to_json(run.backtrace(pattern)), sort_keys=True))

        pool = [threading.Thread(target=ask) for _ in range(2)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(parsed) == len(set(parsed)) == len(survivors) == 16
        assert run.store.metrics.rows_decoded == len(survivors)
        expected = json.dumps(
            result_to_json(query_provenance(execution, pattern)), sort_keys=True
        )
        assert answers == [expected, expected]

