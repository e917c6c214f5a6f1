"""The provenance query service, end to end over a real HTTP socket.

Each test stands up a :class:`ProvenanceServer` on an ephemeral port over a
freshly recorded warehouse, with its own :class:`MetricsRegistry` so request
accounting is assertable per test.  The core guarantee pinned here: answers
served concurrently through the HTTP + pool + cache stack are byte-identical
to the in-memory capture's own ``query_provenance`` answer.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.client import RetryPolicy, scrape
from repro.errors import AdmissionError, ProvenanceError, TaskTimeoutError
from repro.obs.metrics import MetricsRegistry
from repro.pebble.query import query_provenance
from repro.serve import (
    ProvenanceServer,
    QueryService,
    ServeConfig,
    result_to_json,
)
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN, scenario

NO_BACKOFF = RetryPolicy(max_retries=2, backoff=0.0)


@pytest.fixture
def recorded(captured_example, tmp_path):
    """The running example recorded into a warehouse; returns (root, run_id)."""
    root = tmp_path / "wh"
    record = Warehouse.open(root).record(captured_example, name="example")
    return root, record.run_id


@pytest.fixture
def served(recorded):
    """A live server over the recorded warehouse; yields (server, service, root)."""
    root, _ = recorded
    service = QueryService.open(
        ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
    )
    with ProvenanceServer(service, port=0) as server:
        yield server, service, root


@pytest.fixture
def client(served):
    server, _, _ = served
    return repro.connect(server.url, policy=NO_BACKOFF)


class TestEndpoints:
    def test_healthz_reports_capacity(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["runs"] == 1
        assert health["workers"] == 4

    def test_runs_lists_the_catalog(self, client, recorded):
        _, run_id = recorded
        runs = client.runs()
        assert [run["run_id"] for run in runs] == [run_id]

    def test_run_detail_includes_manifest_and_metrics(self, client, recorded):
        _, run_id = recorded
        detail = client.run(run_id)
        assert detail["run_id"] == run_id
        assert len(detail["operators"]) == 9
        assert "total_seconds" in detail["metrics"]

    def test_unknown_run_is_404(self, client):
        # The /v1 envelope's stable code rebuilds the server-side exception
        # class on the client: not a generic "HTTP 404" ServeError.
        from repro.errors import ProvenanceError

        with pytest.raises(ProvenanceError) as info:
            client.run("no-such-run")
        assert "no run 'no-such-run'" in str(info.value)

    def test_unknown_route_is_404(self, served):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(served[0].url + "/v1/nope", timeout=5)
        assert info.value.code == 404

    def test_malformed_query_is_400(self, client):
        from repro.errors import ServeError, TreePatternError

        with pytest.raises(TreePatternError):
            client.backtrace("root{")  # unbalanced pattern
        with pytest.raises(ServeError):
            client.backtrace(RUNNING_EXAMPLE_PATTERN, analyze="yes")

    def test_metrics_exposes_request_queue_and_cache_counters(self, client):
        client.backtrace(RUNNING_EXAMPLE_PATTERN)
        text = client.metrics_text()
        assert 'repro_serve_requests_total{endpoint="/v1/query",status="200"}' in text
        assert "\nrepro_serve_queries_total 1\n" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_pattern_cache_hits" in text
        assert "repro_serve_segment_cache_misses" in text

    def test_stats_matches_local_registry_plus_serve_counters(
        self, served, client, recorded
    ):
        root, run_id = recorded
        local = Warehouse.open(root).stats(run_id, registry=MetricsRegistry())
        remote = client.stats(run=run_id)
        # Every warehouse metric appears verbatim; the remote registry may
        # additionally fold in this server's repro_serve_* counters.
        extras = [
            metric
            for metric in remote["metrics"]
            if metric not in local.to_json()["metrics"]
        ]
        assert all(metric["name"].startswith("repro_serve_") for metric in extras)
        client.backtrace(RUNNING_EXAMPLE_PATTERN)
        text = scrape(f"{served[0].url}/stats?format=prometheus&run={run_id}")
        for line in local.render_prometheus().splitlines():
            assert line in text
        assert "\nrepro_serve_queries_total 1\n" in text


class TestQueryEquivalence:
    def test_served_answer_equals_direct_backtrace(self, served, client, captured_example):
        payload = client.backtrace(RUNNING_EXAMPLE_PATTERN)
        direct = query_provenance(captured_example, RUNNING_EXAMPLE_PATTERN)
        assert payload["result"] == result_to_json(direct)
        assert "method" not in payload
        assert payload["server"]["cached"] is False

    def test_a_second_query_parses_no_row_already_parsed(self, served, client):
        _, service, _ = served
        client.backtrace(RUNNING_EXAMPLE_PATTERN)
        run = service._residents[service.warehouse.resolve().run_id].run
        parsed = run.store.metrics.rows_decoded
        assert parsed > 0
        # analyze bypasses the answer cache: the rows are asked for again.
        client.backtrace(RUNNING_EXAMPLE_PATTERN, analyze=True)
        assert run.store.metrics.rows_decoded == parsed
        # A pattern with no constant needs every row; each is parsed once.
        client.backtrace("root{//id_str}")
        assert run.store.metrics.rows_decoded == len(run.rows())

    def test_concurrent_queries_identical_to_serial(
        self, served, recorded, captured_example
    ):
        """N threads of mixed /query + /runs == the serial answers, byte for byte."""
        server, service, root = served
        _, run_id = recorded
        patterns = [
            RUNNING_EXAMPLE_PATTERN,
            'root{//name="vx"}',
            'root{//id_str="lp"}',
        ]
        serial = {
            pattern: json.dumps(
                result_to_json(query_provenance(captured_example, pattern)),
                sort_keys=True,
            )
            for pattern in patterns
        }
        workers = 8
        per_worker = 6
        barrier = threading.Barrier(workers)
        failures = []
        lock = threading.Lock()

        def drive(worker: int):
            client = repro.connect(server.url, policy=NO_BACKOFF)
            barrier.wait()
            for step in range(per_worker):
                pattern = patterns[(worker + step) % len(patterns)]
                try:
                    payload = client.backtrace(pattern)
                    got = json.dumps(payload["result"], sort_keys=True)
                    if got != serial[pattern]:
                        raise AssertionError(f"divergent answer for {pattern}")
                    if [run["run_id"] for run in client.runs()] != [run_id]:
                        raise AssertionError("catalog changed mid-flight")
                except Exception as exc:  # noqa: BLE001 -- collected for assert
                    with lock:
                        failures.append(exc)

        threads = [
            threading.Thread(target=drive, args=(index,)) for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        # Single-flight caching makes the counters deterministic even under
        # this much concurrency: one miss per unique (run, pattern).
        snap = service.cache.snapshot()
        assert snap["misses"] == len(patterns)
        assert snap["hits"] == workers * per_worker - len(patterns)
        # And decode-under-lock does the same for the segment cache: the
        # lazy store decoded each reachable segment exactly once.
        store = service._residents[run_id].run.store
        report = store.size_report()
        assert store.metrics.misses <= len(report.per_operator)

    def test_concurrent_identical_queries_compute_once(self, served):
        """24 identical asks from 4 threads: one computes, 23 are served warm."""
        server, _, _ = served
        workers = 4
        per_worker = 6
        barrier = threading.Barrier(workers)
        payloads = []
        lock = threading.Lock()

        def drive():
            client = repro.connect(server.url, policy=NO_BACKOFF)
            barrier.wait()
            for _ in range(per_worker):
                payload = client.backtrace(RUNNING_EXAMPLE_PATTERN)
                with lock:
                    payloads.append(payload)

        threads = [threading.Thread(target=drive) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(payloads) == workers * per_worker
        cached = [payload["server"]["cached"] for payload in payloads]
        assert cached.count(False) == 1
        assert cached.count(True) == workers * per_worker - 1
        assert all(payload["result"] == payloads[0]["result"] for payload in payloads)


class TestAdmissionAndDeadlines:
    def test_full_queue_answers_429(self, recorded):
        root, _ = recorded
        service = QueryService.open(
            ServeConfig(root=str(root), port=0, workers=1, queue_limit=0, deadline=None),
            registry=MetricsRegistry(),
        )
        release = threading.Event()
        entered = threading.Event()

        def hold():
            entered.set()
            release.wait(10)

        service.query_hook = hold
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url, policy=RetryPolicy(max_retries=0))
            blocker = threading.Thread(
                target=lambda: client.backtrace(RUNNING_EXAMPLE_PATTERN)
            )
            blocker.start()
            try:
                assert entered.wait(5)
                with pytest.raises(AdmissionError):
                    # A different pattern: must reach the pool, not the cache.
                    client.backtrace('root{//name="vx"}')
            finally:
                release.set()
                blocker.join()
            assert service.pool.stats.rejected == 1
            text = client.metrics_text()
            assert 'status="429"' in text

    def test_deadline_overrun_answers_504(self, recorded):
        root, _ = recorded
        service = QueryService.open(
            ServeConfig(root=str(root), port=0, workers=2, deadline=0.1),
            registry=MetricsRegistry(),
        )
        service.query_hook = lambda: threading.Event().wait(2)
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url, policy=RetryPolicy(max_retries=0))
            with pytest.raises(TaskTimeoutError):
                client.backtrace(RUNNING_EXAMPLE_PATTERN)
            assert service.pool.stats.timeouts == 1
            # The failure must not be cached: a later, fast ask recomputes.
            service.query_hook = None
            payload = client.backtrace(RUNNING_EXAMPLE_PATTERN)
            assert payload["server"]["cached"] is False


class TestCacheInvalidation:
    """Cached answers and resident stores go stale by run, never wholesale."""

    def test_new_run_keeps_explicit_run_answers_cached(
        self, served, recorded, captured_example
    ):
        server, service, root = served
        _, run_id = recorded
        client = repro.connect(server.url, policy=NO_BACKOFF)
        first = client.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
        assert first["server"]["cached"] is False
        newest = client.backtrace(RUNNING_EXAMPLE_PATTERN)
        assert newest["server"]["cached"] is True  # the same resolved key
        # Another process records a new run into the same root.
        Warehouse.open(root).record(captured_example, name="example")
        pinned = client.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
        assert pinned["server"]["cached"] is True
        moved = client.backtrace(RUNNING_EXAMPLE_PATTERN)
        assert moved["server"]["cached"] is False  # misses by key
        assert moved["run_id"] != run_id  # newest-run resolution moved
        assert len(client.runs()) == 2
        assert service.cache.stats.invalidations == 0

    def test_a_removed_run_drops_its_answers_and_resident(
        self, captured_example, tmp_path
    ):
        root = tmp_path / "wh"
        warehouse = Warehouse.open(root)
        kept, removed = (
            warehouse.record(captured_example, name=name).run_id
            for name in ("kept", "removed")
        )
        service = QueryService.open(
            ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
        )
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url, policy=NO_BACKOFF)
            for run in (kept, removed):
                client.backtrace(RUNNING_EXAMPLE_PATTERN, run=run)
            assert client.health()["resident_runs"] == 2
            # A foreign writer rewrites the catalog without one run.
            path = root / "catalog.json"
            document = json.loads(path.read_text())
            document["runs"] = [
                entry for entry in document["runs"] if entry["run_id"] != removed
            ]
            path.write_text(json.dumps(document))
            with pytest.raises(ProvenanceError, match="no run") as info:
                client.backtrace(RUNNING_EXAMPLE_PATTERN, run=removed)
            assert info.value.code == "not_found"
            assert client.health()["resident_runs"] == 1
            again = client.backtrace(RUNNING_EXAMPLE_PATTERN, run=kept)
            assert again["server"]["cached"] is True
        assert service.cache.stats.invalidations == 1


class TestResidentRuns:
    def test_first_served_query_parses_only_candidate_rows(self, tmp_path):
        """A resident run parses the rows its first question cannot rule
        out by their bytes, not the whole run."""
        spec = scenario("D1")
        execution = spec.instantiate(0.2).execute(capture=True)
        root = tmp_path / "wh"
        record = Warehouse.open(root).record(execution, name="D1")
        with QueryService.open(
            ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
        ) as service:
            payload = service.request("query", {"pattern": spec.pattern})
            store = service._residents[record.run_id].run.store
            assert 0 < store.metrics.rows_decoded < record.row_count
        assert payload["result"] == result_to_json(query_provenance(execution, spec.pattern))


class TestForwardEndpoint:
    PATTERN = 'root{//id_str="lp"}'

    def test_forward_matches_library_answer(self, served, client, recorded):
        from repro.audit import trace_forward

        root, run_id = recorded
        payload = client.forward(self.PATTERN)
        direct = trace_forward(Warehouse.open(root), self.PATTERN)
        assert payload["result"] == direct.to_json()
        assert payload["run_id"] == run_id
        assert payload["server"]["cached"] is False
        again = client.forward(self.PATTERN)
        assert again["server"]["cached"] is True
        assert again["result"] == payload["result"]

    def test_cache_keys_are_direction_scoped(self, client):
        """A backward /query must never answer a /forward of the same pattern."""
        client.backtrace(RUNNING_EXAMPLE_PATTERN)
        payload = client.forward(RUNNING_EXAMPLE_PATTERN)
        assert payload["server"]["cached"] is False

    def test_bad_forward_inputs_are_400(self, client):
        from repro.errors import ServeError, TreePatternError

        with pytest.raises(TreePatternError):
            client.forward("root{")
        with pytest.raises(ServeError):
            client.forward(self.PATTERN, analyze="yes")

    def test_forward_admission_and_deadline(self, recorded):
        root, _ = recorded
        service = QueryService.open(
            ServeConfig(root=str(root), port=0, workers=1, queue_limit=0, deadline=None),
            registry=MetricsRegistry(),
        )
        release = threading.Event()
        entered = threading.Event()

        def hold():
            entered.set()
            release.wait(10)

        service.query_hook = hold
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url, policy=RetryPolicy(max_retries=0))
            blocker = threading.Thread(
                target=lambda: client.forward(self.PATTERN)
            )
            blocker.start()
            try:
                assert entered.wait(5)
                with pytest.raises(AdmissionError):
                    client.forward('root{//name="vx"}')
            finally:
                release.set()
                blocker.join()
            text = client.metrics_text()
            assert 'repro_serve_requests_total{endpoint="/v1/forward",status="429"}' in text


class TestSarEndpoint:
    SUBJECTS = ["lp", "nobody-xyz"]

    def test_sar_matches_library_answer(self, served, client, recorded):
        from repro.audit import subject_access_request

        root, _ = recorded
        payload = client.sar(self.SUBJECTS)
        direct = subject_access_request(Warehouse.open(root), self.SUBJECTS)
        assert payload["report"] == direct
        assert payload["server"]["cached"] is False
        assert client.sar(self.SUBJECTS)["server"]["cached"] is True
        # Subject order must not fragment the cache: the key sorts them.
        flipped = client.sar(list(reversed(self.SUBJECTS)))
        assert flipped["server"]["cached"] is True

    def test_sar_deadline_overrun_is_504(self, recorded):
        root, _ = recorded
        service = QueryService.open(
            ServeConfig(root=str(root), port=0, workers=2, deadline=0.1),
            registry=MetricsRegistry(),
        )
        service.query_hook = lambda: threading.Event().wait(2)
        with ProvenanceServer(service, port=0) as server:
            client = repro.connect(server.url, policy=RetryPolicy(max_retries=0))
            with pytest.raises(TaskTimeoutError):
                client.sar(self.SUBJECTS)
            text = client.metrics_text()
            assert 'endpoint="/v1/audit/sar",status="504"' in text

    def test_bad_sar_inputs_are_400(self, client):
        from repro.errors import AuditError, ServeError

        with pytest.raises(ServeError):
            client.sar([])
        with pytest.raises(AuditError):
            client.sar(["lp"], page=7)  # out of range
        with pytest.raises(AuditError):
            client.sar(["lp"], template="root{//no-placeholder}")

    def test_audit_counters_reach_metrics_and_remote_stats(
        self, client, recorded
    ):
        _, run_id = recorded
        client.forward('root{//id_str="lp"}')
        client.sar(self.SUBJECTS)
        text = client.metrics_text()
        assert "\nrepro_serve_forward_queries_total 1\n" in text
        assert "repro_serve_sar_requests_total" in text
        names = {metric["name"] for metric in client.stats(run=run_id)["metrics"]}
        assert "repro_serve_forward_queries_total" in names
        assert "repro_serve_sar_requests_total" in names


class TestGracefulShutdown:
    def test_close_drains_flushes_and_repeats(self, served, client, caplog):
        import logging

        from repro.obs.log import LOGGER_NAME

        _, service, _ = served
        client.backtrace(RUNNING_EXAMPLE_PATTERN)
        client.forward('root{//id_str="lp"}')
        with caplog.at_level(logging.INFO, logger=LOGGER_NAME):
            service.close()
            service.close()  # idempotent: the second call is a no-op
        events = [
            record.structured
            for record in caplog.records
            if getattr(record, "structured", {}).get("event") == "serve-shutdown"
        ]
        assert len(events) == 1
        counters = events[0]["counters"]
        assert counters["repro_serve_queries_total"] == 1
        assert counters["repro_serve_forward_queries_total"] == 1
        assert events[0]["resident_runs"] == 1

    def test_signal_stops_serve_forever(self, recorded):
        """SIGTERM must end a blocking serve_forever() without deadlocking."""
        root, _ = recorded
        service = QueryService.open(
            ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
        )
        server = ProvenanceServer(service, port=0)
        server.install_signal_handlers()
        finished = threading.Event()

        def serve():
            server.serve_forever()
            finished.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = repro.connect(server.url, policy=NO_BACKOFF)
        assert client.health()["status"] == "ok"
        os.kill(os.getpid(), signal.SIGTERM)
        assert finished.wait(5), "serve_forever did not return after SIGTERM"
        assert server.signalled == signal.SIGTERM
        server.close()  # repeat shutdown stays safe after the signal path
        service.close()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


class TestCliIntegration:
    def test_stats_remote_matches_local(self, served, recorded, capsys):
        server, _, _ = served
        root, run_id = recorded
        assert cli_main(["stats", run_id, "--root", str(root), "--json"]) == 0
        local = capsys.readouterr().out
        assert cli_main(["stats", run_id, "--remote", server.url, "--json"]) == 0
        remote = capsys.readouterr().out
        assert json.loads(remote) == json.loads(local)

    def test_stats_requires_exactly_one_source(self, served, recorded, capsys):
        server, _, _ = served
        root, _ = recorded
        assert cli_main(["stats"]) == 2
        assert cli_main(["stats", "--slow"]) == 2
        assert (
            cli_main(["stats", "--root", str(root), "--remote", server.url]) == 2
        )
        capsys.readouterr()

    def test_serve_command_applies_every_flag(self, recorded, tmp_path):
        """``repro serve`` carries each of its ten flags to the running server."""
        root, _ = recorded
        trace = tmp_path / "serve-trace.json"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--root", str(root),
                "--host", "127.0.0.1", "--port", "0", "--workers", "3",
                "--queue-limit", "5", "--deadline", "7", "--cache-size", "1",
                "--retention-ttl", "3600", "--retention-sweep-interval", "60",
                "--trace", str(trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = [process.stdout.readline() for _ in range(3)]
            url = re.search(r"http://127\.0\.0\.1:\d+", banner[0]).group(0)
            assert "workers: 3  queue limit: 5  deadline: 7.0s" in banner[1]
            assert "retention: ttl 3600s, sweep every 60s" in banner[2]
            client = repro.connect(url, policy=NO_BACKOFF)
            health = client.health()
            assert (health["workers"], health["queue_limit"]) == (3, 5)

            def cached(pattern: str) -> bool:
                return client.backtrace(pattern)["server"]["cached"]

            # A one-entry cache: a second pattern evicts the first.
            assert [cached(RUNNING_EXAMPLE_PATTERN), cached(RUNNING_EXAMPLE_PATTERN)] == [
                False,
                True,
            ]
            cached('root{//name="vx"}')
            assert cached(RUNNING_EXAMPLE_PATTERN) is False
        finally:
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "shutting down (signal)" in out
        assert json.loads(trace.read_text())  # written on the way out
