"""A serve fleet behind the router, end to end over real HTTP sockets.

Three thread-mode workers mount one sharded warehouse; a
:class:`RouterService` in front consistent-hashes queries to owners and
scatter-gathers the cross-run endpoints.  The invariant pinned throughout:
**the fleet is an implementation detail** -- every answer fetched through
the router is byte-identical to a direct library call and to a
``repro.connect("file://...")`` client over the same root, including audit
digests.  Alongside that, the /v1 surface itself: the uniform envelope,
stable error codes, and the 404 every unversioned path now gets.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.cli import main as cli_main
from repro.client import ProvenanceClient, RetryPolicy
from repro.engine.session import Session
from repro.errors import ProvenanceError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.pebble.query import query_provenance
from repro.serve import ProvenanceServer, QueryService, ServeConfig, result_to_json
from repro.serve.fleet import Fleet
from repro.serve.router import RouterService, RouterServer
from repro.warehouse import Warehouse
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)

SUBJECTS = ["lp", "nobody-xyz"]
FLEET_SIZE = 3


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _get(url: str):
    """Raw GET returning (status, headers, parsed body) -- no client sugar."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _post(url: str, payload: dict):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


@pytest.fixture(scope="module")
def fleet_setup(tmp_path_factory):
    """Two recorded runs in a sharded warehouse, served by a 3-worker fleet.

    Module-scoped: the read-only tests below share one fleet; the single
    mutation test (recording a third run) runs last in this file.
    """
    root = tmp_path_factory.mktemp("fleet") / "wh"
    captured = build_running_example(
        Session(num_partitions=2), [dict(t) for t in RUNNING_EXAMPLE_TWEETS]
    ).execute(capture=True)
    warehouse = Warehouse.open(root)
    warehouse.init_shards(2)
    run_ids = [
        warehouse.record(captured, name=f"example-{index}").run_id
        for index in range(2)
    ]
    with Fleet(root, size=FLEET_SIZE, mode="thread") as fleet:
        router = RouterService(fleet.workers())
        with RouterServer(router) as server:
            yield server, router, fleet, root, run_ids


@pytest.fixture(scope="module")
def remote(fleet_setup):
    server, _, _, _, _ = fleet_setup
    return repro.connect(server.url)


@pytest.fixture(scope="module")
def local(fleet_setup):
    _, _, _, root, _ = fleet_setup
    client = repro.connect(f"file://{root}")
    yield client
    client.close()


class TestScatterGather:
    def test_runs_unions_every_worker(self, remote, fleet_setup):
        _, _, _, _, run_ids = fleet_setup
        assert [run["run_id"] for run in remote.runs()] == run_ids

    def test_fleet_topology_spreads_runs_over_workers(self, fleet_setup):
        server, _, _, _, run_ids = fleet_setup
        status, _, body = _get(server.url + "/v1/fleet")
        assert status == 200 and body["ok"] is True
        topology = body["data"]
        names = [worker["name"] for worker in topology["workers"]]
        assert len(names) == FLEET_SIZE
        assert set(topology["assignments"]) == set(run_ids)
        assert all(owner in names for owner in topology["assignments"].values())

    def test_health_reports_every_worker(self, fleet_setup):
        server, _, _, _, _ = fleet_setup
        status, _, body = _get(server.url + "/v1/healthz")
        assert status == 200
        health = body["data"]
        assert health["status"] == "ok"
        assert len(health["workers"]) == FLEET_SIZE
        assert all(entry["status"] == "ok" for entry in health["workers"].values())


class TestByteIdentity:
    """Fleet answers == direct library answers == local client answers."""

    def test_backtrace_identical_across_all_three_tiers(
        self, remote, local, fleet_setup
    ):
        _, _, _, root, run_ids = fleet_setup
        warehouse = Warehouse.open(root)
        for run_id in run_ids:
            direct = result_to_json(
                query_provenance(warehouse.load(run_id), RUNNING_EXAMPLE_PATTERN)
            )
            via_router = remote.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
            via_local = local.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
            assert _canon(via_router["result"]) == _canon(direct)
            assert _canon(via_local["result"]) == _canon(direct)

    def test_forward_identical(self, remote, local, fleet_setup):
        _, _, _, _, run_ids = fleet_setup
        pattern = 'root{//id_str="lp"}'
        for run_id in run_ids:
            assert _canon(
                remote.forward(pattern, run=run_id)["result"]
            ) == _canon(local.forward(pattern, run=run_id)["result"])

    def test_sar_report_identical(self, remote, local):
        via_router = remote.sar(SUBJECTS)
        via_local = local.sar(SUBJECTS)
        assert _canon(via_router["report"]) == _canon(via_local["report"])
        # Two runs in scope: the scatter-gather merge rebuilt the counts.
        assert via_router["report"]["subjects"][0]["run_count"] == 2

    def test_erasure_digest_identical(self, remote, local, fleet_setup):
        _, _, _, root, _ = fleet_setup
        via_router = remote.verify_erasure(SUBJECTS)
        via_local = local.verify_erasure(SUBJECTS)
        assert _canon(via_router["report"]) == _canon(via_local["report"])
        assert via_router["report"]["digest"] == via_local["report"]["digest"]
        assert via_router["report"]["clean"] is False  # "lp" leaves residue


class TestAggregatedStats:
    def test_serve_counters_sum_across_workers(self, remote, fleet_setup):
        server, _, fleet, _, run_ids = fleet_setup
        for run_id in run_ids:  # touch owners of both runs
            remote.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
        total = 0
        for _, worker_url in fleet.workers():
            with urllib.request.urlopen(worker_url + "/metrics", timeout=30) as r:
                text = r.read().decode()
            for line in text.splitlines():
                if line.startswith("repro_serve_queries_total{"):
                    total += int(float(line.rsplit(" ", 1)[1]))
        _, _, body = _get(server.url + "/v1/stats")
        summed = sum(
            metric["value"]
            for metric in body["data"]["metrics"]
            if metric["name"] == "repro_serve_queries_total"
        )
        assert summed == total
        assert total >= len(run_ids)

    def test_cli_stats_remote_hits_the_router(self, fleet_setup, capsys):
        server, _, _, _, _ = fleet_setup
        assert cli_main(["stats", "--remote", server.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {metric["name"] for metric in payload["metrics"]}
        assert "repro_serve_queries_total" in names

    def test_prometheus_text_over_legacy_route(self, fleet_setup, capsys):
        server, _, _, _, _ = fleet_setup
        assert cli_main(["stats", "--remote", server.url]) == 0
        text = capsys.readouterr().out
        assert "repro_serve_queries_total" in text


class TestEnvelope:
    def test_success_envelope_is_ok_plus_data(self, fleet_setup):
        server, _, _, _, _ = fleet_setup
        status, _, body = _get(server.url + "/v1/runs")
        assert status == 200
        assert set(body) == {"ok", "data"}
        assert body["ok"] is True

    def test_unknown_run_is_not_found_code(self, fleet_setup):
        server, _, _, _, _ = fleet_setup
        status, _, body = _get(server.url + "/v1/runs/no-such-run")
        assert status == 404
        assert body["ok"] is False
        assert body["error"]["code"] == "not_found"
        assert body["error"]["retryable"] is False
        assert "no-such-run" in body["error"]["message"]

    def test_bad_pattern_is_bad_pattern_code(self, fleet_setup):
        server, _, _, _, _ = fleet_setup
        status, _, body = _post(
            server.url + "/v1/query", {"pattern": "root{"}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_pattern"

    def test_admission_rejection_envelope(self, captured_example, tmp_path):
        """A saturated worker answers 429 with a retryable stable code."""
        root = tmp_path / "wh"
        Warehouse.open(root).record(captured_example, name="example")
        service = QueryService.open(
            ServeConfig(
                root=str(root), port=0, workers=1, queue_limit=0, deadline=None
            ),
            registry=MetricsRegistry(),
        )
        release, entered = threading.Event(), threading.Event()

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
                status, _, body = _post(
                    server.url + "/v1/query", {"pattern": 'root{//name="vx"}'}
                )
            finally:
                release.set()
                blocker.join()
        assert status == 429
        assert body["ok"] is False
        assert body["error"]["code"] == "admission_full"
        assert body["error"]["retryable"] is True

    def test_unversioned_routes_are_404_in_the_envelope(self, fleet_setup):
        """3.0: only /v1 (and the two scrape pages) -- on worker and router."""
        server, _, fleet, _, _ = fleet_setup
        _, worker_url = fleet.workers()[0]
        for base in (worker_url, server.url):
            for path in ("/runs", "/healthz", "/stats", "/debug/slow"):
                status, headers, body = _get(base + path)
                assert status == 404, (base, path)
                assert body["ok"] is False
                assert body["error"]["code"] == "not_found"
                assert "Deprecation" not in headers
            status, _, body = _post(base + "/query", {"pattern": "root{}"})
            assert (status, body["error"]["code"]) == (404, "not_found")
            assert _get(base + "/v1/runs")[0] == 200
            for page in ("/metrics", "/stats?format=prometheus"):
                with urllib.request.urlopen(base + page, timeout=30) as response:
                    assert response.status == 200
                    assert "repro_serve_" in response.read().decode()


class TestConnectFacade:
    def test_both_transports_satisfy_the_protocol(self, remote, local):
        assert type(remote) is type(local) is ProvenanceClient
        assert remote.health()["role"] == "router"
        assert local.health()["status"] == "ok"

    def test_bare_path_is_local(self, fleet_setup):
        _, _, _, root, run_ids = fleet_setup
        with repro.connect(str(root)) as client:
            assert [run["run_id"] for run in client.runs()] == run_ids

    def test_unsupported_scheme_is_rejected(self):
        with pytest.raises(ReproError, match="unsupported connect scheme"):
            repro.connect("ftp://example.com/warehouse")
        with pytest.raises(ReproError):
            repro.connect("")

    def test_unknown_run_raises_the_same_error_both_ways(self, remote, local):
        for client in (remote, local):
            with pytest.raises(ProvenanceError, match="no run"):
                client.backtrace(RUNNING_EXAMPLE_PATTERN, run="run-9999-nope")

    def test_removed_facade_names_raise_attribute_error(self):
        for name in ("ServeClient", "Session"):
            assert name not in repro.__all__
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)


class TestFreshRuns:
    """Mutations last: the module-scoped fleet sees catalog growth."""

    def test_router_serves_a_run_recorded_after_startup(
        self, remote, fleet_setup, captured_example
    ):
        server, _, _, root, run_ids = fleet_setup
        record = Warehouse.open(root).record(captured_example, name="late")
        listed = [run["run_id"] for run in remote.runs()]
        assert listed == run_ids + [record.run_id]
        # run=None resolves to the newest run through the refreshed catalog.
        newest = remote.backtrace(RUNNING_EXAMPLE_PATTERN)
        pinned = remote.backtrace(RUNNING_EXAMPLE_PATTERN, run=record.run_id)
        assert _canon(newest["result"]) == _canon(pinned["result"])
