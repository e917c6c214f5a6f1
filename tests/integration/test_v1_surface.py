"""The /v1 surface of one server, end to end over real HTTP sockets.

One :class:`ProvenanceServer` serves a copy of the committed
``tests/fixtures/warehouse_sharded`` root: two runs a pre-3.6 writer put on
two storage shards.  The invariant pinned throughout: every answer fetched
over HTTP is byte-identical to a direct library call and to a
``repro.connect("file://...")`` client over the same root, including audit
digests.  Alongside that, the /v1 surface itself: the uniform envelope,
stable error codes, and the 404 every unversioned path gets.
"""

from __future__ import annotations

import json
import shutil
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.cli import main as cli_main
from repro.client import ProvenanceClient, RetryPolicy
from repro.errors import ProvenanceError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ProvenanceServer, QueryService, ServeConfig, result_to_json
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN
from tests.conftest import WAREHOUSE_SHARDED
from tests.oracle.full_parse import full_parse_backtrace

SUBJECTS = ["lp", "nobody-xyz"]


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
def served(tmp_path_factory):
    """A copy of the sharded fixture's two runs, served by one server.

    Module-scoped: the read-only tests below share one server; the single
    mutation test (recording a third run) runs last in this file.
    """
    root = tmp_path_factory.mktemp("served") / "wh"
    shutil.copytree(WAREHOUSE_SHARDED, root)
    run_ids = [record.run_id for record in Warehouse.open(root).runs()]
    service = QueryService.open(
        ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
    )
    with ProvenanceServer(service, port=0) as server:
        yield server, root, run_ids


@pytest.fixture(scope="module")
def remote(served):
    server, _, _ = served
    return repro.connect(server.url)


@pytest.fixture(scope="module")
def local(served):
    _, root, _ = served
    client = repro.connect(f"file://{root}")
    yield client
    client.close()


class TestShardedCatalog:
    def test_runs_lists_the_runs_of_both_shards(self, remote, served):
        _, root, run_ids = served
        assert [run["run_id"] for run in remote.runs()] == run_ids
        shards = {record.shard for record in Warehouse.open(root).runs()}
        assert len(shards) == 2


class TestByteIdentity:
    """Served answers == direct library answers == local client answers."""

    def test_backtrace_identical_across_all_three_tiers(
        self, remote, local, served
    ):
        _, root, run_ids = served
        warehouse = Warehouse.open(root)
        for run_id in run_ids:
            direct = result_to_json(
                full_parse_backtrace(warehouse.load(run_id).store, RUNNING_EXAMPLE_PATTERN)
            )
            via_http = remote.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
            via_local = local.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
            assert _canon(via_http["result"]) == _canon(direct)
            assert _canon(via_local["result"]) == _canon(direct)

    def test_forward_identical(self, remote, local, served):
        _, _, run_ids = served
        pattern = 'root{//id_str="lp"}'
        for run_id in run_ids:
            assert _canon(
                remote.forward(pattern, run=run_id)["result"]
            ) == _canon(local.forward(pattern, run=run_id)["result"])

    def test_sar_report_identical(self, remote, local):
        via_http = remote.sar(SUBJECTS)
        via_local = local.sar(SUBJECTS)
        assert _canon(via_http["report"]) == _canon(via_local["report"])
        # Two runs in scope, one on each shard.
        assert via_http["report"]["subjects"][0]["run_count"] == 2

    def test_erasure_digest_identical(self, remote, local):
        via_http = remote.verify_erasure(SUBJECTS)
        via_local = local.verify_erasure(SUBJECTS)
        assert _canon(via_http["report"]) == _canon(via_local["report"])
        assert via_http["report"]["digest"] == via_local["report"]["digest"]
        assert via_http["report"]["clean"] is False  # "lp" leaves residue


class TestAggregatedStats:
    def test_stats_counts_what_metrics_counts(self, remote, served):
        server, _, run_ids = served
        for run_id in run_ids:
            remote.backtrace(RUNNING_EXAMPLE_PATTERN, run=run_id)
        with urllib.request.urlopen(server.url + "/metrics", timeout=30) as response:
            text = response.read().decode()
        scraped = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_queries_total ")
        )
        _, _, body = _get(server.url + "/v1/stats")
        listed = sum(
            metric["value"]
            for metric in body["data"]["metrics"]
            if metric["name"] == "repro_serve_queries_total"
        )
        assert listed == scraped >= len(run_ids)

    def test_cli_stats_remote_json(self, served, capsys):
        server, _, _ = served
        assert cli_main(["stats", "--remote", server.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {metric["name"] for metric in payload["metrics"]}
        assert "repro_serve_queries_total" in names

    def test_prometheus_text_over_legacy_route(self, served, capsys):
        server, _, _ = served
        assert cli_main(["stats", "--remote", server.url]) == 0
        text = capsys.readouterr().out
        assert "repro_serve_queries_total" in text


class TestEnvelope:
    def test_success_envelope_is_ok_plus_data(self, served):
        server, _, _ = served
        status, _, body = _get(server.url + "/v1/runs")
        assert status == 200
        assert set(body) == {"ok", "data"}
        assert body["ok"] is True

    def test_unknown_run_is_not_found_code(self, served):
        server, _, _ = served
        status, _, body = _get(server.url + "/v1/runs/no-such-run")
        assert status == 404
        assert body["ok"] is False
        assert body["error"]["code"] == "not_found"
        assert body["error"]["retryable"] is False
        assert "no-such-run" in body["error"]["message"]

    def test_bad_pattern_is_bad_pattern_code(self, served):
        server, _, _ = served
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

    def test_unversioned_routes_are_404_in_the_envelope(self, served):
        """3.0: only /v1 (and the two scrape pages)."""
        base = served[0].url
        for path in ("/runs", "/healthz", "/stats", "/debug/slow"):
            status, headers, body = _get(base + path)
            assert status == 404, path
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
        assert remote.health()["status"] == local.health()["status"] == "ok"

    def test_bare_path_is_local(self, served):
        _, root, run_ids = served
        with repro.connect(str(root)) as client:
            assert [run["run_id"] for run in client.runs()] == run_ids

    def test_unsupported_scheme_is_rejected(self):
        with pytest.raises(ReproError, match="unsupported connect scheme"):
            repro.connect("ftp://example.com/warehouse")
        with pytest.raises(ReproError):
            repro.connect("")

    def test_unknown_run_raises_alike_both_ways(self, remote, local):
        for client in (remote, local):
            with pytest.raises(ProvenanceError, match="no run"):
                client.backtrace(RUNNING_EXAMPLE_PATTERN, run="run-9999-nope")

    def test_removed_facade_names_raise_attribute_error(self):
        for name in ("ServeClient", "Session"):
            assert name not in repro.__all__
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)


class TestFreshRuns:
    """Mutations last: the module-scoped server sees catalog growth."""

    def test_serves_a_run_recorded_after_startup(
        self, remote, served, captured_example
    ):
        _, root, run_ids = served
        record = Warehouse.open(root).record(captured_example, name="late")
        assert (root / "runs" / record.run_id / "part.seg").is_file()  # flat
        listed = [run["run_id"] for run in remote.runs()]
        assert listed == run_ids + [record.run_id]
        # run=None resolves to the newest run through the refreshed catalog.
        newest = remote.backtrace(RUNNING_EXAMPLE_PATTERN)
        pinned = remote.backtrace(RUNNING_EXAMPLE_PATTERN, run=record.run_id)
        assert _canon(newest["result"]) == _canon(pinned["result"])
