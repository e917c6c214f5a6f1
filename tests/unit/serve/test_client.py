"""The HTTP transport of ``connect``: the retry protocol of ``exchange``
against a scripted stub server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import AdmissionError, ServeError, TaskTimeoutError
from repro.client import DEFAULT_POLICY, RetryPolicy, _response_error, connect, exchange

NO_BACKOFF = RetryPolicy(max_retries=3, backoff=0.0)


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each request with the next scripted (status, payload) pair."""

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def _respond(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.server.requests.append((self.command, self.path, self.rfile.read(length)))
        status, payload = self.server.script[
            min(len(self.server.requests), len(self.server.script)) - 1
        ]
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _respond


@pytest.fixture
def stub_server():
    """A server whose responses follow ``server.script``; yields (url, server)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = [(200, {"status": "ok"})]
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _full(message: str = "queue full") -> dict:
    return {
        "ok": False,
        "error": {"code": "admission_full", "message": message, "retryable": True},
    }


class TestErrorMapping:
    def test_status_codes_map_to_typed_errors(self):
        # Bodies a proxy generated carry no envelope: the status decides.
        assert isinstance(_response_error(429, b"full"), AdmissionError)
        assert isinstance(_response_error(504, b"slow"), TaskTimeoutError)
        assert _response_error(503, b"down").retryable
        assert not _response_error(400, b"bad").retryable
        assert not _response_error(500, b"boom").retryable
        # An envelope's code wins over the status.
        assert isinstance(_response_error(400, json.dumps(_full()).encode()), AdmissionError)


class TestRetries:
    def test_retries_through_429_to_success(self, stub_server):
        url, server = stub_server
        server.script = [
            (429, _full()),
            (429, {"error": "a proxy's own body"}),
            (200, {"ok": True, "data": {"runs": [{"run_id": "r1"}]}}),
        ]
        client = connect(url, policy=NO_BACKOFF)
        assert client.runs() == [{"run_id": "r1"}]
        assert len(server.requests) == 3

    def test_non_retryable_error_fails_immediately(self, stub_server):
        url, server = stub_server
        server.script = [(400, {"error": "bad pattern"})]
        client = connect(url, policy=NO_BACKOFF)
        with pytest.raises(ServeError) as info:
            client.backtrace("not-a-pattern")
        assert "bad pattern" in str(info.value)
        assert len(server.requests) == 1

    def test_exhausted_retries_raise_the_last_error(self, stub_server):
        url, server = stub_server
        server.script = [(429, _full("still full"))]
        client = connect(url, policy=RetryPolicy(max_retries=1, backoff=0.0))
        with pytest.raises(AdmissionError, match="still full"):
            client.health()
        assert len(server.requests) == 2  # first try + one retry

    def test_unreachable_server_is_retryable(self):
        client = connect(
            "http://127.0.0.1:1", policy=RetryPolicy(max_retries=0, backoff=0.0)
        )
        with pytest.raises(ServeError) as info:
            client.health()
        assert info.value.retryable

    def test_query_posts_json_payload(self, stub_server):
        url, server = stub_server
        server.script = [(200, {"ok": True, "data": {"run_id": "r1", "result": {}}})]
        client = connect(url, policy=NO_BACKOFF)
        client.backtrace("root{}", run="r1")
        verb, path, body = server.requests[0]
        assert (verb, path) == ("POST", "/v1/query")
        assert json.loads(body) == {
            "pattern": "root{}", "run": "r1", "analyze": False,
        }

    def test_default_policy_bounds_attempts(self):
        assert DEFAULT_POLICY.max_attempts == 4


def _schedule(policy: RetryPolicy) -> list[float]:
    """The full delay sequence of *policy*, one per retry."""
    return [policy.delay(attempt) for attempt in range(1, policy.max_attempts)]


class TestBackoffSchedule:
    def test_jitter_free_exponential_sequence(self):
        policy = RetryPolicy(max_retries=4, backoff=0.05, factor=2.0, max_delay=2.0)
        assert _schedule(policy) == [0.05, 0.1, 0.2, 0.4]

    def test_max_delay_caps_the_tail(self):
        policy = RetryPolicy(max_retries=6, backoff=0.5, factor=2.0, max_delay=2.0)
        assert _schedule(policy) == [0.5, 1.0, 2.0, 2.0, 2.0, 2.0]

    def test_zero_backoff_means_no_sleeping(self):
        policy = RetryPolicy(max_retries=3, backoff=0.0)
        assert _schedule(policy) == [0.0, 0.0, 0.0]

    def test_zero_retries_means_empty_schedule(self):
        assert _schedule(RetryPolicy(max_retries=0)) == []

    def test_exchange_sleeps_the_exact_schedule(self, stub_server, monkeypatch):
        url, server = stub_server
        server.script = [(429, _full())] * 3 + [(200, {"ok": True, "data": {}})]
        slept = []
        monkeypatch.setattr("repro.client.time.sleep", slept.append)
        policy = RetryPolicy(max_retries=3, backoff=0.05, factor=2.0)
        status, _ = exchange(url + "/v1/healthz", policy=policy)
        assert status == 200
        assert len(server.requests) == 4
        assert slept == [policy.delay(attempt) for attempt in (1, 2, 3)]
