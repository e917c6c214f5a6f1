"""The server half of a persistent transport: one write per response.

A keep-alive client stalls ~40 ms per request when the server flushes the
headers and then writes a small body as a second segment (Nagle's algorithm
against the peer's delayed ACK).  No clock here: the handlers' ``wfile.write``
is wrapped and must be called exactly once per response -- on 200, 404 and
429 alike -- and 50 requests over one ``http.client`` connection must be
answered on one accepted socket.  Mid-loop the connection also POSTs a body
to a route that does not exist: the 404 must consume that body, or the next
request on the socket would be parsed out of it.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import ProvenanceServer, QueryService, ServeConfig
from repro.serve.http import OneWriteHandler
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_PATTERN


#: A body for a route that does not exist; it must not outlive its request.
UNROUTED = {"pattern": RUNNING_EXAMPLE_PATTERN, "padding": "x" * 2048}


class Wire:
    """Every accepted connection and every ``wfile.write``."""

    def __init__(self) -> None:
        self.connections: list[OneWriteHandler] = []
        self.writes: list[bytes] = []


@pytest.fixture
def wire(monkeypatch):
    seen = Wire()
    original = OneWriteHandler.setup

    def setup(handler: OneWriteHandler) -> None:
        original(handler)
        seen.connections.append(handler)
        write = handler.wfile.write

        def counted(data: bytes) -> int:
            seen.writes.append(bytes(data))
            return write(data)

        handler.wfile.write = counted

    monkeypatch.setattr(OneWriteHandler, "setup", setup)
    return seen


@pytest.fixture
def root(captured_example, tmp_path):
    path = tmp_path / "wh"
    Warehouse.open(path).record(captured_example, name="example")
    return path


def _exchange(connection: http.client.HTTPConnection, verb: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload)
    connection.request(verb, path, body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def _assert_whole_responses(writes: list[bytes], bodies: list[bytes]) -> None:
    """Each write is one complete response: status line, headers, the body."""
    assert len(writes) == len(bodies)
    for written, body in zip(writes, bodies):
        head, separator, sent = written.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 ") and separator
        assert f"Content-Length: {len(body)}".encode() in head
        assert sent == body


def test_nagle_is_off():
    assert OneWriteHandler.disable_nagle_algorithm


def test_worker_answers_fifty_requests_on_one_socket_one_write_each(root, wire):
    service = QueryService.open(ServeConfig(root=str(root), port=0), registry=MetricsRegistry())
    with ProvenanceServer(service, port=0) as server:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        bodies = []
        for index in range(49):
            if index == 25:
                status, body = _exchange(connection, "POST", "/v1/nosuch", UNROUTED)
                assert status == 404
            else:
                status, body = _exchange(
                    connection, "POST", "/v1/query", {"pattern": RUNNING_EXAMPLE_PATTERN}
                )
                assert status == 200
            bodies.append(body)
        status, body = _exchange(connection, "GET", "/v1/runs/no-such-run")
        assert status == 404
        bodies.append(body)
        connection.close()
    assert len(wire.connections) == 1
    _assert_whole_responses(wire.writes, bodies)


def test_refusal_is_one_write_too(root, wire):
    service = QueryService.open(
        ServeConfig(root=str(root), port=0, workers=1, queue_limit=0, deadline=None),
        registry=MetricsRegistry(),
    )
    entered, release = threading.Event(), threading.Event()

    def hold() -> None:
        entered.set()
        release.wait(10)

    service.query_hook = hold
    with ProvenanceServer(service, port=0) as server:
        held = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        blocker = threading.Thread(
            target=_exchange,
            args=(held, "POST", "/v1/query", {"pattern": RUNNING_EXAMPLE_PATTERN}),
        )
        blocker.start()
        try:
            assert entered.wait(5)
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            # A different pattern: must reach the pool, not the cache.
            status, body = _exchange(
                connection, "POST", "/v1/query", {"pattern": 'root{//name="vx"}'}
            )
        finally:
            release.set()
            blocker.join(10)
        assert not blocker.is_alive()
        assert status == 429
        refusal = [data for data in wire.writes if data.startswith(b"HTTP/1.1 429")]
        _assert_whole_responses(refusal, [body])
        assert b"Retry-After: 1" in refusal[0]
        connection.close()
        held.close()
