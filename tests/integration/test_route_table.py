"""The route table is the contract: every row, through every tier.

The tests here iterate :data:`POST_ROUTES` / :data:`GET_ROUTES` themselves,
so a kind or endpoint added to the table is exercised -- through the file
transport and an HTTP worker -- without a test naming it.  A request is its
body on every transport: the same body must yield the same ``result`` /
``report`` bytes (and erasure digest) on both, and a body one of them
rejects must be rejected by the other with the same 400.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.client import RetryPolicy
from repro.engine.session import Session
from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ProvenanceServer, QueryService, ServeConfig
from repro.serve.service import GET_ROUTES, POST_ROUTES
from repro.warehouse import Warehouse
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)

TIERS = ("file", "worker")

#: A valid value for every field a body may need; a row's body is the
#: subset its ``fields`` name.  ``run``/``runs`` stay absent: many-run rows
#: then span both runs.
SAMPLE = {
    "pattern": RUNNING_EXAMPLE_PATTERN,
    "subjects": ["lp", "vx", "nobody-xyz"],
    "page_size": 2,
}

#: Per field, values its row's ``parse`` must refuse.
BAD = {
    "pattern": [5, "", None],
    "subjects": ["lp", [], [5], None],
    "run": [5, ["r"]],
    "runs": ["r", [5], [""]],
    "analyze": ["yes", 1, None],
    "template": [5, "", None],
    "page": [None, "x", 0, True, 1.5],
    "page_size": [None, "x", 0],
}


def _body(kind: str) -> dict:
    return {name: SAMPLE[name] for name in POST_ROUTES[kind].fields if name in SAMPLE}


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    """One two-run warehouse behind each transport; yields name -> transport."""
    captured = build_running_example(
        Session(num_partitions=2), [dict(t) for t in RUNNING_EXAMPLE_TWEETS]
    ).execute(capture=True)
    root = tmp_path_factory.mktemp("table") / "wh"
    warehouse = Warehouse.open(root)
    run_ids = [warehouse.record(captured, name="example").run_id for _ in range(2)]
    service = QueryService.open(
        ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
    )
    once = RetryPolicy(max_retries=0)
    with ProvenanceServer(service, port=0) as worker:
        with repro.connect(f"file://{root}") as local:
            clients = {
                "file": local,
                "worker": repro.connect(worker.url, policy=once),
            }
            yield {name: client._transport for name, client in clients.items()}, run_ids


def test_bad_values_cover_every_field_of_the_table():
    fields = {name for route in POST_ROUTES.values() for name in route.fields}
    assert fields == set(BAD)


@pytest.mark.parametrize("kind", sorted(POST_ROUTES))
def test_same_body_same_answer_on_every_tier(tiers, kind):
    transports, run_ids = tiers
    route = POST_ROUTES[kind]
    answers = {name: transports[name].post(kind, _body(kind)) for name in TIERS}
    blocks = {
        name: json.dumps(answer[route.block], sort_keys=True)
        for name, answer in answers.items()
    }
    assert blocks["file"] == blocks["worker"]
    # A body still carrying the "method" field (gone in 3.9) is accepted
    # and ignored: it gets the same answer, and no answer names a method.
    legacy = transports["worker"].post(kind, dict(_body(kind), method="eager"))
    assert json.dumps(legacy[route.block], sort_keys=True) == blocks["worker"]
    assert all("method" not in answer for answer in (*answers.values(), legacy))
    block = answers["worker"][route.block]
    if kind == "erasure":
        assert block["digest"] and block["runs_checked"] == run_ids
    if kind == "sar":  # two runs in scope, in catalog order
        (lp,) = [entry for entry in block["subjects"] if entry["subject"] == "lp"]
        assert [run["run_id"] for run in lp["runs"]] == run_ids


@pytest.mark.parametrize("path", sorted(GET_ROUTES))
def test_every_get_is_reachable_on_every_tier(tiers, path):
    transports, run_ids = tiers
    arg = run_ids[0] if GET_ROUTES[path].takes else None
    answers = {name: transports[name].get(path, arg) for name in TIERS}
    assert all(isinstance(answer, dict) for answer in answers.values())
    if GET_ROUTES[path].takes == "id" or path == "/runs":  # stored facts only
        assert answers["file"] == answers["worker"]


@pytest.mark.parametrize(
    "kind, field, value",
    [
        (kind, field, value)
        for kind, route in sorted(POST_ROUTES.items())
        for field in route.fields
        for value in BAD[field]
    ],
)
def test_bad_field_is_the_same_400_on_every_tier(tiers, kind, field, value):
    transports, _ = tiers
    messages = []
    for name in TIERS:
        with pytest.raises(ServeError) as info:
            transports[name].post(kind, dict(_body(kind), **{field: value}))
        assert type(info.value) is ServeError and not info.value.retryable
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert f"'{field}'" in messages[0]
