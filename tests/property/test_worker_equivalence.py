"""Property: the worker equivalence suite -- every tier answers alike.

For any pattern from a pool of valid structural queries and any subject
list, three ways of asking must agree byte-for-byte:

* the stored run itself, every row parsed (the ``full_parse`` oracle),
* a local client (``repro.connect("file://...")`` -- in-process service
  with admission control and caching),
* an HTTP worker (``repro.connect("http://...")`` -- one ``repro serve``
  over the same root, a copy of the committed ``warehouse_sharded``).

One module-scoped server answers every example: hypothesis varies the
questions, so the suite stays fast while still walking the multi-run
SAR/erasure paths and cache hits on repeats in unpredictable orders.
"""

from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.obs.metrics import MetricsRegistry
from repro.serve import ProvenanceServer, QueryService, ServeConfig
from repro.serve.service import result_to_json
from repro.warehouse import Warehouse
from tests.conftest import WAREHOUSE_SHARDED
from tests.oracle.full_parse import full_parse_backtrace

PATTERNS = [
    'root{//id_str="lp"}',
    'root{//id_str="lp", /tweets{/text="Hello World"[2,2]}}',
    'root{/tweets{/text="Hello World"[1,*]}}',
    'root{/tweets{/text="Hello @lp"}}',
    'root{/user{/id_str="lp"}}',
    'root{//*="nope"}',
]
SUBJECT_POOL = ["lp", "vx", "dq", "nobody-xyz"]

_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    """(warehouse, local client, HTTP client, run ids) over two runs."""
    root = tmp_path_factory.mktemp("equiv") / "wh"
    shutil.copytree(WAREHOUSE_SHARDED, root)
    warehouse = Warehouse.open(root)
    run_ids = [record.run_id for record in warehouse.runs()]
    service = QueryService.open(
        ServeConfig(root=str(root), port=0), registry=MetricsRegistry()
    )
    with ProvenanceServer(service, port=0) as server:
        local = repro.connect(f"file://{root}")
        remote = repro.connect(server.url)
        yield warehouse, local, remote, run_ids
        local.close()


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestBacktraceEquivalence:
    @_settings
    @given(
        pattern=st.sampled_from(PATTERNS),
        run_index=st.integers(min_value=0, max_value=1),
    )
    def test_three_tiers_agree(self, tiers, pattern, run_index):
        warehouse, local, remote, run_ids = tiers
        run_id = run_ids[run_index]
        direct = _canon(
            result_to_json(full_parse_backtrace(warehouse.load(run_id).store, pattern))
        )
        assert _canon(local.backtrace(pattern, run=run_id)["result"]) == direct
        assert _canon(remote.backtrace(pattern, run=run_id)["result"]) == direct


class TestAuditEquivalence:
    @_settings
    @given(
        subjects=st.lists(
            st.sampled_from(SUBJECT_POOL), min_size=1, max_size=3, unique=True
        ),
    )
    def test_sar_pages_agree(self, tiers, subjects):
        _, local, remote, _ = tiers
        assert _canon(local.sar(subjects)["report"]) == _canon(remote.sar(subjects)["report"])

    @_settings
    @given(
        subjects=st.lists(
            st.sampled_from(SUBJECT_POOL), min_size=1, max_size=3, unique=True
        ),
    )
    def test_erasure_digests_agree(self, tiers, subjects):
        _, local, remote, _ = tiers
        ours = local.verify_erasure(subjects)["report"]
        theirs = remote.verify_erasure(subjects)["report"]
        assert _canon(ours) == _canon(theirs)
        assert ours["digest"] == theirs["digest"]
