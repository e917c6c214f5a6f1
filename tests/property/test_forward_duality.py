"""Forward tracing is the exact dual of backtracing, property-tested.

For random small pipelines over the exact-dual operator families (filter,
select, flatten, union, join, aggregation with collect_list/sum/count --
no deduplicating collectors), the audit subsystem's core guarantee holds
pairwise:

    x in forward({y})  <=>  y in backtrace(x)

for every source item ``y`` and every sink output ``x``, where backtrace(x)
seeds the full item tree (every path contributing).  A second property pins
the index soundness claim: a forward trace answered through the persisted
warehouse index serialises byte-identically to the full scan.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.audit.forward import ForwardTracer, trace_forward
from repro.core.backtrace.algorithms import Backtracer
from repro.core.backtrace.tree import BacktraceStructure, BacktraceTree
from repro.core.paths import enumerate_paths
from repro.engine.session import Session
from repro.warehouse import Warehouse
from tests.property.test_capture_properties import _SHAPES, _build, _rows

#: String patterns with guaranteed-present sentinels, per pipeline shape.
_PATTERNS = {
    "flatten": 'root{/tag="a"}',
    "join-self": 'root{/grp="g2"}',
}


def _pattern(shape: str) -> str:
    return _PATTERNS.get(shape, 'root{/grp="g1"}')


def _source_ids(execution) -> set[int]:
    store = execution.store
    ids: set[int] = set()
    for provenance in store.operators():
        if store.is_source(provenance.oid):
            ids.update(store.source_items(provenance.oid))
    return ids


def _backtrace_ids(execution, output_id: int, item) -> set[int]:
    """Full-item backtrace: every path of *item* seeds as contributing."""
    tree = BacktraceTree()
    for path in enumerate_paths(item):
        tree.ensure_path(path, contributing=True)
    structure = BacktraceStructure()
    structure.add(output_id, tree)
    sources = Backtracer(execution.store).backtrace(execution.root.oid, structure)
    return {item_id for source in sources for item_id in source.ids()}


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=25, deadline=None)
def test_forward_is_the_dual_of_backtrace(rows, shape):
    execution = _build(Session(), rows, shape).execute(capture=True)
    tracer = ForwardTracer(execution)
    outputs = [(pid, item) for pid, item in execution.rows() if pid is not None]
    backward = {pid: _backtrace_ids(execution, pid, item) for pid, item in outputs}
    for y in sorted(_source_ids(execution)):
        forward = set(tracer.derived_output_ids({y}))
        for x, _ in outputs:
            assert (x in forward) == (y in backward[x]), (
                f"duality broken for shape={shape}: source {y}, output {x}: "
                f"forward={x in forward}, backward={y in backward[x]}"
            )


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=10, deadline=None)
def test_indexed_answer_equals_full_scan(rows, shape):
    execution = _build(Session(), rows, shape).execute(capture=True)
    with tempfile.TemporaryDirectory() as root:
        warehouse = Warehouse.open(Path(root) / "wh")
        warehouse.record(execution, name="prop")
        pattern = _pattern(shape)
        indexed = trace_forward(warehouse, pattern, use_index=True)
        scanned = trace_forward(warehouse, pattern, use_index=False)
        assert indexed.stats["index_used"] and not scanned.stats["index_used"]
        assert json.dumps(indexed.to_json(), sort_keys=True) == json.dumps(
            scanned.to_json(), sort_keys=True
        )
