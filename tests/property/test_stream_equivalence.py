"""Streaming == batch: the equivalence property of micro-batch capture.

Splitting one bounded input into N micro-batches, streaming them through a
:class:`~repro.stream.StreamSession`, and sealing with ``compact=True`` must
leave the warehouse with the *same run* a one-shot batch capture of the
concatenated input records: identical segment bytes (operator provenance,
sink rows, index) and identical backtrace answers -- across split points
and optimizer configurations.  And a query admitted mid-ingest must answer exactly
like the sealed run restricted to the epochs that were visible at admission
(a manifest cut back to those epochs), which is the incremental-query
consistency contract of the serve tier.  A stored run's answers agree with the in-memory capture's on
every recorded batch scenario, and with a parse-every-row reference on a
live stream.

Event times are monotone here: late rows are *defined* to diverge from
batch (a batch run has no lateness), so they are exercised in the unit
tests, not in this equivalence matrix.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.engine.config import EngineConfig
from repro.engine.expressions import col, collect_list, count
from repro.engine.session import Session
from repro.nested.values import DataItem
from repro.pebble.query import query_provenance
from repro.stream import StreamSession, TumblingWindow, window_by
from repro.warehouse import LazyProvenanceStore, Warehouse
from repro.warehouse.reader import load_manifest
from tests.oracle.full_parse import full_parse_backtrace

CONFIGS = (("default", EngineConfig()),)

#: Streamable plan shapes: a narrow chain and a windowed aggregation.
SHAPES = {
    "narrow": 'root{/user="u1", /tag="red"}',
    "window": 'root{/user="u1", /ids}',
}


def _rows(n: int) -> list[dict]:
    return [
        {
            "id": i,
            "user": f"u{i % 3}",
            "ts": float(i),  # monotone: no late rows, exact equivalence
            "tags": [{"tag": ["red", "blue"][i % 2]}, {"tag": "green"}],
        }
        for i in range(n)
    ]


def _build(shape: str, dataset):
    if shape == "narrow":
        return (
            dataset.filter(col("id") >= 1)
            .flatten("tags", "t")
            .select(col("user"), col("id"), col("t.tag"))
        )
    return window_by(
        dataset, col("ts"), TumblingWindow(4.0), col("user")
    ).agg(collect_list(col("id")).alias("ids"), count().alias("n"))


def _chunks(rows: list[dict], cuts: list[int]) -> list[list[dict]]:
    bounds = sorted({cut % (len(rows) + 1) for cut in cuts} | {0, len(rows)})
    return [
        rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]


def _segment_files(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*.seg"))
    }


def _stable_manifest(run_dir: Path) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for volatile in ("run_id", "name", "created"):
        manifest.pop(volatile, None)
    return manifest


def _admitted_at(run_dir: Path, epoch: int | None) -> LazyProvenanceStore:
    """The run as a query admitted at *epoch* saw it (``None``: every epoch)."""
    manifest = load_manifest(run_dir)
    if epoch is not None:
        admitted = [entry for entry in manifest["epochs"] if entry["epoch"] <= epoch]
        manifest = dict(manifest, epochs=admitted)
    return LazyProvenanceStore(run_dir, manifest)


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    n=st.integers(min_value=6, max_value=14),
    cuts=st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=3),
    named_config=st.sampled_from(CONFIGS),
)
@settings(max_examples=20, deadline=None)
def test_streaming_compacted_equals_one_shot_batch(
    tmp_path_factory, shape, n, cuts, named_config
):
    name, config = named_config
    rows = _rows(n)
    root = tmp_path_factory.mktemp("stream-eq")

    stream = StreamSession(warehouse=root / "wh", name="s", config=config)
    stream.open(_build(shape, stream.dataset()))
    for chunk in _chunks(rows, cuts):
        if chunk:
            stream.ingest(chunk)
    record = stream.finish(compact=True)
    warehouse = stream.warehouse

    batch_session = Session(config=config)
    batch = _build(
        shape, batch_session.create_dataset([DataItem(row) for row in rows], "stream")
    ).execute(capture=True)
    batch_record = warehouse.record(batch, name="batch", index=True)

    stream_dir = warehouse.run_dir(record.run_id)
    batch_dir = warehouse.run_dir(batch_record.run_id)
    assert _segment_files(stream_dir) == _segment_files(batch_dir), name
    assert _stable_manifest(stream_dir) == _stable_manifest(batch_dir), name

    pattern = SHAPES[shape]
    streamed, _ = warehouse.backtrace(record.run_id, pattern)
    batched = query_provenance(batch, pattern)
    assert streamed.matched_output_ids == batched.matched_output_ids, name
    assert streamed.all_ids() == batched.all_ids(), name
    assert streamed.render() == batched.render(), name


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    n=st.integers(min_value=6, max_value=12),
    cuts=st.lists(st.integers(min_value=1, max_value=11), min_size=1, max_size=2),
)
@settings(max_examples=15, deadline=None)
def test_mid_ingest_query_equals_sealed_run_at_admission_epoch(
    tmp_path_factory, shape, n, cuts
):
    rows = _rows(n)
    root = tmp_path_factory.mktemp("stream-mid")
    stream = StreamSession(
        warehouse=root / "wh", name="s"
    )
    stream.open(_build(shape, stream.dataset()))
    warehouse = stream.warehouse
    pattern = SHAPES[shape]

    live_answers: list[tuple[int, list, dict, str]] = []
    for chunk in _chunks(rows, cuts):
        if not chunk:
            continue
        stream.ingest(chunk)
        answer, _ = warehouse.backtrace(stream.run_id, pattern)
        live_answers.append(
            (stream.epochs, answer.matched_output_ids, answer.all_ids(), answer.render())
        )
    stream.finish(compact=False)

    for epoch, matched, ids, rendered in live_answers:
        pinned = full_parse_backtrace(
            _admitted_at(warehouse.run_dir(stream.run_id), epoch), pattern
        )
        assert pinned.matched_output_ids == matched, epoch
        assert pinned.all_ids() == ids, epoch
        assert pinned.render() == rendered, epoch


@given(
    n=st.integers(min_value=2, max_value=14),
)
@settings(max_examples=10, deadline=None)
def test_one_micro_batch_reads_exactly_like_a_recorded_batch(tmp_path_factory, n):
    """A batch run is a one-part run, literally: the same rows ingested as
    ONE micro-batch and left uncompacted read back -- operators, source
    items, result rows, index -- exactly like ``Warehouse.record`` of them."""
    import repro.warehouse.format as wf

    rows = _rows(n)
    root = tmp_path_factory.mktemp("stream-one-part")
    stream = StreamSession(warehouse=root / "wh", name="s")
    stream.open(_build("narrow", stream.dataset()))
    stream.ingest(rows)
    stream.finish(compact=False)
    warehouse = stream.warehouse
    assert len(warehouse.inspect(stream.run_id)["epochs"]) == 1

    batch_session = Session()
    batch = _build(
        "narrow", batch_session.create_dataset([DataItem(row) for row in rows], "stream")
    ).execute(capture=True)
    batch_record = warehouse.record(batch, name="batch")

    streamed = warehouse.load(stream.run_id)
    recorded = warehouse.load(batch_record.run_id)
    assert len(streamed.store) == len(recorded.store) > 0
    for oid in sorted(recorded.store.topology()):
        assert wf.encode_operator(streamed.store.get(oid)) == wf.encode_operator(
            recorded.store.get(oid)
        ), oid
        if recorded.store.is_source(oid):
            assert repr(streamed.store.source_items(oid)) == repr(
                recorded.store.source_items(oid)
            ), oid
    assert repr(streamed.rows()) == repr(recorded.rows())

    one_part = warehouse.load_index(stream.run_id)
    whole = warehouse.load_index(batch_record.run_id)
    for section in ("inputs", "terms", "item_count", "accessed", "manipulated"):
        assert getattr(one_part, section) == getattr(whole, section), section
    assert one_part.summary() == whole.summary()


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    n=st.integers(min_value=6, max_value=14),
    cuts=st.lists(st.integers(min_value=1, max_value=13), min_size=0, max_size=4),
)
@settings(max_examples=15, deadline=None)
def test_unioned_epoch_index_agrees_with_the_scan(tmp_path_factory, shape, n, cuts):
    """The union of the per-epoch indexes is complete: indexed and scan
    forward traces over an uncompacted run agree, and an empty posting is
    still a proof of absence."""
    from repro.audit.forward import ForwardTracer

    root = tmp_path_factory.mktemp("stream-index")
    stream = StreamSession(warehouse=root / "wh", name="s")
    stream.open(_build(shape, stream.dataset()))
    for chunk in _chunks(_rows(n), cuts):
        if chunk:
            stream.ingest(chunk)
    stream.finish(compact=False)
    warehouse = stream.warehouse

    run = warehouse.load(stream.run_id)
    index = warehouse.load_index(stream.run_id)
    assert index is not None
    for pattern in ('root{/user="u1"}', 'root{//tag="green"}', 'root{/user="nobody"}'):
        indexed = ForwardTracer(run, index).trace(pattern)
        scanned = ForwardTracer(run, None).trace(pattern)
        assert indexed.stats["index_used"] and not scanned.stats["index_used"]
        assert [s.to_json() for s in indexed.sources] == [
            s.to_json() for s in scanned.sources
        ], pattern
        assert indexed.output_ids == scanned.output_ids, pattern
        assert indexed.to_json() == scanned.to_json(), pattern
    assert ForwardTracer(run, index).trace('root{/user="u1"}').matched_input_count


COLD_SCENARIOS = ("T1", "T2", "T3", "T4", "T5", "D1", "D2", "D3", "D4", "D5")


def test_cold_backtrace_identical_to_the_load_route(tmp_path):
    """``Warehouse.backtrace`` parses only what the question touches; the
    in-memory capture's ``query_provenance`` is the reference it must agree
    with byte for byte, on every scenario."""
    from repro.warehouse import Warehouse
    from repro.workloads.scenarios import load_workload, scenario

    warehouse = Warehouse.open(tmp_path / "wh")
    for name in COLD_SCENARIOS:
        spec = scenario(name)
        execution = spec.build(Session(), load_workload(spec.kind, 0.2)).execute(
            capture=True
        )
        run_id = warehouse.record(execution, name=name).run_id
        cold, metrics = Warehouse.open(tmp_path / "wh").backtrace(run_id, spec.pattern)
        reference = query_provenance(execution, spec.pattern)
        assert cold.matched_output_ids == reference.matched_output_ids, name
        assert cold.matched_output_ids, name
        assert cold.render() == reference.render(), name
        assert metrics.items_decoded == sum(len(s) for s in cold.sources), name


def test_cold_backtrace_identical_to_the_load_route_on_a_stream(tmp_path):
    """S1 as a live run: every mid-ingest answer equals the parse-every-row
    reference pinned to the epochs visible at admission, and so does the
    sealed one."""
    from repro.stream import StreamSession
    from repro.workloads.scenarios import load_workload, scenario

    spec = scenario("S1")
    tweets = sorted(load_workload("twitter", 0.2), key=lambda tweet: tweet["created_at"])
    stream = StreamSession(warehouse=tmp_path / "wh", name="s1")
    stream.open(spec.build(stream.session, stream.dataset(stream.source("tweets.json"))))
    warehouse = stream.warehouse
    admitted = {}
    for low in range(0, len(tweets), 16):
        stream.ingest(tweets[low : low + 16])
        cold, _ = warehouse.backtrace(stream.run_id, spec.pattern)
        admitted[stream.epochs] = (cold.matched_output_ids, cold.render())
    stream.finish(compact=False)
    sealed, _ = warehouse.backtrace(stream.run_id, spec.pattern)
    admitted[None] = (sealed.matched_output_ids, sealed.render())
    assert sealed.matched_output_ids
    for epoch, answer in admitted.items():
        pinned = full_parse_backtrace(
            _admitted_at(warehouse.run_dir(stream.run_id), epoch), spec.pattern
        )
        assert (pinned.matched_output_ids, pinned.render()) == answer, epoch
