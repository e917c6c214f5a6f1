"""Chaos equivalence: injected faults plus retries must not change anything.

Extends the optimizer-equivalence properties with the fault-tolerance layer:
for random plan shapes, a run with deterministic injected faults (healed by
the scheduler's retry protocol) under either backend -- serial or thread
pool -- must produce results, provenance stores, and backtrace answers
identical to the fault-free seed execution.  This pins the retry
protocol's core soundness claim: stage tasks are pure, so re-execution is
invisible in every observable output.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.config import EngineConfig
from repro.engine.session import Session
from repro.pebble.query import query_provenance
from tests.property.test_optimizer_equivalence import (
    SHAPES,
    _build,
    _store_fingerprint,
)
from tests.property.test_stream_equivalence import _segment_files

#: The seed execution path: no rewrites, serial scheduler, no faults.
BASELINE = EngineConfig(optimize=False)

#: Every chaos configuration must reproduce the baseline bit-for-bit.
#: ``flaky_once`` faults heal after one retry, so ``max_retries=2`` (the
#: default) always recovers; zero backoff keeps the suite fast.
CHAOS_VARIANTS = (
    ("serial+faults", EngineConfig(faults="flaky_once:0.5", retry_backoff=0.0)),
    ("threads", EngineConfig(scheduler="threads")),
    (
        "threads+faults",
        EngineConfig(scheduler="threads", faults="flaky_once:0.5", retry_backoff=0.0),
    ),
)


def _run(shape, k, config, capture=True):
    session = Session(num_partitions=2, config=config)
    return _build(session, shape, k).execute(capture=capture)


@given(st.sampled_from(sorted(SHAPES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=8, deadline=None)
def test_chaos_runs_match_the_seed_execution(shape, k):
    baseline = _run(shape, k, BASELINE)
    expected_rows = baseline.rows()
    expected_store = _store_fingerprint(baseline.store)
    # Same rewrites as the chaos variants: pruning changes registered schemas.
    expected_blob = _run(shape, k, EngineConfig()).store.serialize()
    for name, config in CHAOS_VARIANTS:
        execution = _run(shape, k, config)
        assert execution.rows() == expected_rows, name
        assert _store_fingerprint(execution.store) == expected_store, name
        assert execution.store.serialize() == expected_blob, name


@given(st.sampled_from(sorted(SHAPES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=6, deadline=None)
def test_chaos_backtrace_answers_match_the_seed_execution(shape, k):
    pattern = SHAPES[shape]
    baseline = _run(shape, k, BASELINE)
    expected = query_provenance(baseline, pattern)
    for name, config in CHAOS_VARIANTS:
        execution = _run(shape, k, config)
        answer = query_provenance(execution, pattern)
        assert answer.matched_output_ids == expected.matched_output_ids, name
        assert answer.all_ids() == expected.all_ids(), name
        assert answer.render() == expected.render(), name


def test_faults_actually_fire_and_are_retried():
    """With p=1.0 every fused stage task fails once; the run still succeeds
    and the retry accounting proves the faults were injected, not skipped."""
    config = EngineConfig(faults="flaky_once:1.0", retry_backoff=0.0)
    baseline = _run("select-filter", 1, BASELINE)
    execution = _run("select-filter", 1, config)
    assert execution.rows() == baseline.rows()
    assert execution.metrics.task_retries > 0
    assert execution.metrics.task_attempts > execution.metrics.task_retries


def test_traced_threads_run_has_one_task_span_per_attempt_that_ran():
    """Tasks record their span in the ambient tracer from whichever pool
    thread ran them: one per attempt that got past the fault probe."""
    from repro.obs.tracer import Tracer, tracing

    config = EngineConfig(scheduler="threads", faults="flaky_once:1.0", retry_backoff=0.0)
    tracer = Tracer()
    with tracing(tracer):
        metrics = _run("select-filter", 1, config).metrics
    spans = tracer.find("task")
    assert metrics.task_retries > 0
    assert len(spans) == metrics.task_attempts - metrics.task_retries
    assert {span.args["attempt"] for span in spans} == {2}


def test_crash_faults_exhaust_the_retry_budget():
    """A ``crash`` probe at p=1.0 fails every attempt: the run must raise the
    *original* injected fault after the budget is spent."""
    import pytest

    from repro.errors import InjectedFault

    config = EngineConfig(faults="crash:1.0", max_retries=1, retry_backoff=0.0)
    with pytest.raises(InjectedFault, match="attempt 1"):
        _run("select-filter", 1, config)


def test_recorded_runs_identical_across_schedulers(tmp_path):
    """Recorded runs agree end-to-end whichever backend executed them: every
    warehouse segment byte-for-byte (manifest, catalog and metrics carry
    timestamps and the backend name), the backtrace rendered from the stored
    run, and the forward trace."""
    from repro.warehouse import Warehouse

    configs = (
        ("serial", EngineConfig()),
        ("threads", EngineConfig(scheduler="threads")),
        ("serial+faults", EngineConfig(faults="flaky_once:0.5", retry_backoff=0.0)),
        (
            "threads+faults",
            EngineConfig(
                scheduler="threads", faults="flaky_once:0.5", retry_backoff=0.0
            ),
        ),
    )
    for shape in ("filter-flatten", "flatten-agg", "union"):
        results = {}
        for name, config in configs:
            root = tmp_path / name / shape
            warehouse = Warehouse.open(root)
            record = warehouse.record(_run(shape, 1, config), name=shape)
            forward = warehouse.forward(record.run_id, "root{/text}")
            back, _ = warehouse.backtrace(record.run_id, SHAPES[shape])
            segments = _segment_files(root)
            assert segments, (shape, name)
            results[name] = (
                segments,
                sorted(forward.output_ids),
                forward.matched_input_count,
                back.render(),
            )
        for name, _ in configs[1:]:
            assert results[name] == results["serial"], (shape, name)


COLD_SCENARIOS = ("T1", "T2", "T3", "T4", "T5", "D1", "D2", "D3", "D4", "D5")


def test_cold_backtrace_identical_to_the_load_route(tmp_path):
    """``Warehouse.backtrace`` parses only what the question touches; the
    materialise-everything route (``load`` + ``query_provenance``) stays
    the reference it must agree with byte for byte, on every scenario."""
    from repro.warehouse import Warehouse
    from repro.workloads.scenarios import load_workload, scenario

    warehouse = Warehouse.open(tmp_path / "wh")
    for name in COLD_SCENARIOS:
        spec = scenario(name)
        execution = spec.build(Session(2), load_workload(spec.kind, 0.2)).execute(
            capture=True
        )
        run_id = warehouse.record(execution, name=name).run_id
        cold, metrics = Warehouse.open(tmp_path / "wh").backtrace(run_id, spec.pattern)
        reference = query_provenance(warehouse.load(run_id), spec.pattern)
        assert cold.matched_output_ids == reference.matched_output_ids, name
        assert cold.matched_output_ids, name
        assert cold.render() == reference.render(), name
        assert metrics.items_decoded == sum(len(s) for s in cold.sources), name


def test_cold_backtrace_identical_to_the_load_route_on_a_stream(tmp_path):
    """S1 as a live run: every mid-ingest answer equals the load route
    pinned to the epochs visible at admission, and so does the sealed one."""
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
        pinned = query_provenance(
            warehouse.load(stream.run_id, max_epoch=epoch), spec.pattern
        )
        assert (pinned.matched_output_ids, pinned.render()) == answer, epoch
