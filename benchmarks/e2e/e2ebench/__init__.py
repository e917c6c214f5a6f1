"""The end-to-end benchmark's catalogue: workloads and metric names.

``BENCHMARK.json`` at the repository root lists exactly these names (the
smoke test compares the two), so a metric is added here, emitted by a
workload, and declared in ``BENCHMARK.json`` in the same change.
"""

from __future__ import annotations

#: name -> one-line reason the workload exists (``why`` in BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "capture_record": (
        "engineer's path: capture T1-T5,D3,D5 and record each run; the only "
        "workload where engine does most of the work"
    ),
    "cold_query": (
        "analyst's path: fresh Warehouse.open + backtrace per op over T1-T5,D1-D5; "
        "engine idle, warehouse reader/format do the work"
    ),
    "serve_mixed": (
        "auditor's path: 2 closed-loop clients replay cached/computed backtrace, "
        "SAR and forward requests at repro serve while new runs are recorded"
    ),
    "stream_ingest": (
        "streaming path: S1 micro-batches into a live run queried while it "
        "grows, then compacted; epoch-append and live-read costs show only here"
    ),
}

#: End-to-end metrics: name -> (unit, better, bound).  Measured untraced.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p95_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "stored_bytes_per_input_byte": ("B/B", "lower", 0.05),
}

#: Per-layer metrics: name -> (unit, better).  Layer = ``src/repro/<module>``;
#: times are medians per op unless the README says otherwise.  A workload
#: that never calls into a layer reports 0 for that layer's metrics.
PER_LAYER: dict[str, tuple[str, str]] = {
    # inputs (every workload's set-up)
    "workloads.generate_s": ("s", "lower"),
    "nested.coerce_s": ("s", "lower"),
    "workloads.input_items": ("count", "higher"),
    "workloads.input_bytes": ("B", "higher"),
    # engine: capture
    "engine.capture_ms": ("ms", "lower"),
    "engine.plain_ms": ("ms", "lower"),
    "engine.capture_overhead_ratio": ("ratio", "lower"),
    "engine.capture_hook_ms": ("ms", "lower"),
    "engine.stage_busy_ms": ("ms", "lower"),
    "engine.rows_in": ("count", "lower"),
    "engine.rows_out": ("count", "lower"),
    "engine.capture_share": ("ratio", "lower"),
    # core: captured provenance sizes
    "core.store_lineage_bytes": ("B", "lower"),
    "core.store_structural_bytes": ("B", "lower"),
    "core.store_records": ("count", "lower"),
    # warehouse: write side
    "warehouse.record_ms": ("ms", "lower"),
    "warehouse.write_ms": ("ms", "lower"),
    "warehouse.index_build_ms": ("ms", "lower"),
    "warehouse.record_share": ("ratio", "lower"),
    "warehouse.bytes_written": ("B", "lower"),
    "warehouse.files_written": ("count", "lower"),
    "warehouse.index_bytes": ("B", "lower"),
    # warehouse: read side (QueryBreakdown phases)
    "warehouse.open_ms": ("ms", "lower"),
    "warehouse.load_ms": ("ms", "lower"),
    "warehouse.index_probe_ms": ("ms", "lower"),
    "warehouse.segment_decode_ms": ("ms", "lower"),
    "warehouse.other_ms": ("ms", "lower"),
    "warehouse.decode_share": ("ratio", "lower"),
    # core: query phases and answer sizes
    "core.pattern_match_ms": ("ms", "lower"),
    "core.closure_ms": ("ms", "lower"),
    "core.source_resolution_ms": ("ms", "lower"),
    "core.matched_outputs": ("count", "higher"),
    "core.source_items": ("count", "higher"),
    # warehouse: segment cache accounting
    "warehouse.segments_decoded": ("count", "lower"),
    "warehouse.bytes_read": ("B", "lower"),
    "warehouse.segment_cache_hit_ratio": ("ratio", "higher"),
    # the ROADMAP's "cold within 10x of eager" gate
    "core.eager_backtrace_ms": ("ms", "lower"),
    "warehouse.cold_over_eager_ratio": ("ratio", "lower"),
    # client + serve
    "client.roundtrip_warm_ms": ("ms", "lower"),
    "client.roundtrip_computed_ms": ("ms", "lower"),
    "serve.server_warm_ms": ("ms", "lower"),
    "serve.server_computed_ms": ("ms", "lower"),
    "serve.query_ms": ("ms", "lower"),
    "serve.envelope_ms": ("ms", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.deadline_exceeded": ("count", "lower"),
    "serve.invalidations": ("count", "lower"),
    "serve.post_invalidation_ms": ("ms", "lower"),
    "serve.first_request_ms": ("ms", "lower"),
    "serve.startup_s": ("s", "lower"),
    "serve.peak_rss_mb": ("MB", "lower"),
    # audit request kinds and the write beside the reads
    "audit.sar_p50_ms": ("ms", "lower"),
    "audit.sar_p95_ms": ("ms", "lower"),
    "audit.forward_p50_ms": ("ms", "lower"),
    "audit.forward_p95_ms": ("ms", "lower"),
    "warehouse.record_beside_reads_ms": ("ms", "lower"),
    # stream
    "stream.open_ms": ("ms", "lower"),
    "stream.ingest_ms": ("ms", "lower"),
    "stream.ingest_first_quarter_ms": ("ms", "lower"),
    "stream.ingest_last_quarter_ms": ("ms", "lower"),
    "stream.ingest_growth_ratio": ("ratio", "lower"),
    "stream.finish_compact_ms": ("ms", "lower"),
    "stream.rows_per_s": ("1/s", "higher"),
    "stream.epochs": ("count", "higher"),
    "stream.late_rows": ("count", "lower"),
    "stream.vs_batch_ratio": ("ratio", "lower"),
    "warehouse.live_query_ms": ("ms", "lower"),
    "warehouse.live_query_first_ms": ("ms", "lower"),
    "warehouse.live_query_last_ms": ("ms", "lower"),
    "warehouse.live_query_growth_ratio": ("ratio", "lower"),
    "warehouse.epoch_append_bytes": ("B", "lower"),
    # validity of every row above
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.unattributed_share": ("ratio", "lower"),
}
