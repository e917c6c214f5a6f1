"""cold_query: open a stored run and ask one structural question.

Set-up records T1-T5 and D1-D5 into one warehouse.  Op = a new
``Warehouse.open(root)`` plus ``.backtrace(run_id, scenario.pattern)``: the
store is lazy, so the segment cache starts empty on every op (the OS page
cache is warm -- the files were just written and are re-read every cycle).
The engine does nothing here; the warehouse reader and format do almost
everything, so reader work shows here and predicts no change on
``capture_record``.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from repro import PebbleSession, Warehouse
from repro.obs.breakdown import QueryBreakdown
from repro.workloads import scenario

from e2ebench.base import Workload, require
from e2ebench.inputs import Inputs
from e2ebench.harness import (
    NULL_RECORDER,
    Cycle,
    Recorder,
    backtrace_digest,
    disk_usage,
    median,
    ratio,
)

SCENARIOS = ("T1", "T2", "T3", "T4", "T5", "D1", "D2", "D3", "D4", "D5")

#: QueryBreakdown phase -> (layer, per-layer metric).
PHASES = {
    "load": ("warehouse", "warehouse.load_ms"),
    "index_probe": ("warehouse", "warehouse.index_probe_ms"),
    "segment_decode": ("warehouse", "warehouse.segment_decode_ms"),
    "other": ("warehouse", "warehouse.other_ms"),
    "pattern_match": ("core", "core.pattern_match_ms"),
    "closure": ("core", "core.closure_ms"),
    "source_resolution": ("core", "core.source_resolution_ms"),
}


class StoredRun:
    __slots__ = ("spec", "run_id", "digest", "eager_seconds")

    def __init__(self, spec, run_id: str, digest: str, eager_seconds: float):
        self.spec = spec
        self.run_id = run_id
        self.digest = digest
        self.eager_seconds = eager_seconds


class ColdQuery(Workload):
    name = "cold_query"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        self.scale = 0.02 if smoke else 0.2
        self.root = scratch
        self.runs: list[StoredRun] = []

    def describe(self) -> str:
        return (
            f"scale {self.scale}: {self.inputs.total_items} input items, "
            f"{self.inputs.total_bytes} B; {len(self.runs)} stored runs, "
            f"{self.stored_bytes} B on disk; segment cache empty per op, OS page cache warm"
        )

    def setup(self) -> None:
        self.inputs = Inputs().add_twitter(self.scale, self.seed).add_dblp(self.scale, self.seed)
        self.root = self.fresh_dir("warehouse")
        warehouse = Warehouse.open(self.root)
        self.runs = []
        for name in SCENARIOS:
            spec = scenario(name)
            pebble = PebbleSession()
            captured = pebble.run(spec.build(pebble.session, self.inputs.data_for(name)))
            record = warehouse.record(captured.execution, name=name)
            start = perf_counter()
            result = captured.backtrace(spec.pattern)
            eager = perf_counter() - start
            require(
                result.matched_output_ids,
                f"pattern of {name} matches nothing under seed {self.seed}",
            )
            self.runs.append(StoredRun(spec, record.run_id, backtrace_digest(result), eager))
        self.stored_bytes = disk_usage(self.root)[0]
        self.input_bytes = sum(self.inputs.bytes_for(name) for name in SCENARIOS)
        warm = Cycle(-1, NULL_RECORDER)
        self.cycle(warm)
        self.verify(warm)
        require(not warm.failed, "stored runs do not answer like the captures")

    def cycle(self, cycle: Cycle) -> None:
        rec = cycle.rec
        start = perf_counter()
        for run in self.runs:
            with cycle.op(run.spec.name) as op:
                breakdown = QueryBreakdown() if cycle.traced else None
                with rec.span("Warehouse.open", "warehouse"):
                    warehouse = Warehouse.open(self.root)
                with rec.span("Warehouse.backtrace", "warehouse") as span:
                    result, cache = warehouse.backtrace(
                        run.run_id, run.spec.pattern, breakdown=breakdown
                    )
                if breakdown is not None:
                    # Phases are exclusive and sum to the breakdown's total,
                    # so laid end to end they tile the call's span.
                    cursor = span.start
                    for phase, seconds in breakdown.phases.items():
                        layer = PHASES.get(phase, ("warehouse", ""))[0]
                        rec.attach(span, phase, layer, cursor, seconds)
                        cursor += seconds
                    op.info["phases"] = dict(breakdown.phases)
                op.info["run"] = run
                op.info["result"] = result
                op.info["cache"] = cache
        cycle.wall = perf_counter() - start

    def verify(self, cycle: Cycle) -> None:
        for op in cycle.ops:
            if op.error:
                continue
            result = op.info.pop("result")
            if backtrace_digest(result) != op.info["run"].digest:
                cycle.fail(f"{op.kind}: cold answer differs from the in-memory backtrace")
            op.info["matched_outputs"] = len(result.matched_output_ids)
            op.info["source_items"] = sum(len(source) for source in result.sources)

    def layer_metrics(self, cycles: list[Cycle], recorder: Recorder) -> dict[str, float]:
        traced = [op for cycle in cycles if cycle.traced for op in cycle.ops if not op.error]
        untraced = [op for cycle in cycles if not cycle.traced for op in cycle.ops if not op.error]
        op_seconds = sum(op.seconds for op in traced)
        metrics = {
            metric: median(op.info["phases"].get(phase, 0.0) for op in traced) * 1e3
            for phase, (_, metric) in PHASES.items()
        }
        caches = [op.info["cache"] for op in traced]
        cold_over_eager = [
            ratio(
                median(op.seconds for op in untraced if op.info["run"] is run),
                run.eager_seconds,
            )
            for run in self.runs
        ]
        metrics.update(
            {
                "warehouse.open_ms": median(s.seconds for s in recorder.by_name("Warehouse.open")) * 1e3,
                "warehouse.decode_share": ratio(
                    sum(op.info["phases"].get("segment_decode", 0.0) for op in traced), op_seconds
                ),
                "core.matched_outputs": median(op.info["matched_outputs"] for op in traced),
                "core.source_items": median(op.info["source_items"] for op in traced),
                "warehouse.segments_decoded": median(cache.misses for cache in caches),
                "warehouse.bytes_read": median(cache.bytes_read for cache in caches),
                "warehouse.segment_cache_hit_ratio": ratio(
                    sum(cache.hits for cache in caches), sum(cache.lookups for cache in caches)
                ),
                "core.eager_backtrace_ms": median(run.eager_seconds for run in self.runs) * 1e3,
                # The ROADMAP gate is "within 10x on every scenario": report the worst.
                "warehouse.cold_over_eager_ratio": max(cold_over_eager),
            }
        )
        return metrics
