"""capture_record: run a pipeline with capture on and keep the provenance.

Op = ``PebbleSession.run(scenario.build(...))`` then ``Warehouse.open(root)
.record(execution)`` for one of T1-T5, D3, D5, round-robin; one cycle is the
seven scenarios into a fresh warehouse root.  The only workload where the
engine does most of the work, and the one where layout (columnar vs rows)
and write-path (fsync, checksum) decisions show.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from time import perf_counter

from repro import PebbleSession, Warehouse
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

SCENARIOS = ("T1", "T2", "T3", "T4", "T5", "D3", "D5")

#: Every cycle checks the in-memory answers; every Nth one also re-opens the
#: warehouse and checks the stored runs (a cold query per run is dear).
VERIFY_STORED_EVERY = 4

PROBE_REPEATS = 3


class CaptureRecord(Workload):
    name = "capture_record"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        self.scale = 0.02 if smoke else 0.1
        self.specs = [scenario(name) for name in SCENARIOS]
        #: scenario -> (digest of the eager answer, result row count)
        self.reference: dict[str, tuple[str, int]] = {}

    def describe(self) -> str:
        return (
            f"scale {self.scale}: {self.inputs.total_items} input items, "
            f"{self.inputs.total_bytes} B; {len(SCENARIOS)} ops per cycle, "
            "fresh warehouse root per cycle"
        )

    def setup(self) -> None:
        self.inputs = Inputs().add_twitter(self.scale, self.seed).add_dblp(self.scale, self.seed)
        # The warm-up cycle is also the oracle: its in-memory answers become
        # the reference, and its stored runs must reproduce them.
        warm = Cycle(-1, NULL_RECORDER)
        self.cycle(warm)
        require(not warm.failed, "capture_record warm-up cycle failed")
        for op in warm.ops:
            spec = scenario(op.kind)
            captured = op.info["captured"]
            result = captured.backtrace(spec.pattern)
            require(
                result.matched_output_ids,
                f"pattern of {spec.name} matches nothing under seed {self.seed}",
            )
            self.reference[spec.name] = (backtrace_digest(result), len(captured.items()))
        root = warm.kept[0]
        self._verify_stored(warm, Warehouse.open(root))
        require(not warm.failed, "stored warm-up runs do not answer like the captures")
        self.stored_bytes = disk_usage(root)[0]
        self.input_bytes = sum(self.inputs.bytes_for(name) for name in SCENARIOS)

    def cycle(self, cycle: Cycle) -> None:
        rec = cycle.rec
        root = self.fresh_dir("capture")
        cycle.kept.append(root)
        start = perf_counter()
        for spec in self.specs:
            data = self.inputs.data_for(spec.name)
            with cycle.op(spec.name) as op:
                with rec.span("PebbleSession.run", "engine"):
                    pebble = PebbleSession()
                    captured = pebble.run(spec.build(pebble.session, data))
                with rec.span("Warehouse.open", "warehouse"):
                    warehouse = Warehouse.open(root)
                with rec.span("Warehouse.record", "warehouse"):
                    record = warehouse.record(captured.execution, name=spec.name)
                op.info["captured"] = captured
                op.info["record"] = record
        cycle.wall = perf_counter() - start

    def verify(self, cycle: Cycle) -> None:
        root = cycle.kept[0]
        warehouse = Warehouse.open(root)
        for op in cycle.ops:
            if op.error:
                continue
            spec = scenario(op.kind)
            digest, rows = self.reference[spec.name]
            captured = op.info["captured"]
            if backtrace_digest(captured.backtrace(spec.pattern)) != digest:
                cycle.fail(f"{spec.name}: captured answer differs from the reference")
            elif op.info["record"].row_count != rows:
                cycle.fail(f"{spec.name}: recorded {op.info['record'].row_count} rows, not {rows}")
            if cycle.traced:
                op.info.update(_engine_numbers(captured))
                op.info.update(_run_dir_numbers(warehouse, op.info["record"].run_id))
            del op.info["captured"]
        if cycle.index % VERIFY_STORED_EVERY == 0:
            self._verify_stored(cycle, warehouse)
        shutil.rmtree(root)

    def _verify_stored(self, cycle: Cycle, warehouse: Warehouse) -> None:
        for op in cycle.ops:
            if op.error:
                continue
            spec = scenario(op.kind)
            result, _ = warehouse.backtrace(op.info["record"].run_id, spec.pattern)
            if backtrace_digest(result) != self.reference[spec.name][0]:
                cycle.fail(f"{spec.name}: stored run answers differently from the capture")

    def probes(self) -> dict[str, float]:
        """Capture vs plain, and write vs index build, outside the ops."""
        capture, plain, write, index = [], [], [], []
        root = self.fresh_dir("probe")
        warehouse = Warehouse.open(root)
        for _ in range(PROBE_REPEATS):
            for spec in self.specs:
                data = self.inputs.data_for(spec.name)
                pebble = PebbleSession()
                start = perf_counter()
                captured = pebble.run(spec.build(pebble.session, data))
                capture.append(perf_counter() - start)
                pebble = PebbleSession()
                start = perf_counter()
                pebble.run_plain(spec.build(pebble.session, data))
                plain.append(perf_counter() - start)
                start = perf_counter()
                record = warehouse.record(captured.execution, name=spec.name, index=False)
                write.append(perf_counter() - start)
                start = perf_counter()
                warehouse.build_index(record.run_id)
                index.append(perf_counter() - start)
        shutil.rmtree(root)
        return {
            "engine.capture_ms": median(capture) * 1e3,
            "engine.plain_ms": median(plain) * 1e3,
            "engine.capture_overhead_ratio": ratio(sum(capture), sum(plain)),
            "warehouse.write_ms": median(write) * 1e3,
            "warehouse.index_build_ms": median(index) * 1e3,
        }

    def layer_metrics(self, cycles: list[Cycle], recorder: Recorder) -> dict[str, float]:
        ops = [op for cycle in cycles if cycle.traced for op in cycle.ops if not op.error]
        op_seconds = sum(op.seconds for op in ops)
        runs = recorder.by_name("PebbleSession.run")
        records = recorder.by_name("Warehouse.record")

        def per_op(key: str) -> float:
            return median(op.info[key] for op in ops)

        return {
            "engine.capture_hook_ms": per_op("capture_hook_s") * 1e3,
            "engine.stage_busy_ms": per_op("stage_busy_s") * 1e3,
            "engine.rows_in": per_op("rows_in"),
            "engine.rows_out": per_op("rows_out"),
            "engine.capture_share": ratio(sum(s.seconds for s in runs), op_seconds),
            "core.store_lineage_bytes": per_op("lineage_bytes"),
            "core.store_structural_bytes": per_op("structural_bytes"),
            "core.store_records": per_op("store_records"),
            "warehouse.open_ms": median(s.seconds for s in recorder.by_name("Warehouse.open")) * 1e3,
            "warehouse.record_ms": median(s.seconds for s in records) * 1e3,
            "warehouse.record_share": ratio(sum(s.seconds for s in records), op_seconds),
            "warehouse.bytes_written": per_op("bytes_written"),
            "warehouse.files_written": per_op("files_written"),
            "warehouse.index_bytes": per_op("index_bytes"),
        }


def _engine_numbers(captured) -> dict[str, float]:
    """What the engine and the in-memory store report about one capture."""
    metrics = captured.execution.metrics
    operators = list(metrics.operators())
    report = captured.size_report()
    return {
        "capture_hook_s": sum(op.capture_seconds for op in operators),
        "stage_busy_s": sum(stage.seconds for stage in metrics.stages()),
        "rows_in": sum(op.rows_in for op in operators),
        "rows_out": sum(op.rows_out for op in operators),
        "lineage_bytes": report.lineage_bytes,
        "structural_bytes": report.structural_bytes,
        "store_records": report.association_count,
    }


def _run_dir_numbers(warehouse: Warehouse, run_id: str) -> dict[str, float]:
    run_dir = warehouse.run_dir(run_id)
    written, files = disk_usage(run_dir)
    index = run_dir / "index.seg"
    return {
        "bytes_written": written,
        "files_written": files,
        "index_bytes": index.stat().st_size if index.exists() else 0,
    }
