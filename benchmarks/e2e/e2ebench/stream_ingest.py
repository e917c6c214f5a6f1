"""stream_ingest: a streaming capture that is queried while it grows.

One cycle is a whole stream: ``StreamSession.open``, S1 fed in micro-batches
(op = one ``ingest``), a fresh ``Warehouse.open(root).backtrace`` against the
live run every few epochs (inside the cycle's wall, not an op), and
``finish(compact=True)``.  The same engine and writer as ``capture_record``
used as many small appends with reads beside the writes, so epoch-merge and
manifest-rewrite costs show here and nowhere else.  Tweets are fed in
event-time order, so no row is late and the compacted run must answer
exactly like one batch run over the same rows.  TTL retention is wall-clock
driven and stays out.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from time import perf_counter

from repro import PebbleSession, StreamSession, Warehouse
from repro.workloads import scenario

from e2ebench.base import Workload, require
from e2ebench.harness import Cycle, Recorder, backtrace_digest, disk_usage, median, ratio
from e2ebench.inputs import Inputs

SOURCE_NAME = "tweets.json"


class StreamIngest(Workload):
    name = "stream_ingest"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        self.batch_size = 8
        self.epochs = 10 if smoke else 70
        self.live_every = 5 if smoke else 10
        #: Tweets per unit of scale is 400 (``TwitterConfig.BASE_TWEETS``).
        self.scale = self.epochs * self.batch_size / 400
        self.spec = scenario("S1")
        self.batches: list[list] = []
        self.reference = ""
        self.reference_tweets: set[str] = set()
        self.batch_seconds = 0.0

    def describe(self) -> str:
        return (
            f"{self.inputs.total_items} tweets ({self.inputs.total_bytes} B) in "
            f"{len(self.batches)} micro-batches of {self.batch_size}; live backtrace "
            f"every {self.live_every} epochs; finish(compact=True)"
        )

    def setup(self) -> None:
        self.inputs = Inputs().add_twitter(self.scale, self.seed, event_time_order=True)
        tweets = self.inputs.items["tweets"]
        self.batches = [
            tweets[low : low + self.batch_size] for low in range(0, len(tweets), self.batch_size)
        ]
        self.input_bytes = self.inputs.bytes["tweets"]
        # The one-shot batch run over the same rows: oracle and baseline.
        pebble = PebbleSession()
        start = perf_counter()
        captured = pebble.run(self.spec.build(pebble.session, tweets))
        self.batch_seconds = perf_counter() - start
        result = captured.backtrace(self.spec.pattern)
        require(
            result.matched_output_ids,
            f"pattern of S1 matches nothing under seed {self.seed}",
        )
        self.reference = backtrace_digest(result)
        self.reference_tweets = _tweet_ids(result)
        # Warm the streaming code paths on a three-epoch stream.
        root = self.fresh_dir("warm")
        stream, record = self._open(root)
        for batch in self.batches[:3]:
            stream.ingest(batch)
        Warehouse.open(root).backtrace(record.run_id, self.spec.pattern)
        stream.finish(compact=True)

    def _open(self, root: Path):
        stream = StreamSession(warehouse=root, name="s1")
        dataset = self.spec.build(stream.session, stream.dataset(stream.source(SOURCE_NAME)))
        return stream, stream.open(dataset)

    def cycle(self, cycle: Cycle) -> None:
        rec = cycle.rec
        root = self.fresh_dir("stream")
        pattern = self.spec.pattern
        live = []
        start = perf_counter()
        with rec.span("StreamSession.open", "stream"):
            stream, record = self._open(root)
        opened = perf_counter()
        for epoch, batch in enumerate(self.batches, 1):
            with cycle.op("ingest") as op:
                with rec.span("StreamSession.ingest", "stream"):
                    entry = stream.ingest(batch)
                op.info["bytes"] = entry["total_bytes"]
            if epoch % self.live_every == 0:
                asked = perf_counter()
                with rec.span("live Warehouse.backtrace", "warehouse"):
                    result, _ = Warehouse.open(root).backtrace(record.run_id, pattern)
                live.append((perf_counter() - asked, result))
        sealing = perf_counter()
        with rec.span("StreamSession.finish", "stream"):
            stream.finish(compact=True)
        end = perf_counter()
        cycle.wall = end - start
        cycle.extra = {
            "open_s": opened - start,
            "finish_s": end - sealing,
            "live": live,
            "epochs": stream.epochs,
            "late_rows": stream.late_rows,
            "run_id": record.run_id,
        }
        cycle.kept.append(root)

    def verify(self, cycle: Cycle) -> None:
        root = cycle.kept[0]
        result, _ = Warehouse.open(root).backtrace(cycle.extra["run_id"], self.spec.pattern)
        if backtrace_digest(result) != self.reference:
            cycle.fail("compacted stream answers differently from the one-shot batch run")
        # Emitted windows are final, so the tweets a live query traced back
        # to must be part of the final answer (compaction renumbers the
        # provenance ids, the tweets' own ids stay).
        live = cycle.extra["live"]
        for position, (seconds, answer) in enumerate(live):
            if not _tweet_ids(answer) <= self.reference_tweets:
                cycle.fail(f"live query {position} returned provenance the final answer lacks")
            live[position] = seconds
        self.stored_bytes = disk_usage(root)[0]
        shutil.rmtree(root)

    def layer_metrics(self, cycles: list[Cycle], recorder: Recorder) -> dict[str, float]:
        traced = [cycle for cycle in cycles if cycle.traced]
        first_quarter, last_quarter, rows_per_s, vs_batch = [], [], [], []
        rows = self.inputs.total_items
        for cycle in traced:
            ingests = [op.seconds for op in cycle.ops]
            quarter = max(1, len(ingests) // 4)
            first_quarter.append(median(ingests[:quarter]))
            last_quarter.append(median(ingests[-quarter:]))
            rows_per_s.append(ratio(rows, sum(ingests)))
            capture = cycle.extra["open_s"] + sum(ingests) + cycle.extra["finish_s"]
            vs_batch.append(ratio(capture, self.batch_seconds))
        ops = [op for cycle in traced for op in cycle.ops]
        live = [seconds for cycle in traced for seconds in cycle.extra["live"]]
        live_first = median(cycle.extra["live"][0] for cycle in traced)
        live_last = median(cycle.extra["live"][-1] for cycle in traced)
        return {
            "stream.open_ms": median(c.extra["open_s"] for c in traced) * 1e3,
            "stream.ingest_ms": median(op.seconds for op in ops) * 1e3,
            "stream.ingest_first_quarter_ms": median(first_quarter) * 1e3,
            "stream.ingest_last_quarter_ms": median(last_quarter) * 1e3,
            "stream.ingest_growth_ratio": ratio(median(last_quarter), median(first_quarter)),
            "stream.finish_compact_ms": median(c.extra["finish_s"] for c in traced) * 1e3,
            "stream.rows_per_s": median(rows_per_s),
            "stream.epochs": median(c.extra["epochs"] for c in traced),
            "stream.late_rows": median(c.extra["late_rows"] for c in traced),
            "stream.vs_batch_ratio": median(vs_batch),
            "warehouse.live_query_ms": median(live) * 1e3,
            "warehouse.live_query_first_ms": live_first * 1e3,
            "warehouse.live_query_last_ms": live_last * 1e3,
            "warehouse.live_query_growth_ratio": ratio(live_last, live_first),
            "warehouse.epoch_append_bytes": median(op.info["bytes"] for op in ops),
        }


def _tweet_ids(result) -> set[str]:
    return {entry.item["id_str"] for source in result.sources for entry in source}
