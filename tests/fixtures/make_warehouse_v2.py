"""Write ``tests/fixtures/warehouse_v2/``: a warehouse in run layout 2.

Layout 2 keeps every segment in its own file (``ops/op-<oid>.seg``,
``ops/range-NNNN/`` for a sub-sharded run, ``rows.seg``, ``index.seg``).
Layout 3 writes one ``part.seg`` per part and still reads layout 2; the
committed fixture is what holds it to that.  Regenerating it needs a
checkout of the last layout-2 writer (its commit is in the fixture's
README)::

    PYTHONPATH=<that checkout>/src PYTHONHASHSEED=0 \\
        python tests/fixtures/make_warehouse_v2.py tests/fixtures/warehouse_v2

Four runs: ``example`` (the running example, indexed), ``example-ranged``
(the same capture with ``sub_shard_span=2``), ``sealed`` (a three-epoch
stream sealed without compaction) and ``live`` (a two-epoch stream left
live).  ``answers.json`` keeps, per run, the sha256 of the backtrace,
forward and SAR answers as the layout-2 reader gave them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.audit.sar import subject_access_request
from repro.engine.expressions import col
from repro.engine.session import Session
from repro.serve.service import result_to_json
from repro.stream import StreamSession
from repro.warehouse import Warehouse
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)

#: run name -> (backtrace pattern, forward pattern, SAR subject).
QUESTIONS = {
    "example": (RUNNING_EXAMPLE_PATTERN, 'root{//id_str="lp"}', "lp"),
    "example-ranged": (RUNNING_EXAMPLE_PATTERN, 'root{//id_str="lp"}', "lp"),
    "sealed": ('root{/user="u1"}', 'root{/user="u1"}', "u1"),
    "live": ('root{/user="u1"}', 'root{/user="u1"}', "u1"),
}

#: The micro-batches each stream run ingested.
SEALED_BATCHES = ((0, 6), (6, 10), (10, 14))
LIVE_BATCHES = ((0, 6), (6, 10))


def stream_rows(lo: int, hi: int) -> list[dict]:
    return [{"id": i, "user": f"u{i % 2}", "ts": float(i)} for i in range(lo, hi)]


def narrow(dataset):
    """The streams' plan: windowless, so a run is independent of hash order."""
    return dataset.filter(col("id") >= 1).select(col("user"), col("id"))


def _digest(body) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def answer_digests(warehouse: Warehouse, run_id: str, name: str) -> dict[str, str]:
    """The backtrace, forward and SAR answers of run *run_id*, digested."""
    backtrace, forward, subject = QUESTIONS[name]
    return {
        "backtrace": _digest(result_to_json(warehouse.backtrace(run_id, backtrace)[0])),
        "forward": _digest(warehouse.forward(run_id, forward).to_json()),
        "sar": _digest(subject_access_request(warehouse, [subject], runs=[run_id])),
    }


def _stream(root: Path, name: str, batches) -> StreamSession:
    stream = StreamSession(warehouse=root, name=name)
    stream.open(narrow(stream.dataset()))
    for lo, hi in batches:
        stream.ingest(stream_rows(lo, hi))
    return stream


def main(root: Path) -> None:
    warehouse = Warehouse.open(root)
    captured = build_running_example(Session(), RUNNING_EXAMPLE_TWEETS).execute(
        capture=True
    )
    warehouse.record(captured, name="example")
    warehouse.record(captured, name="example-ranged", sub_shard_span=2)
    _stream(root, "sealed", SEALED_BATCHES).finish(compact=False)
    _stream(root, "live", LIVE_BATCHES)
    warehouse = Warehouse.open(root)
    answers = {
        record.name: answer_digests(warehouse, record.run_id, record.name)
        for record in warehouse.runs()
    }
    (root / "answers.json").write_text(json.dumps(answers, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
