"""Write ``tests/fixtures/warehouse_v3/``: a warehouse in run layout 3.

Layout 3 writes one ``part.seg`` per part, with every read operator's
source items stored as raw JSON.  Layout 4 keeps those items in compressed
frames and still reads layout 3; the committed fixture is what holds it to
that.  Regenerating it needs a checkout of the last layout-3 writer (its
commit is in the fixture's README)::

    PYTHONPATH=<that checkout>/src:. PYTHONHASHSEED=0 \\
        python tests/fixtures/make_warehouse_v3.py tests/fixtures/warehouse_v3

Two runs: ``example`` (the running example, indexed) and ``live`` (a
two-epoch stream left live).  ``answers.json`` keeps, per run, the sha256
of the backtrace, forward and SAR answers as the layout-3 reader gave them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.engine.session import Session
from repro.stream import StreamSession
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_TWEETS, build_running_example
from tests.fixtures.make_warehouse_v2 import LIVE_BATCHES, answer_digests, narrow, stream_rows


def main(root: Path) -> None:
    warehouse = Warehouse.open(root)
    captured = build_running_example(Session(), RUNNING_EXAMPLE_TWEETS).execute(
        capture=True
    )
    warehouse.record(captured, name="example")
    stream = StreamSession(warehouse=root, name="live")
    stream.open(narrow(stream.dataset()))
    for lo, hi in LIVE_BATCHES:
        stream.ingest(stream_rows(lo, hi))
    warehouse = Warehouse.open(root)
    answers = {
        record.name: answer_digests(warehouse, record.run_id, record.name)
        for record in warehouse.runs()
    }
    (root / "answers.json").write_text(json.dumps(answers, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
