"""Write ``tests/fixtures/warehouse_sharded/``: a warehouse with storage shards.

Up to 3.5 a warehouse could be split into named storage shards: the catalog
carried a ``"shards"`` manifest and an ``"epoch"`` counter, and each run sat
under ``shards/<name>/runs/<run_id>/``.  3.6 writes every run flat under
``runs/`` and still reads such a root through each run's catalog ``shard``
field; the committed fixture is what holds it to that.  Regenerating it
needs a checkout of the last writer with shards (its commit is in the
fixture's README)::

    PYTHONPATH=<that checkout>/src PYTHONHASHSEED=0 \\
        python tests/fixtures/make_warehouse_sharded.py tests/fixtures/warehouse_sharded

Two shards, then the running example recorded twice under the name
``example``: ``run-0001-example`` hashes onto ``shard-00`` and
``run-0002-example`` onto ``shard-01``.  ``answers.json`` keeps, per run id,
the sha256 of the backtrace, forward and SAR answers as that writer's reader
gave them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.engine.session import Session
from repro.warehouse import Warehouse
from repro.workloads.scenarios import RUNNING_EXAMPLE_TWEETS, build_running_example
from tests.fixtures.make_warehouse_v2 import answer_digests


def main(root: Path) -> None:
    assert cli_main(["shard", "init", "--root", str(root), "--count", "2"]) == 0
    warehouse = Warehouse.open(root)
    captured = build_running_example(Session(num_partitions=2), RUNNING_EXAMPLE_TWEETS).execute(
        capture=True
    )
    for _ in range(2):
        warehouse.record(captured, name="example")
    warehouse = Warehouse.open(root)
    answers = {
        record.run_id: answer_digests(warehouse, record.run_id, record.name)
        for record in warehouse.runs()
    }
    (root / "answers.json").write_text(json.dumps(answers, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
