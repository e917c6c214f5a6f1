"""Executions do not depend on the interpreter's hash seed.

Joins and aggregates group rows in one dict, in arrival order, and ids come
from one counter in operator order.  Nothing there reads builtin ``hash()``
order, so an interpreter started with another ``PYTHONHASHSEED`` may not
change a row, an id or a stored byte.  Reruns in one process are pinned in
``test_stage_tasks.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCALE = 0.05

#: Scenarios with a join or an aggregate: the operators that group rows.
GROUPING_SCENARIOS = ("T1", "T3", "T4", "T5", "D3", "D4", "D5")

HASH_SEEDS = ("0", "1", "12345")

_DIGEST_SCRIPT = """
import hashlib, json, sys
from repro.engine.session import Session
from repro.workloads.scenarios import load_workload, scenario

digests = {}
for name in sys.argv[2:]:
    spec = scenario(name)
    data = load_workload(spec.kind, float(sys.argv[1]))
    execution = spec.build(Session(), data).execute(capture=True)
    digests[name] = [
        hashlib.sha256(repr(execution.rows()).encode()).hexdigest(),
        hashlib.sha256(execution.store.serialize()).hexdigest(),
    ]
print(json.dumps(digests))
"""


def _digests_under(seed):
    src = Path(__file__).resolve().parents[3] / "src"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, str(SCALE), *GROUPING_SCENARIOS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def test_rows_and_store_bytes_do_not_depend_on_the_hash_seed():
    by_seed = {seed: _digests_under(seed) for seed in HASH_SEEDS}
    reference = by_seed[HASH_SEEDS[0]]
    assert sorted(reference) == sorted(GROUPING_SCENARIOS)
    for seed, digests in by_seed.items():
        for name in GROUPING_SCENARIOS:
            assert digests[name] == reference[name], (name, seed)
