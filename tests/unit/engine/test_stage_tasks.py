"""Purity of every StageTask the optimizer can emit.

The scheduler's retry layer re-runs a failed task and keeps whichever
attempt succeeded, so the engine's output is attempt-count independent only
if a task run twice computes the same thing twice.  These tests run every
evaluation scenario through a serial backend that calls each
:class:`StageTask` as attempt 1 and again as attempt 2 and compares the two
results field by field before the backend runs the batch as usual.
"""

from contextlib import contextmanager

import pytest

from repro.engine.config import EngineConfig
from repro.engine.physical import StageTask
from repro.engine.scheduler import SerialScheduler
from repro.engine.session import Session
from repro.workloads.scenarios import SCENARIOS, load_workload, scenario

SCALE = 0.05


@contextmanager
def rerunning_stage_tasks():
    """Call every StageTask twice inside the serial backend; yield the keys."""
    seen = []
    original = SerialScheduler._run_batch

    def twice(self, tasks):
        for task in tasks:
            if not isinstance(task, StageTask):
                continue
            inputs = list(task.items)
            first = task()
            task.attempt = 2
            second = task()
            task.attempt = 1
            for field in ("items", "entries", "counts", "samples"):
                assert getattr(first, field) == getattr(second, field), (task.key, field)
            assert (first.attempt, second.attempt) == (1, 2)
            assert first.items is not second.items
            assert task.items == inputs, task.key
            seen.append(task.key)
        return original(self, tasks)

    SerialScheduler._run_batch = twice
    try:
        yield seen
    finally:
        SerialScheduler._run_batch = original


def _run_scenario(name, capture):
    spec = scenario(name)
    data = load_workload(spec.kind, SCALE)
    session = Session(num_partitions=2, config=EngineConfig())
    return spec.build(session, data).execute(capture=capture)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stage_tasks_recompute_identically(name):
    baseline = _run_scenario(name, capture=True)
    with rerunning_stage_tasks() as seen:
        rerun = _run_scenario(name, capture=True)
    assert seen, f"{name} compiled no fused stage tasks"
    assert len(set(seen)) == len(seen), "stage task keys must be unique within a run"
    assert rerun.rows() == baseline.rows()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plain_stage_tasks_recompute_identically(name):
    baseline = _run_scenario(name, capture=False)
    with rerunning_stage_tasks() as seen:
        rerun = _run_scenario(name, capture=False)
    assert seen
    assert rerun.items() == baseline.items()
