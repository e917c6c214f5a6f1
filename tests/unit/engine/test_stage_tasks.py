"""Purity of every StageTask the optimizer can emit.

The executor calls each :class:`StageTask` once, on the calling thread, and
the engine's output is only well defined if that choice is unobservable: a
task must compute the same thing however often, and on whichever thread, it
runs.  These tests run every evaluation scenario with ``StageTask.__call__``
wrapped so that each task also runs a second time on a fresh
:class:`threading.Thread`; the two results are compared field by field
before the executor uses the first.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.engine.config import EngineConfig
from repro.engine.physical import StageTask
from repro.engine.session import Session
from repro.workloads.scenarios import SCENARIOS, load_workload, scenario

SCALE = 0.05


def _on_fresh_thread(task):
    """Run *task* on a new thread and return its result."""
    outcome = {}
    thread = threading.Thread(target=lambda: outcome.update(result=task()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return outcome["result"]


@contextmanager
def rerunning_stage_tasks():
    """Run every StageTask twice, the second time on a fresh thread; yield
    the ``(stage, partition)`` of each task that ran."""
    seen = []
    original = StageTask.__call__

    def twice(task):
        inputs = list(task.items)
        first = original(task)
        second = _on_fresh_thread(lambda: original(task))
        where = (task.stage_label, task.part)
        for field in ("items", "entries", "counts", "samples", "part"):
            assert getattr(first, field) == getattr(second, field), (where, field)
        assert first.items is not second.items
        assert task.items == inputs, where
        seen.append(where)
        return first

    StageTask.__call__ = twice
    try:
        yield seen
    finally:
        StageTask.__call__ = original


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
    assert rerun.rows() == baseline.rows()
    assert rerun.store.serialize() == baseline.store.serialize()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plain_stage_tasks_recompute_identically(name):
    baseline = _run_scenario(name, capture=False)
    with rerunning_stage_tasks() as seen:
        rerun = _run_scenario(name, capture=False)
    assert seen
    assert rerun.items() == baseline.items()
