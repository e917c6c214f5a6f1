"""Purity of the work a fused stage does.

A fused stage runs its chain once, on the calling thread: each pipelined
operator's ``NarrowOp.apply`` transforms the stage's whole item list, and
the executor assigns ids from the returned entries afterwards.  The
engine's output is only well defined if that choice is unobservable: an
``apply`` must compute the same items and entries however often, and on
whichever thread, it runs, and must leave its input list alone.  These
tests run every evaluation scenario with each ``apply`` wrapped so that it
also runs a second time on a fresh :class:`threading.Thread`; the two
results are compared before the executor uses the first, and the whole
execution is compared with a plain rerun.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.engine.physical import NarrowOp
from repro.engine.session import Session
from repro.workloads.scenarios import SCENARIOS, load_workload, scenario

SCALE = 0.05


def _on_fresh_thread(work):
    """Run *work* on a new thread and return its result."""
    outcome = {}
    thread = threading.Thread(target=lambda: outcome.update(result=work()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return outcome["result"]


def _op_classes():
    """Every NarrowOp class that defines its own ``apply``."""
    pending, found = [NarrowOp], []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "apply" in vars(cls) and cls is not NarrowOp:
            found.append(cls)
    return found


@contextmanager
def rerunning_stage_ops():
    """Run every fused operator's ``apply`` twice, the second time on a
    fresh thread; yield the ``(op, traced)`` of each call that ran."""
    seen = []
    originals = {cls: vars(cls)["apply"] for cls in _op_classes()}

    def twice(original):
        def apply(op, items, traced):
            inputs = list(items)
            first = original(op, items, traced)
            second = _on_fresh_thread(lambda: original(op, items, traced))
            where = (op.describe(), traced)
            assert first[0] == second[0], (where, "items")
            assert first[1] == second[1], (where, "entries")
            assert items == inputs, where
            seen.append(where)
            return first

        return apply

    for cls, original in originals.items():
        cls.apply = twice(original)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.apply = original


def _run_scenario(name, capture):
    spec = scenario(name)
    data = load_workload(spec.kind, SCALE)
    return spec.build(Session(), data).execute(capture=capture)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stage_tasks_recompute_identically(name):
    baseline = _run_scenario(name, capture=True)
    with rerunning_stage_ops() as seen:
        rerun = _run_scenario(name, capture=True)
    assert seen, f"{name} compiled no fused stage"
    assert rerun.rows() == baseline.rows()
    assert rerun.store.serialize() == baseline.store.serialize()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plain_stage_tasks_recompute_identically(name):
    baseline = _run_scenario(name, capture=False)
    with rerunning_stage_ops() as seen:
        rerun = _run_scenario(name, capture=False)
    assert seen
    assert not any(traced for _, traced in seen)
    assert rerun.items() == baseline.items()
