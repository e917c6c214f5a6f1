"""What the runner expects of a workload."""

from __future__ import annotations

import itertools
import shutil
from pathlib import Path
from typing import Any

from e2ebench.harness import Cycle, Recorder
from e2ebench.inputs import Inputs

__all__ = ["BenchmarkError", "Workload", "require"]


class BenchmarkError(Exception):
    """The benchmark itself is broken (inputs, oracle, server start-up)."""


def require(condition: Any, message: str) -> None:
    """Fail loudly when a seeded input does not have the property the
    workload depends on (a pattern that matches nothing measures nothing)."""
    if not condition:
        raise BenchmarkError(message)


class Workload:
    """One workload: set-up, a repeatable cycle of ops, verification.

    ``setup`` may run several times (the runner reports the median set-up
    time); ``teardown`` undoes one.  ``cycle`` executes the fixed op list
    once inside its own timed window and ``verify`` checks the answers it
    kept, outside any timed window.
    """

    name = ""
    #: Ops a full (non-smoke) untraced run must reach.
    min_ops = 200

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.inputs = Inputs()
        #: Bytes under the workload's warehouse root(s) ...
        self.stored_bytes = 0
        #: ... per compact-JSON byte of the input items recorded there.
        self.input_bytes = 0
        self._dirs = itertools.count()

    def fresh_dir(self, label: str) -> Path:
        path = self.scratch / f"{label}-{next(self._dirs):04d}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def cycle(self, cycle: Cycle) -> None:
        raise NotImplementedError

    def verify(self, cycle: Cycle) -> None:
        raise NotImplementedError

    def child_peak_rss_mb(self) -> float:
        """Peak resident set of processes the workload started (none here)."""
        return 0.0

    def probes(self) -> dict[str, float]:
        """Extra traced-run measurements taken outside the ops."""
        return {}

    def layer_metrics(self, cycles: list[Cycle], recorder: Recorder) -> dict[str, float]:
        raise NotImplementedError

    def describe(self) -> str:
        """One line of sizes for the run header."""
        return ""
