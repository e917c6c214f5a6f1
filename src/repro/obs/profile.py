"""A stdlib sampling profiler: folded stacks per stage, zero cost when off.

Spans (:mod:`repro.obs.tracer`) say *that* a stage took 300 ms; they cannot
say which Python frames burned it.  :class:`SamplingProfiler` fills that
gap with nothing beyond the standard library: a daemon timer thread
periodically walks ``sys._current_frames()`` and counts one sample per
``(stage, call stack)`` pair across every thread of the process -- which
covers ``repro serve``'s query workers for free.

Output is the collapsed **folded-stack** format every flamegraph tool
ingests (``stage;frame;frame;... count`` lines, one per unique stack), and
the aggregate per-stage sample counts are merged into a live tracer's
Perfetto timeline as instant events at stop time.

Attachment points:

* the executor, via ``EngineConfig.profile`` / ``REPRO_PROFILE=on`` --
  stages are marked as they start so samples attribute to them;
* ``repro serve``, for the server's lifetime when ``REPRO_PROFILE`` is on.

When off, nothing is constructed and the instrumented code pays one
attribute check -- the ``prof-off`` bench ablation rung pins it.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from typing import Any, TextIO

__all__ = [
    "DEFAULT_INTERVAL",
    "PROFILE_ENV",
    "PROFILE_OUT_ENV",
    "SamplingProfiler",
    "profile_enabled",
    "profile_out_path",
]

#: Sampling period in seconds (~200 Hz: cheap, enough for ms-scale stages).
DEFAULT_INTERVAL = 0.005

PROFILE_ENV = "REPRO_PROFILE"
PROFILE_OUT_ENV = "REPRO_PROFILE_OUT"


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for sampling; parsed like every
    engine switch (:func:`repro.engine.config.env_flag`)."""
    from repro.engine.config import env_flag

    return env_flag(PROFILE_ENV) is True


def profile_out_path() -> str | None:
    """The folded-stack output path from ``REPRO_PROFILE_OUT``, if set."""
    raw = os.environ.get(PROFILE_OUT_ENV)
    return raw if raw else None


def _frame_stack(frame: Any) -> tuple[str, ...]:
    """Render one thread's stack root-first as ``module:function`` frames."""
    frames: list[str] = []
    while frame is not None:
        code = frame.f_code
        name = os.path.splitext(os.path.basename(code.co_filename))[0]
        frames.append(f"{name}:{code.co_name}")
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


class SamplingProfiler:
    """Samples every thread's stack on a timer; aggregates per stage.

    ::

        profiler = SamplingProfiler()
        profiler.start()
        profiler.mark_stage("stage-0 read")
        ...                                     # work happens, on any thread
        profiler.stop()
        profiler.write_folded("profile.folded")
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL, stage: str = "(startup)"):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.interval = interval
        #: ``(stage, stack) -> samples``; stacks are root-first frame tuples.
        self._counts: Counter[tuple[str, tuple[str, ...]]] = Counter()
        self._stage = stage
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> "SamplingProfiler":
        """Stop sampling; always takes one final sample so short runs are
        never empty.  Idempotent."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join(timeout=2.0)
            self._thread = None
        self.sample()
        return self

    # -- sampling --------------------------------------------------------------

    def mark_stage(self, label: str) -> None:
        """Attribute subsequent samples to *label* (stages run in order)."""
        with self._lock:
            self._stage = label

    def sample(self) -> int:
        """Take one sample of every thread; returns the threads sampled.

        The profiler's own timer thread is excluded.  The final synchronous
        sample from :meth:`stop` runs after that thread is gone, so it sees
        every thread -- which guarantees even a run shorter than one
        sampling period yields at least one stack.
        """
        thread = self._thread
        skip = thread.ident if thread is not None else None
        frames = sys._current_frames()
        with self._lock:
            stage = self._stage
            sampled = 0
            for tid, frame in frames.items():
                if tid == skip:
                    continue
                self._counts[(stage, _frame_stack(frame))] += 1
                sampled += 1
        return sampled

    # -- reading / export ------------------------------------------------------

    @property
    def sample_count(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def stage_totals(self) -> dict[str, int]:
        """Samples per stage label, insertion-ordered by first sighting."""
        totals: dict[str, int] = {}
        with self._lock:
            for (stage, _), count in self._counts.items():
                totals[stage] = totals.get(stage, 0) + count
        return totals

    def folded_lines(self) -> list[str]:
        """Collapsed stacks: ``stage;frame;frame;... count``, sorted."""
        with self._lock:
            items = sorted(self._counts.items())
        return [
            ";".join((stage,) + stack) + f" {count}"
            for (stage, stack), count in items
        ]

    def write_folded(self, path_or_handle: str | TextIO) -> int:
        """Write the folded stacks; returns the number of lines written."""
        lines = self.folded_lines()
        if isinstance(path_or_handle, str):
            with open(path_or_handle, "w", encoding="utf-8") as handle:
                return self.write_folded(handle)
        for line in lines:
            path_or_handle.write(line + "\n")
        return len(lines)

    def merge_into_tracer(self, tracer: Any) -> None:
        """Fold per-stage sample counts into a tracer as instant events.

        Loading the trace in Perfetto then shows ``profile <stage>`` markers
        with the sample totals next to the stage spans they explain.
        """
        for stage, samples in self.stage_totals().items():
            tracer.instant(
                f"profile {stage}", "profile", samples=samples,
                hz=round(1.0 / self.interval),
            )

    def __repr__(self) -> str:
        running = self._thread is not None
        return f"SamplingProfiler({self.sample_count} samples, running={running})"
