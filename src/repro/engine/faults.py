"""Deterministic fault injection for the scheduler's fault-tolerance layer.

Chaos testing the retry/timeout machinery needs failures that are (a) cheap
to switch on for a whole run (``REPRO_FAULTS`` or ``EngineConfig(faults=...)``)
and (b) **deterministic**: the equivalence property tests assert that a run
with injected faults produces bit-identical results, provenance stores, and
backtrace answers across every scheduler backend, which only holds if the
same tasks fail on the same attempts regardless of execution order.

Probe selection is therefore hash-based, not ``random``-based: a task fires a
probe iff ``sha256(seed | task key | attempt) / 2**64 < probability``.  The
task key (stage index + partition + segment) is stable across backends and
repeat runs, so a fault plan is a pure function of the plan shape.

Probe modes (the spec grammar is ``mode:probability[:option=value...]``):

``flaky_once:P``
    The selected task raises :class:`~repro.errors.InjectedFault` on its
    *first* attempt only -- the canonical transient failure; one retry heals
    it, so any ``max_retries >= 1`` run must succeed with identical output.
``crash:P``
    The selected task raises on *every* attempt (selection is re-drawn per
    attempt) -- exercises retry-budget exhaustion and first-error surfacing.
``delay:P[:seconds=S]``
    The selected task sleeps ``S`` seconds (default 0.05) before running --
    exercises per-task timeouts and straggler reordering.

Options: ``seed=N`` reseeds the hash (default 0), ``seconds=S`` sets the
delay duration.  Example: ``REPRO_FAULTS=flaky_once:0.2:seed=7``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.errors import ExecutionError, InjectedFault

__all__ = ["FaultPlan", "parse_faults"]

_MODES = ("flaky_once", "crash", "delay")

#: Default sleep of a ``delay`` probe, in seconds.
DEFAULT_DELAY_SECONDS = 0.05


def _fraction(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, task key, attempt)."""
    digest = hashlib.sha256(f"{seed}|{key}|{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """One parsed probe; applied inside every stage task before it runs.

    Instances are immutable and decide from a task's ``key`` and ``attempt``
    alone, so a fault fires identically on either scheduler.
    """

    mode: str
    probability: float
    seed: int = 0
    seconds: float = DEFAULT_DELAY_SECONDS

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ExecutionError(f"unknown fault mode {self.mode!r}; pick one of {_MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ExecutionError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.seconds < 0:
            raise ExecutionError(f"fault delay must be non-negative, got {self.seconds}")

    def selects(self, key: str, attempt: int) -> bool:
        """Whether the probe fires for task *key* on *attempt* (1-based)."""
        if self.probability <= 0.0:
            return False
        if self.mode == "flaky_once":
            # Selection is per task, the failure only on the first attempt.
            return attempt == 1 and _fraction(self.seed, key, 0) < self.probability
        draw_attempt = attempt if self.mode == "crash" else 0
        return _fraction(self.seed, key, draw_attempt) < self.probability

    def apply(self, key: str, attempt: int) -> None:
        """Fire the probe for task *key* on *attempt* if selected."""
        if not self.selects(key, attempt):
            return
        if self.mode == "delay":
            time.sleep(self.seconds)
            return
        raise InjectedFault(
            f"injected {self.mode} fault in task {key!r} (attempt {attempt})"
        )

    def spec(self) -> str:
        """The canonical spec string this plan round-trips through."""
        parts = [self.mode, repr(self.probability)]
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.mode == "delay" and self.seconds != DEFAULT_DELAY_SECONDS:
            parts.append(f"seconds={self.seconds}")
        return ":".join(parts)


def parse_faults(spec: str | None) -> FaultPlan | None:
    """Parse a ``REPRO_FAULTS`` spec string into a plan (``None`` if empty)."""
    if not spec or not spec.strip():
        return None
    fields = [field.strip() for field in spec.strip().split(":")]
    if len(fields) < 2:
        raise ExecutionError(
            f"malformed fault spec {spec!r}; expected mode:probability[:option=value]"
        )
    mode = fields[0]
    try:
        probability = float(fields[1])
    except ValueError as error:
        raise ExecutionError(f"malformed fault probability in {spec!r}: {error}") from None
    options: dict[str, float | int] = {}
    for field in fields[2:]:
        name, _, raw = field.partition("=")
        if name not in ("seed", "seconds"):
            raise ExecutionError(f"unknown fault option {name!r} in spec {spec!r}")
        try:
            options[name] = int(raw) if name == "seed" else float(raw)
        except ValueError as error:
            raise ExecutionError(f"malformed fault option in {spec!r}: {error}") from None
    return FaultPlan(mode=mode, probability=probability, **options)  # type: ignore[arg-type]
