"""Engine configuration: partitioning, scheduling, fault-tolerance, optimizer.

One :class:`EngineConfig` replaces the ``num_partitions`` defaults that were
previously duplicated across ``Session``, ``PebbleSession`` and
``CapturedExecution.load``, and carries the knobs introduced by the
logical/physical split and the fault-tolerant scheduler layer: which backend
executes the partitions of a fused stage, how failed tasks are retried, and
which optimizer rules rewrite the plan before compilation.

The config is immutable and **keyword-only**; derive variants with
:meth:`replace` / :meth:`with_partitions`.  :meth:`from_env` builds the
process-wide default and honours environment overrides (``REPRO_SCHEDULER``,
``REPRO_OPTIMIZE``, ``REPRO_MAX_WORKERS``, ``REPRO_TASK_TIMEOUT``,
``REPRO_MAX_RETRIES``, ``REPRO_RETRY_BACKOFF``, ``REPRO_FAULTS``,
``REPRO_PROFILE``) so an entire test suite or benchmark run can be switched
to, say, the thread-pool scheduler without touching call sites.
Environment variables are overrides; every knob is equally settable in code:

>>> config = EngineConfig(scheduler="threads").replace(max_retries=3)
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.engine.faults import parse_faults
from repro.errors import ExecutionError

__all__ = [
    "EngineConfig",
    "DEFAULT_NUM_PARTITIONS",
    "ALL_RULES",
    "resolve_partitions",
]

#: The engine-wide default partition count (formerly repeated as a literal
#: in every session/executor/loader signature).
DEFAULT_NUM_PARTITIONS = 4

#: All optimizer rules, in the order the optimizer applies them.
#: ``pushdown`` moves filters below select/flatten/with_column (plain runs
#: only), ``prune`` drops attributes no downstream operator accesses, and
#: ``fuse`` pipelines consecutive narrow operators into one stage.
ALL_RULES: tuple[str, ...] = ("pushdown", "prune", "fuse")

_SCHEDULERS = ("serial", "threads")


_OFF = ("0", "false", "off", "no")
_ON = ("on", "1", "true", "yes")

#: Environment override -> (the field it sets, the parser of its text).
_ENV_OVERRIDES = {
    "REPRO_SCHEDULER": ("scheduler", str),
    "REPRO_OPTIMIZE": ("optimize", lambda text: text.strip().lower() not in _OFF),
    "REPRO_MAX_WORKERS": ("max_workers", int),
    "REPRO_TASK_TIMEOUT": ("task_timeout", float),
    "REPRO_MAX_RETRIES": ("max_retries", int),
    "REPRO_RETRY_BACKOFF": ("retry_backoff", float),
    "REPRO_FAULTS": ("faults", str),
    "REPRO_PROFILE": ("profile", lambda text: text.strip().lower() in _ON),
}


@dataclass(frozen=True, kw_only=True)
class EngineConfig:
    """Immutable execution configuration carried by a ``Session``."""

    num_partitions: int = DEFAULT_NUM_PARTITIONS
    #: ``"serial"`` or ``"threads"`` (thread pool over partitions).
    scheduler: str = "serial"
    #: Worker cap for the thread pool; ``None`` sizes from the CPU.
    max_workers: int | None = None
    #: Master switch for plan rewriting; ``False`` reproduces the seed
    #: operator-at-a-time execution exactly.
    optimize: bool = True
    #: Enabled rule subset (ablations disable individual rules).
    rules: tuple[str, ...] = ALL_RULES
    #: Wall-clock budget per partition task in seconds; ``None`` disables
    #: timeout enforcement (timeouts are transient -> retried).
    task_timeout: float | None = None
    #: Retries *after* the first attempt for transient task failures.
    max_retries: int = 2
    #: Base delay of the jitter-free exponential backoff between attempts.
    retry_backoff: float = 0.05
    #: Fault-injection spec (see :mod:`repro.engine.faults`); ``None`` off.
    faults: str | None = None
    #: Attach the sampling profiler (:mod:`repro.obs.profile`) to execution:
    #: stacks are sampled per stage and written as folded output.  Off by
    #: default and zero-cost then; ``REPRO_PROFILE=on`` flips it.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ExecutionError(f"need at least one partition, got {self.num_partitions}")
        if self.scheduler not in _SCHEDULERS:
            raise ExecutionError(
                f"unknown scheduler {self.scheduler!r}; pick one of {_SCHEDULERS} "
                "(the process pool, 'processes', was removed in 3.1)"
            )
        unknown = set(self.rules) - set(ALL_RULES)
        if unknown:
            raise ExecutionError(
                f"unknown optimizer rules {sorted(unknown)}; known rules are {ALL_RULES}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ExecutionError(f"max_workers must be positive, got {self.max_workers}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExecutionError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ExecutionError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ExecutionError(f"retry_backoff must be non-negative, got {self.retry_backoff}")
        parse_faults(self.faults)  # validate the spec eagerly

    @property
    def layout(self) -> str:
        """The one partition layout, ``"rows"``; read-only, not a setting.

        Kept because the end-to-end benchmark stamps ``config.layout`` into
        every record (see DESIGN.md Sec. 15 for the decision).
        """
        return "rows"

    def rule_enabled(self, name: str) -> bool:
        """Return whether the optimizer rule *name* is active."""
        return self.optimize and name in self.rules

    def replace(self, **changes: object) -> "EngineConfig":
        """Return a copy with the given knobs overridden (the builder API).

        ``config.replace(scheduler="threads", max_retries=3)`` is the
        code-level equivalent of the environment switches; unknown knob
        names raise ``TypeError`` and the copy is re-validated.
        """
        if not changes:
            return self
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def with_partitions(self, num_partitions: int | None) -> "EngineConfig":
        """Return a copy with the partition count overridden (``None`` keeps it)."""
        if num_partitions is None or num_partitions == self.num_partitions:
            return self
        return self.replace(num_partitions=num_partitions)

    @classmethod
    def from_env(cls, **overrides: object) -> "EngineConfig":
        """Build the default config, honouring environment overrides.

        Explicit *overrides* win over the environment; the environment wins
        over the built-in defaults.  Only behavioural knobs are read from the
        environment -- the partition count stays code-controlled because test
        expectations depend on it.
        """
        values: dict[str, object] = {}
        for name, (field, parse) in _ENV_OVERRIDES.items():
            text = os.environ.get(name)
            if not text:
                continue
            try:
                values[field] = parse(text)
            except ValueError:
                raise ExecutionError(
                    f"environment override {name}={text!r} is not a valid {parse.__name__}"
                ) from None
        values.update(overrides)
        return cls(**values)  # type: ignore[arg-type]


def resolve_partitions(num_partitions: int | None) -> int:
    """Map an optional partition-count argument to the engine default."""
    if num_partitions is None:
        return DEFAULT_NUM_PARTITIONS
    return num_partitions
