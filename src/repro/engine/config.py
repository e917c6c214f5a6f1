"""Engine configuration: partitioning and optimizer rules.

One :class:`EngineConfig` replaces the ``num_partitions`` defaults that were
previously duplicated across ``Session`` and ``PebbleSession``, and carries
the knobs of the logical/physical split: which optimizer rules rewrite the plan before compilation.  How a
stage runs is not a knob: its partition tasks run serially, once, on the calling thread
(DESIGN.md Sec. 12).

The config is immutable and **keyword-only**; derive variants with
:meth:`replace` / :meth:`with_partitions`.  :meth:`from_env` builds the
process-wide default and honours one environment switch, ``REPRO_OPTIMIZE``,
so an entire test suite or benchmark run can be switched without touching
call sites.  It is parsed by :func:`env_flag`, which rejects text it does
not recognise.
Environment variables are overrides; every knob is equally settable in code:

>>> config = EngineConfig(optimize=False).replace(rules=("prune",))
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.errors import ExecutionError

__all__ = [
    "EngineConfig",
    "DEFAULT_NUM_PARTITIONS",
    "ALL_RULES",
    "env_flag",
]

#: The engine-wide default partition count (formerly repeated as a literal
#: in every session/executor/loader signature).
DEFAULT_NUM_PARTITIONS = 4

#: All optimizer rules, in the order the optimizer applies them.
#: ``pushdown`` moves filters below select/flatten/with_column (plain runs
#: only), ``prune`` drops attributes no downstream operator accesses, and
#: ``fuse`` pipelines consecutive narrow operators into one stage.
ALL_RULES: tuple[str, ...] = ("pushdown", "prune", "fuse")

_OFF = ("0", "false", "off", "no")
_ON = ("on", "1", "true", "yes")

#: Environment switch -> the field it sets.
_ENV_OVERRIDES = {
    "REPRO_OPTIMIZE": "optimize",
}


def env_flag(name: str) -> bool | None:
    """The boolean environment switch *name*; ``None`` when unset or empty.

    Accepts the ``_ON`` and ``_OFF`` spellings, ignoring case and surrounding
    space; anything else raises :class:`~repro.errors.ExecutionError` naming
    the variable and the value, so a typo never silently picks a side.
    """
    text = os.environ.get(name)
    if not text:
        return None
    word = text.strip().lower()
    if word in _ON:
        return True
    if word in _OFF:
        return False
    raise ExecutionError(
        f"environment switch {name}={text!r} is neither on {_ON} nor off {_OFF}"
    )


@dataclass(frozen=True, kw_only=True)
class EngineConfig:
    """Immutable execution configuration carried by a ``Session``."""

    num_partitions: int = DEFAULT_NUM_PARTITIONS
    #: Master switch for plan rewriting; ``False`` reproduces the seed
    #: operator-at-a-time execution exactly.
    optimize: bool = True
    #: Enabled rule subset (ablations disable individual rules).
    rules: tuple[str, ...] = ALL_RULES

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ExecutionError(f"need at least one partition, got {self.num_partitions}")
        unknown = set(self.rules) - set(ALL_RULES)
        if unknown:
            raise ExecutionError(
                f"unknown optimizer rules {sorted(unknown)}; known rules are {ALL_RULES}"
            )

    @property
    def layout(self) -> str:
        """The one partition layout, ``"rows"``; read-only, not a setting.

        Kept because the end-to-end benchmark stamps ``config.layout`` into
        every record (see DESIGN.md Sec. 15 for the decision).
        """
        return "rows"

    @property
    def scheduler(self) -> str:
        """The one way a stage runs, ``"serial"``; read-only, not a setting.

        Kept because the end-to-end benchmark stamps ``config.scheduler``
        into every record (see DESIGN.md Sec. 12 for the decision).
        """
        return "serial"

    def rule_enabled(self, name: str) -> bool:
        """Return whether the optimizer rule *name* is active."""
        return self.optimize and name in self.rules

    def replace(self, **changes: object) -> "EngineConfig":
        """Return a copy with the given knobs overridden (the builder API).

        ``config.replace(optimize=False)`` is the code-level equivalent of
        the environment switches; unknown knob names raise ``TypeError`` and
        the copy is re-validated.
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
        for name, field in _ENV_OVERRIDES.items():
            flag = env_flag(name)
            if flag is not None:
                values[field] = flag
        values.update(overrides)
        return cls(**values)  # type: ignore[arg-type]
