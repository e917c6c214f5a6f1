"""Engine configuration: the optimizer rules.

One :class:`EngineConfig` carries the knobs of the logical/physical split:
which optimizer rules rewrite the plan before compilation.  How a stage runs
is not a knob: it runs once, over one row list, on the calling thread
(DESIGN.md Sec. 12).

The config is immutable and **keyword-only**; derive variants with
:meth:`replace`.  :meth:`from_env` builds the
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
    "ALL_RULES",
    "env_flag",
]

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

    #: Master switch for plan rewriting; ``False`` reproduces the seed
    #: operator-at-a-time execution exactly.
    optimize: bool = True
    #: Enabled rule subset (ablations disable individual rules).
    rules: tuple[str, ...] = ALL_RULES

    def __post_init__(self) -> None:
        unknown = set(self.rules) - set(ALL_RULES)
        if unknown:
            raise ExecutionError(
                f"unknown optimizer rules {sorted(unknown)}; known rules are {ALL_RULES}"
            )

    @property
    def num_partitions(self) -> int:
        """The one row list per operator output, ``1``; read-only, not a setting.

        Kept because the end-to-end benchmark stamps ``config.num_partitions``
        into every record (see DESIGN.md Sec. 12 for the decision).
        """
        return 1

    @property
    def layout(self) -> str:
        """The one row layout, ``"rows"``; read-only, not a setting.

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

    @classmethod
    def from_env(cls, **overrides: object) -> "EngineConfig":
        """Build the default config, honouring environment overrides.

        Explicit *overrides* win over the environment; the environment wins
        over the built-in defaults.
        """
        values: dict[str, object] = {}
        for name, field in _ENV_OVERRIDES.items():
            flag = env_flag(name)
            if flag is not None:
                values[field] = flag
        values.update(overrides)
        return cls(**values)  # type: ignore[arg-type]
