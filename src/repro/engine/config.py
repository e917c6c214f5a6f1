"""Engine configuration: the optimizer rules.

One :class:`EngineConfig` carries the settings of the logical/physical
split: which optimizer rules rewrite the plan before compilation.  How a
stage runs is not a setting: it runs once, over one row list, on the calling
thread (DESIGN.md Sec. 12).

The config is immutable and **keyword-only**.  It is the only way to set
these; no environment variable changes it:

>>> config = EngineConfig(optimize=False, rules=("prune",))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError

__all__ = [
    "EngineConfig",
    "ALL_RULES",
]

#: All optimizer rules, in the order the optimizer applies them.
#: ``pushdown`` moves filters below select/flatten/with_column (plain runs
#: only), ``prune`` drops attributes no downstream operator accesses, and
#: ``fuse`` pipelines consecutive narrow operators into one stage.
ALL_RULES: tuple[str, ...] = ("pushdown", "prune", "fuse")


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
