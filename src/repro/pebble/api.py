"""PebbleSession: the user-facing API wrapper (paper Sec. 7.1, Fig. 5).

Pebble wraps the engine's session so that user programs look exactly like
plain engine programs; the wrapper routes execution either to the plain
engine (capture off) or to the capture-enabled executor, and exposes
provenance querying on the captured execution -- the "integrated" user
experience the paper contrasts with offloading provenance to external
tools.

>>> pebble = PebbleSession()
>>> tweets = pebble.create_dataset([...], "tweets.json")      # doctest: +SKIP
>>> result = tweets.filter(...).select(...)                   # doctest: +SKIP
>>> captured = pebble.run(result)                             # doctest: +SKIP
>>> provenance = captured.backtrace('root{//id_str="lp"}')    # doctest: +SKIP
"""

from __future__ import annotations

from pathlib import Path as FsPath
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.warehouse import RunRecord, Warehouse

from repro.core.backtrace.result import ProvenanceResult
from repro.core.store import ProvenanceSizeReport
from repro.core.treepattern.matcher import PatternMatch, match_partitions
from repro.core.treepattern.pattern import TreePattern
from repro.engine.config import EngineConfig
from repro.engine.dataset import Dataset
from repro.engine.executor import ExecutionResult
from repro.engine.session import Session
from repro.errors import CaptureDisabledError
from repro.nested.values import DataItem
from repro.pebble.export import export_execution_json
from repro.pebble.query import as_pattern, query_provenance

__all__ = ["PebbleSession", "CapturedExecution"]


class CapturedExecution:
    """A pipeline execution with eagerly captured structural provenance."""

    def __init__(self, execution: ExecutionResult):
        if execution.store is None:
            raise CaptureDisabledError("CapturedExecution needs a capture-enabled run")
        self._execution = execution

    @property
    def execution(self) -> ExecutionResult:
        return self._execution

    def items(self) -> list[DataItem]:
        """The pipeline's result items."""
        return self._execution.items()

    def rows(self) -> list[tuple[int, DataItem]]:
        """The result items with their provenance identifiers."""
        return self._execution.rows()

    def match(self, pattern: TreePattern | str) -> list[PatternMatch]:
        """Run only the tree-pattern matching phase over the result."""
        return match_partitions(as_pattern(pattern), self._execution.partitions)

    def backtrace(self, pattern: TreePattern | str) -> ProvenanceResult:
        """Answer a structural provenance question (match + backtrace)."""
        return query_provenance(self._execution, pattern)

    def size_report(self) -> ProvenanceSizeReport:
        """Space taken by the captured provenance (Fig. 8 accounting)."""
        assert self._execution.store is not None
        return self._execution.store.size_report()

    def save(
        self, warehouse: "Warehouse | FsPath | str", name: str = "run"
    ) -> "RunRecord":
        """Record this execution into a warehouse; returns the run record.

        *warehouse* is an open :class:`~repro.warehouse.Warehouse` or its
        root directory (created if needed); ``Warehouse.open(root).load()``
        or ``repro warehouse query`` answers questions over the stored run.
        """
        from repro.warehouse import Warehouse

        if not isinstance(warehouse, Warehouse):
            warehouse = Warehouse.open(warehouse)
        return warehouse.record(self._execution, name=name)

    def export_json(self, path: FsPath | str) -> None:
        """Export rows + provenance as one plain-JSON document.

        The JSON format is a write-only interchange path for external tools;
        the warehouse (:meth:`save`) is the queryable store.
        """
        export_execution_json(self._execution, path)

    def __repr__(self) -> str:
        return f"CapturedExecution({len(self._execution)} result items)"


class PebbleSession:
    """Transparent wrapper over the engine session (the PebbleAPI of Fig. 5).

    The constructor is **keyword-only** and accepts every
    :class:`~repro.engine.config.EngineConfig` knob directly, so optimizer
    settings are settable in code without touching environment variables:

    >>> pebble = PebbleSession(optimize=False, rules=("prune",))
    >>> pebble = PebbleSession(num_partitions=8, config=my_config)

    An explicit ``config`` provides the base (``EngineConfig.from_env()``
    otherwise -- environment variables are overrides of the defaults, not
    the only path); extra knobs are applied on top via
    :meth:`EngineConfig.replace`, and unknown knob names raise ``TypeError``.
    """

    def __init__(
        self,
        *,
        num_partitions: int | None = None,
        config: "EngineConfig | None" = None,
        **knobs: object,
    ):
        base = config if config is not None else EngineConfig.from_env()
        if knobs:
            base = base.replace(**knobs)
        self.session = Session(num_partitions=num_partitions, config=base)

    @property
    def config(self) -> "EngineConfig":
        return self.session.config

    # -- dataset creation (routed to the engine) ------------------------------

    def create_dataset(self, items: Iterable[object], name: str = "inline") -> Dataset:
        """Create a dataset from in-memory items."""
        return self.session.create_dataset(items, name)

    def read_jsonl(self, path: FsPath | str, name: str | None = None) -> Dataset:
        """Create a dataset reading a JSON-lines file."""
        return self.session.read_jsonl(path, name)

    # -- execution -------------------------------------------------------------

    def run(self, dataset: Dataset) -> CapturedExecution:
        """Execute with provenance capture (the Pebble Core path)."""
        return CapturedExecution(dataset.execute(capture=True))

    def run_plain(self, dataset: Dataset) -> ExecutionResult:
        """Execute without capture (the plain SparkSQL path)."""
        return dataset.execute(capture=False)

    # -- persistence -----------------------------------------------------------

    def warehouse(self, root: FsPath | str) -> "Warehouse":
        """Open (creating if needed) a provenance warehouse for this session."""
        from repro.warehouse import Warehouse

        return Warehouse.open(root)

    def __repr__(self) -> str:
        return f"PebbleSession({self.session!r})"
