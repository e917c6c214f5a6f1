"""Session: entry point of the engine (SparkSession analogue).

A session assigns operator identifiers, carries the
:class:`~repro.engine.config.EngineConfig` every execution inherits
(partitioning, optimizer rules), and creates datasets
from in-memory items or JSONL files.
"""

from __future__ import annotations

from pathlib import Path as FsPath
from typing import Iterable

from repro.engine.config import EngineConfig
from repro.engine.dataset import Dataset
from repro.engine.plan import ReadNode
from repro.engine.storage import InMemorySource, JsonlSource, Source

__all__ = ["Session"]


class Session:
    """Creates datasets and tracks operator identifiers for one program."""

    def __init__(
        self,
        num_partitions: int | None = None,
        *,
        config: EngineConfig | None = None,
    ):
        base = config if config is not None else EngineConfig.from_env()
        #: The engine configuration every execution of this session inherits;
        #: an explicit ``num_partitions`` overrides the config's count.
        self.config = base.with_partitions(num_partitions)
        self._oid_counter = 0

    @property
    def num_partitions(self) -> int:
        return self.config.num_partitions

    def next_oid(self) -> int:
        """Return a fresh operator identifier (unique within the session)."""
        self._oid_counter += 1
        return self._oid_counter

    def from_source(self, source: Source) -> Dataset:
        """Create a dataset reading from an arbitrary source."""
        node = ReadNode(self.next_oid(), source.name, source.loader())
        return Dataset(self, node)

    def create_dataset(self, items: Iterable[object], name: str = "inline") -> Dataset:
        """Create a dataset from in-memory items (dicts are coerced)."""
        return self.from_source(InMemorySource(name, items))

    def read_jsonl(self, path: FsPath | str, name: str | None = None) -> Dataset:
        """Create a dataset reading a JSON-lines file (re-read per execution)."""
        return self.from_source(JsonlSource(path, name))

    def __repr__(self) -> str:
        return f"Session(num_partitions={self.num_partitions})"
