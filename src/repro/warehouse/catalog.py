"""Run catalog: the JSON manifest listing every execution in a warehouse.

One warehouse root stores many captured executions (the multi-run shape the
paper's use-cases need: auditing and data-usage queries span runs recorded
days apart).  ``catalog.json`` is the only file a listing has to read -- it
carries per run the name, creation timestamp, sink operator, and size
figures, so ``repro warehouse ls`` never touches a segment.

Each run's record also says where its directory is.  Runs recorded
before 3.6 into a sharded root carry the shard they sit under; the
``"shards"`` manifest and ``"epoch"`` counter those catalogs also hold are
ignored on load and not written back.  A batch run never changes after
``record``; a streaming run's ``segment_epoch`` moves whenever what a query
over it sees moves, so long-lived readers invalidate cached answers by run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path as FsPath
from typing import Any

from repro.errors import ProvenanceError

__all__ = [
    "RunRecord",
    "Catalog",
    "CATALOG_VERSION",
]

CATALOG_VERSION = 1


class RunRecord:
    """One catalog entry: the identity and vital statistics of a stored run."""

    __slots__ = (
        "run_id",
        "name",
        "created",
        "sink_oid",
        "operator_count",
        "row_count",
        "total_bytes",
        "indexed",
        "shard",
        "live",
        "segment_epoch",
    )

    def __init__(
        self,
        run_id: str,
        name: str,
        created: float,
        sink_oid: int,
        operator_count: int,
        row_count: int,
        total_bytes: int,
        indexed: bool = False,
        shard: str | None = None,
        live: bool = False,
        segment_epoch: int | None = None,
    ):
        self.run_id = run_id
        self.name = name
        #: Seconds since the epoch at :meth:`Warehouse.record` time.
        self.created = created
        self.sink_oid = sink_oid
        self.operator_count = operator_count
        self.row_count = row_count
        #: Bytes of all segments on disk (operators + rows).
        self.total_bytes = total_bytes
        #: Whether the run carries a persisted ``index.seg`` (forward/audit
        #: queries fall back to a full scan when false).
        self.indexed = indexed
        #: Storage shard a pre-3.6 sharded root put the run's directory under
        #: (``<root>/shards/<shard>/runs/<run_id>``); read only.  ``None`` for
        #: the flat layout (``<root>/runs/<run_id>``) every new run gets.
        self.shard = shard
        #: ``True`` while a streaming capture is still appending micro-batch
        #: epochs; sealed and batch runs are ``False``.
        self.live = live
        #: Monotonic per-run segment counter: bumps on every epoch append,
        #: seal and retention sweep.  ``None`` for plain batch runs -- such
        #: runs never change after ``record``.
        self.segment_epoch = segment_epoch

    def created_iso(self) -> str:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.created))

    def to_obj(self) -> dict[str, Any]:
        obj = {
            "run_id": self.run_id,
            "name": self.name,
            "created": self.created,
            "sink_oid": self.sink_oid,
            "operator_count": self.operator_count,
            "row_count": self.row_count,
            "total_bytes": self.total_bytes,
            "indexed": self.indexed,
        }
        if self.shard is not None:
            obj["shard"] = self.shard
        # Streaming fields are emitted only when meaningful, so catalogs of
        # batch-only warehouses keep their pre-2.1 shape byte for byte.
        if self.live:
            obj["live"] = True
        if self.segment_epoch is not None:
            obj["segment_epoch"] = self.segment_epoch
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "RunRecord":
        return cls(
            obj["run_id"],
            obj["name"],
            obj["created"],
            obj["sink_oid"],
            obj["operator_count"],
            obj["row_count"],
            obj["total_bytes"],
            # Pre-1.3 catalogs have no flag; such runs may still be indexed
            # on disk (RunIndex.load checks the manifest, the ground truth).
            obj.get("indexed", False),
            obj.get("shard"),
            # Pre-2.1 catalogs know nothing of streaming; their runs load
            # as plain sealed batch runs.
            obj.get("live", False),
            obj.get("segment_epoch"),
        )

    def __repr__(self) -> str:
        return f"RunRecord({self.run_id!r}, name={self.name!r}, {self.row_count} rows)"


class Catalog:
    """The warehouse's run registry, persisted as ``catalog.json``."""

    FILENAME = "catalog.json"

    def __init__(self, root: FsPath):
        self.root = FsPath(root)
        self._records: list[RunRecord] = []
        self._next_seq = 1

    @property
    def path(self) -> FsPath:
        return self.root / self.FILENAME

    @classmethod
    def load(cls, root: FsPath) -> "Catalog":
        """Read the catalog under *root*, or start an empty one."""
        catalog = cls(root)
        if not catalog.path.exists():
            return catalog
        with open(catalog.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("version") != CATALOG_VERSION:
            raise ProvenanceError(
                f"unsupported catalog version: {document.get('version')!r}"
            )
        catalog._records = [RunRecord.from_obj(entry) for entry in document["runs"]]
        catalog._next_seq = document.get("next_seq", len(catalog._records) + 1)
        return catalog

    def save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        document: dict[str, Any] = {
            "version": CATALOG_VERSION,
            "next_seq": self._next_seq,
            "runs": [record.to_obj() for record in self._records],
        }
        # Write-then-rename keeps the catalog readable if a record() crashes
        # mid-write (the fresh run directory is then simply unreferenced).
        # Compact JSON runs the C encoder (see ``write_manifest``).
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        tmp.replace(self.path)

    def new_run_id(self, name: str) -> str:
        """Mint the next run identifier: a sequence number plus a name slug."""
        slug = "".join(ch if ch.isalnum() else "-" for ch in name.lower()).strip("-")
        run_id = f"run-{self._next_seq:04d}" + (f"-{slug}" if slug else "")
        self._next_seq += 1
        return run_id

    def add(self, record: RunRecord) -> None:
        if any(existing.run_id == record.run_id for existing in self._records):
            raise ProvenanceError(f"run {record.run_id!r} already catalogued")
        self._records.append(record)

    def runs(self) -> list[RunRecord]:
        """All records, oldest first."""
        return list(self._records)

    def latest(self) -> RunRecord:
        if not self._records:
            raise ProvenanceError(f"warehouse at {self.root} holds no runs")
        return self._records[-1]

    def find(self, run_id: str) -> RunRecord:
        """Resolve a run id or name (names resolve to their newest run)."""
        for record in self._records:
            if record.run_id == run_id:
                return record
        named = [record for record in self._records if record.name == run_id]
        if named:
            return named[-1]
        raise ProvenanceError(f"no run {run_id!r} in warehouse at {self.root}")

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"Catalog({self.root}, {len(self._records)} runs)"
