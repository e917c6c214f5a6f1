"""StreamSession: micro-batch streaming capture into a live warehouse run.

The paper captures provenance of one bounded execution.  Streaming pipelines
never finish, so capture must happen **incrementally**: each micro-batch runs
through the same compiled plan (same operators, same A/M records), and its
provenance delta lands as one sealed *epoch* of a live warehouse run.
Queries admitted mid-ingest resolve against the epochs
visible at admission; sealing the run optionally compacts the epochs into
the canonical batch layout, byte-identical to a one-shot capture of the
concatenated input (the streaming == batch property).

>>> stream = StreamSession(warehouse="wh", name="feed")       # doctest: +SKIP
>>> tweets = stream.source("tweets")                          # doctest: +SKIP
>>> plan = stream.dataset(tweets).filter(...)                 # doctest: +SKIP
>>> stream.open(plan)                                         # doctest: +SKIP
>>> stream.ingest(batch_1); stream.ingest(batch_2)            # doctest: +SKIP
>>> stream.finish()                                           # doctest: +SKIP

Two restrictions keep incremental capture exact rather than approximate:

* **Single source** -- the plan reads exactly one :class:`StreamSource`
  (the feed); a second input would need cross-batch join state.
* **Linear, non-blocking plans** -- narrow operators (filter, select, map,
  with_column, flatten) plus windowed aggregation
  (:func:`repro.stream.window.window_by`).  Joins, unions, distinct, sort,
  limit, and *unbounded* aggregations are rejected at :meth:`open` with a
  :class:`~repro.errors.StreamError`: over an unbounded input they either
  never emit or emit answers a later batch would retract, and retraction
  has no sound provenance story in the paper's model.

Provenance ids are globally unique across batches: each per-batch executor
is seeded with the session's persistent id counter (also persisted in the
live manifest as ``next_pid``, so a crashed session can resume without id
collisions).
"""

from __future__ import annotations

from pathlib import Path as FsPath
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.warehouse import Warehouse
    from repro.warehouse.catalog import RunRecord

from repro.engine.config import EngineConfig
from repro.engine.dataset import Dataset
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    FlattenNode,
    JoinNode,
    LimitNode,
    MapNode,
    PlanNode,
    ReadNode,
    SelectNode,
    SortNode,
    UnionNode,
    WithColumnNode,
)
from repro.engine.session import Session
from repro.errors import DataModelError, StreamError
from repro.nested.values import DataItem, coerce_value
from repro.stream.window import WindowAggregateNode, WindowRuntime

__all__ = ["StreamSession", "StreamSource"]

#: Narrow operators legal between the source and the (optional) window sink.
_NARROW = (ReadNode, FilterNode, SelectNode, MapNode, WithColumnNode, FlattenNode)


class StreamSource:
    """The unbounded feed: holds exactly the current micro-batch.

    The plan's read operator loads whatever :meth:`feed` last supplied, so
    re-executing the same compiled plan per batch consumes the stream
    batch by batch.  Items are coerced like an in-memory dataset's.
    """

    def __init__(self, name: str):
        self.name = name
        self._batch: list[DataItem] = []

    def feed(self, items: Iterable[object]) -> int:
        """Replace the current batch; returns its size."""
        coerced: list[DataItem] = []
        for item in items:
            value = coerce_value(item)
            if not isinstance(value, DataItem):
                raise DataModelError(
                    f"stream items must be data items, got {type(item).__name__}"
                )
            coerced.append(value)
        self._batch = coerced
        return len(coerced)

    def load(self) -> list[DataItem]:
        return list(self._batch)

    def loader(self):
        """Zero-argument loader for the read plan node (Source protocol)."""
        return self.load

    def __repr__(self) -> str:
        return f"StreamSource({self.name!r}, {len(self._batch)} queued)"


class StreamSession:
    """Micro-batch streaming capture session (keyword-only, like PebbleSession).

    Owns an engine :class:`Session` (so the plan-building API is unchanged),
    one :class:`StreamSource`, and one live warehouse run.  Lifecycle::

        source() -> dataset() -> open(plan) -> ingest()* -> finish()
    """

    def __init__(
        self,
        *,
        warehouse: "Warehouse | FsPath | str",
        name: str = "stream",
        config: "EngineConfig | None" = None,
    ):
        from repro.warehouse import Warehouse

        self.session = Session(config=config)
        self.warehouse = (
            warehouse if isinstance(warehouse, Warehouse) else Warehouse.open(warehouse)
        )
        self.name = name
        self._source: StreamSource | None = None
        self._dataset: Dataset | None = None
        self._runtime = WindowRuntime()
        self._has_window = False
        self._next_pid = 1
        self._run_id: str | None = None
        self._finished = False
        self._epochs = 0

    # -- plan building ---------------------------------------------------------

    def source(self, name: str = "stream") -> StreamSource:
        """Declare the session's (single) unbounded input feed."""
        if self._source is not None:
            raise StreamError(
                "a stream session has exactly one source; "
                f"{self._source.name!r} is already declared"
            )
        self._source = StreamSource(name)
        return self._source

    def dataset(self, source: StreamSource | None = None) -> Dataset:
        """A dataset reading the stream source (declares one if needed)."""
        if source is None:
            source = self._source if self._source is not None else self.source()
        return self.session.from_source(source)

    # -- lifecycle -------------------------------------------------------------

    def open(self, dataset: Dataset) -> "RunRecord":
        """Validate *dataset*'s plan for streaming and start the live run."""
        if self._run_id is not None:
            raise StreamError(f"stream session already open on run {self._run_id!r}")
        if self._source is None:
            raise StreamError("declare a source() before open()")
        self._validate_plan(dataset.plan)
        self._dataset = dataset
        self._has_window = any(
            isinstance(node, WindowAggregateNode) for node in dataset.plan.walk()
        )
        record = self.warehouse.create_live_run(self.name, sink_oid=dataset.plan.oid)
        self._run_id = record.run_id
        return record

    def ingest(self, items: Iterable[object]) -> dict[str, object]:
        """Run one micro-batch through the plan; append it as an epoch."""
        if self._finished:
            raise StreamError("stream session is finished; cannot ingest")
        if self._run_id is None or self._dataset is None:
            raise StreamError("open() a plan before ingesting")
        assert self._source is not None
        self._source.feed(items)
        return self._run_batch()

    def finish(self, compact: bool = True) -> "RunRecord":
        """Seal the run: flush open windows, stop appends, optionally compact.

        With windows in the plan a final batch runs first (empty feed,
        watermark pushed to ``+inf``) so every still-open window emits --
        the streaming counterpart of a batch aggregation's single flush.
        ``compact=True`` rewrites the epochs into the canonical batch
        layout (byte-identical to a one-shot capture); ``compact=False``
        keeps the epoch layout, which stays queryable and retainable.
        """
        if self._finished:
            raise StreamError("stream session is already finished")
        if self._run_id is None:
            raise StreamError("open() a plan before finishing")
        if self._has_window:
            assert self._source is not None
            self._runtime.final = True
            self._source.feed([])
            self._run_batch()
        self._finished = True
        return self.warehouse.seal_live_run(self._run_id, compact=compact)

    # -- introspection ---------------------------------------------------------

    @property
    def run_id(self) -> str | None:
        return self._run_id

    @property
    def epochs(self) -> int:
        """Micro-batches appended so far (including a final window flush)."""
        return self._epochs

    @property
    def watermark(self) -> float | None:
        """Lowest watermark across window operators (``None`` if windowless)."""
        return self._runtime.watermark()

    @property
    def late_rows(self) -> int:
        """Rows dropped because every window they belonged to had flushed."""
        return self._runtime.late_rows()

    # -- internals -------------------------------------------------------------

    def _run_batch(self) -> dict[str, object]:
        executor = Executor(capture=True, config=self.session.config)
        # Seed global id uniqueness and cross-batch window state; ids are
        # assigned only in the executor's finalisation pass.
        executor._next_id = self._next_pid
        executor._window_runtime = self._runtime  # type: ignore[attr-defined]
        assert self._dataset is not None and self._run_id is not None
        execution: ExecutionResult = executor.execute(self._dataset.plan)
        self._next_pid = executor._next_id
        entry = self.warehouse.append_live_epoch(
            self._run_id,
            execution,
            next_pid=self._next_pid,
            watermark=self._runtime.watermark(),
        )
        self._epochs += 1
        return entry

    def _validate_plan(self, plan: PlanNode) -> None:
        """Reject plans that cannot stream exactly (see module docstring)."""
        nodes = plan.walk()
        consumers: dict[int, int] = {}
        for node in nodes:
            for child in node.children:
                consumers[child.oid] = consumers.get(child.oid, 0) + 1
        for node in nodes:
            if isinstance(node, (JoinNode, UnionNode)):
                raise StreamError(
                    f"streaming plans are linear: {node.op_type} (oid {node.oid}) "
                    "needs a second input, which would require cross-batch state"
                )
            if isinstance(node, (DistinctNode, SortNode, LimitNode)):
                raise StreamError(
                    f"{node.op_type} (oid {node.oid}) is blocking: over an "
                    "unbounded input it would retract already-emitted answers"
                )
            if isinstance(node, AggregateNode) and not isinstance(
                node, WindowAggregateNode
            ):
                raise StreamError(
                    f"unbounded aggregate (oid {node.oid}) never finalises; "
                    "aggregate over event-time windows with window_by(...)"
                )
            if not isinstance(node, _NARROW + (WindowAggregateNode,)):
                raise StreamError(
                    f"operator {type(node).__name__} (oid {node.oid}) is not "
                    "streamable"
                )
            if consumers.get(node.oid, 0) > 1:
                raise StreamError(
                    f"operator {node.oid} feeds {consumers[node.oid]} consumers; "
                    "streaming plans are a single chain"
                )
        reads = [node for node in nodes if isinstance(node, ReadNode)]
        if len(reads) != 1:
            raise StreamError(
                f"streaming plans read exactly one source, found {len(reads)}"
            )
        loader = reads[0].loader
        if getattr(loader, "__self__", None) is not self._source:
            raise StreamError(
                f"plan reads {reads[0].name!r}, which is not this session's "
                "stream source; build the plan from session.dataset()"
            )

    def __repr__(self) -> str:
        state = (
            "finished"
            if self._finished
            else (f"live run {self._run_id!r}" if self._run_id else "unopened")
        )
        return f"StreamSession({self.name!r}, {state}, {self._epochs} epochs)"
