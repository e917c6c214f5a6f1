"""Windowed aggregation with watermark semantics for micro-batch streaming.

The paper's provenance model (Tab. 5/6) covers *bounded* aggregations: one
grouping pass over a finished input.  Streaming pipelines aggregate over
**windows** of event time instead, and a window can only be finalised once
the *watermark* -- the maximum event time observed so far -- has passed its
end.  This module adds that machinery while keeping the captured provenance
shape identical to a batch aggregation:

* :class:`TumblingWindow` / :class:`SlidingWindow` assign each event-time
  value to its window interval(s);
* :class:`WindowAggregateNode` is an :class:`~repro.engine.plan.AggregateNode`
  whose output rows carry ``window_start`` / ``window_end`` alongside the
  user's grouping keys, and whose A/M records register the event-time column
  as *accessed* (it decides window membership) and *manipulated* into both
  window-bound attributes -- window membership is thereby visible to
  backtracing exactly like any other structural manipulation;
* :class:`WindowRuntime` / :class:`WindowState` hold the open windows across
  micro-batches and flush every window whose end the watermark has passed,
  in deterministic ``window_start`` order.

Determinism contract (the streaming == batch property relies on it): open
windows live in an insertion-ordered dict keyed by ``(interval, group key)``,
rows are consumed in row order, and a flush
emits windows stably sorted by start.  Because a window's end is a function
of its start, the concatenation of incremental flushes under a monotonically
advancing watermark equals the single final flush of a batch run over the
same rows.

Without a runtime attached to the executor (a plain ``Dataset.execute()``)
the node degrades to batch semantics: one state, watermark ``+inf``, one
final flush -- so the same plan object runs bounded or unbounded.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.paths import Path
from repro.engine.dataset import Dataset
from repro.engine.executor import Executor
from repro.engine.expressions import AggregateExpr, as_expression
from repro.engine.plan import AggregateNode, PlanNode
from repro.errors import ExecutionError, PlanError, StreamError
from repro.nested.values import DataItem

__all__ = [
    "SlidingWindow",
    "TumblingWindow",
    "WindowAggregateNode",
    "WindowRuntime",
    "WindowState",
    "WindowedDataset",
    "window_by",
]

#: Output attributes every windowed aggregation prepends to its group keys.
WINDOW_ATTRS = ("window_start", "window_end")


class TumblingWindow:
    """Fixed-size, non-overlapping event-time windows ``[k*size, (k+1)*size)``."""

    __slots__ = ("size",)

    def __init__(self, size: float):
        if size <= 0:
            raise StreamError(f"window size must be positive, got {size}")
        self.size = size

    def assign(self, ts: float) -> list[tuple[float, float]]:
        start = (ts // self.size) * self.size
        return [(start, start + self.size)]

    def describe(self) -> str:
        return f"tumbling({self.size})"

    def __repr__(self) -> str:
        return f"TumblingWindow(size={self.size})"


class SlidingWindow:
    """Overlapping windows of ``size`` starting every ``slide`` time units."""

    __slots__ = ("size", "slide")

    def __init__(self, size: float, slide: float):
        if size <= 0:
            raise StreamError(f"window size must be positive, got {size}")
        if slide <= 0 or slide > size:
            raise StreamError(
                f"slide must be in (0, size], got slide={slide} size={size}"
            )
        self.size = size
        self.slide = slide

    def assign(self, ts: float) -> list[tuple[float, float]]:
        # Earliest window containing ts starts at the smallest multiple of
        # slide that is > ts - size; emit in ascending-start order.
        first = ((ts - self.size) // self.slide + 1) * self.slide
        windows = []
        start = first
        while start <= ts:
            windows.append((start, start + self.size))
            start += self.slide
        return windows

    def describe(self) -> str:
        return f"sliding({self.size}, {self.slide})"

    def __repr__(self) -> str:
        return f"SlidingWindow(size={self.size}, slide={self.slide})"


class WindowAggregateNode(AggregateNode):
    """GroupBy over event-time windows plus the user's grouping keys.

    The output item is ``<window_start, window_end, keys..., aggregates...>``.
    Provenance-wise the event-time column is accessed (it determines window
    membership) and manipulated into both window attributes, so a backtrace
    of a windowed result marks the time path exactly like a derived column.
    """

    op_type = "window_aggregate"

    def __init__(
        self,
        oid: int,
        child: PlanNode,
        time: Any,
        window: TumblingWindow | SlidingWindow,
        keys: Sequence[Any],
        aggregates: Sequence[AggregateExpr],
    ):
        super().__init__(oid, child, keys, aggregates)
        self.time_column = as_expression(time)
        self.window = window
        taken = set(self.key_names) | {a.output_name() for a in self.aggregates}
        clashes = sorted(taken & set(WINDOW_ATTRS))
        if clashes:
            raise PlanError(
                f"window aggregation reserves output attributes {clashes}"
            )
        self.key_names = WINDOW_ATTRS + self.key_names

    def with_children(self, children: Sequence[PlanNode]) -> "WindowAggregateNode":
        return WindowAggregateNode(
            self.oid,
            children[0],
            self.time_column,
            self.window,
            self.keys,
            self.aggregates,
        )

    def label(self) -> str:
        keys = ", ".join(self.key_names[len(WINDOW_ATTRS):])
        aggs = ", ".join(str(aggregate) for aggregate in self.aggregates)
        return (
            f"windowBy({self.time_column}, {self.window.describe()}"
            + (f", {keys}" if keys else "")
            + f").agg({aggs})"
        )

    def accessed_paths(self, input_index: int = 0) -> set[Path]:
        paths = super().accessed_paths(input_index)
        paths |= {path.schematic() for path in self.time_column.accessed_paths()}
        return paths

    def manipulation_pairs(self) -> list[tuple[Path, Path]]:
        pairs = super().manipulation_pairs()
        for in_path in sorted(self.time_column.accessed_paths(), key=str):
            for attr in WINDOW_ATTRS:
                pairs.append((in_path.schematic(), Path().child(attr)))
        return pairs


#: One open window's bucket: interval + per-group member rows.
_Interval = tuple[float, float]
_GroupKey = tuple[Any, ...]


class WindowState:
    """The open windows of one window operator, carried across micro-batches."""

    __slots__ = ("windows", "watermark", "flushed_watermark", "late_rows")

    def __init__(self) -> None:
        #: ``(interval, group key) -> member rows``, insertion-ordered --
        #: the flush order tie-breaker that makes streaming replay batch.
        self.windows: dict[tuple[_Interval, _GroupKey], list[Any]] = {}
        #: Maximum event time observed (monotonic across batches).
        self.watermark = float("-inf")
        #: Watermark of the last flush; windows ending at or before it are
        #: gone, so rows targeting only such windows are *late*.
        self.flushed_watermark = float("-inf")
        #: Rows dropped because every window they belong to was flushed.
        self.late_rows = 0

    def observe(self, node: WindowAggregateNode, pid: Any, item: DataItem) -> None:
        ts = node.time_column.evaluate(item)
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            raise ExecutionError(
                f"window time column {node.time_column} evaluated to "
                f"{ts!r}; event time must be numeric"
            )
        if ts > self.watermark:
            self.watermark = ts
        placed = False
        for interval in node.window.assign(ts):
            if interval[1] <= self.flushed_watermark:
                continue  # that window already emitted; this contribution is lost
            placed = True
            key = (interval, tuple(k.evaluate(item) for k in node.keys))
            self.windows.setdefault(key, []).append((pid, item))
        if not placed:
            self.late_rows += 1

    def flush(self, horizon: float) -> list[tuple[_Interval, _GroupKey, list[Any]]]:
        """Close every window ending at or before *horizon*, start-ordered."""
        due = [
            (key, members)
            for key, members in self.windows.items()
            if key[0][1] <= horizon
        ]
        due.sort(key=lambda entry: entry[0][0][0])  # stable: ties keep insertion order
        for key, _ in due:
            del self.windows[key]
        if horizon > self.flushed_watermark:
            self.flushed_watermark = horizon
        return [(key[0], key[1], members) for key, members in due]


class WindowRuntime:
    """Per-session window state shared by successive micro-batch executions.

    The :class:`~repro.stream.session.StreamSession` attaches one runtime to
    each per-batch executor (as ``executor._window_runtime``); the handler
    below finds it and keeps windows open across batches.  ``final`` is set
    for the sealing batch, which flushes everything regardless of watermark.
    """

    __slots__ = ("states", "final")

    def __init__(self) -> None:
        self.states: dict[int, WindowState] = {}
        self.final = False

    def state(self, oid: int) -> WindowState:
        state = self.states.get(oid)
        if state is None:
            state = self.states[oid] = WindowState()
        return state

    def watermark(self) -> float | None:
        """The minimum watermark across window operators (``None`` if unused)."""
        if not self.states:
            return None
        low = min(state.watermark for state in self.states.values())
        return None if low == float("-inf") else low

    def late_rows(self) -> int:
        return sum(state.late_rows for state in self.states.values())


def _run_window_aggregate(
    executor: Executor, node: WindowAggregateNode
) -> tuple[list[Any], Any]:
    """Executor handler: ingest the batch into window state, emit due windows.

    Emits through ``Executor._emit_groups`` like the batch aggregate, but
    only the windows the watermark closed, each keyed by its
    ``window_start``/``window_end`` before the grouping keys.
    """
    child_rows, child_schema = executor._child_state(node)
    runtime: WindowRuntime | None = getattr(executor, "_window_runtime", None)
    state = runtime.state(node.oid) if runtime is not None else WindowState()
    final = runtime is None or runtime.final
    for pid, item in child_rows:
        state.observe(node, pid, item)
    horizon = float("inf") if final else state.watermark
    groups = (
        ((window_start, window_end, *key_values), members)
        for (window_start, window_end), key_values, members in state.flush(horizon)
    )
    return executor._emit_groups(node, groups, child_schema)


# The wide-stage dispatch is exact-type keyed, so the subclass registers its
# own handler (falling through to _run_aggregate would ignore windows).
Executor._WIDE_HANDLERS[WindowAggregateNode] = _run_window_aggregate


class WindowedDataset:
    """Intermediate builder: ``window_by(ds, ...).agg(...)`` -> Dataset."""

    def __init__(
        self,
        dataset: Dataset,
        time: Any,
        window: TumblingWindow | SlidingWindow,
        keys: Sequence[Any],
    ):
        self.dataset = dataset
        self.time = time
        self.window = window
        self.keys = list(keys)

    def agg(self, *aggregates: AggregateExpr) -> Dataset:
        for aggregate in aggregates:
            if not isinstance(aggregate, AggregateExpr):
                raise PlanError(
                    f"window agg() expects aggregate expressions, got {aggregate!r}"
                )
        session = self.dataset.session
        node = WindowAggregateNode(
            session.next_oid(),
            self.dataset.plan,
            self.time,
            self.window,
            self.keys,
            list(aggregates),
        )
        return Dataset(session, node)


def window_by(
    dataset: Dataset,
    time: Any,
    window: TumblingWindow | SlidingWindow,
    *keys: Any,
) -> WindowedDataset:
    """Group *dataset* by event-time window (plus optional keys).

    ``time`` is a column expression or path string evaluating to a numeric
    event time; ``window`` a :class:`TumblingWindow` or
    :class:`SlidingWindow`.  Returns a builder whose ``agg(...)`` yields a
    dataset of ``<window_start, window_end, keys..., aggregates...>`` rows.
    """
    return WindowedDataset(dataset, time, window, keys)
