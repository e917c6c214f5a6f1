"""JSON / JSON-lines (de)serialisation of nested datasets.

DISC systems read nested inputs from formats like JSON; the paper's pipelines
start with ``read tweets.json``.  This module converts between the nested
value model and JSON text, and reads/writes JSON-lines files that back the
engine's :class:`~repro.engine.storage.JsonlSource`.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Any, Iterable, Iterator

from repro.errors import DataModelError
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = [
    "item_from_json",
    "item_to_json",
    "json_default",
    "items_from_jsonl",
    "items_to_jsonl",
    "read_jsonl",
    "write_jsonl",
]


def item_from_json(text: str | bytes) -> DataItem:
    """Parse one JSON object (text or UTF-8 bytes) into a :class:`DataItem`."""
    parsed = json.loads(text)
    if not isinstance(parsed, dict):
        raise DataModelError(f"top-level JSON value must be an object, got {type(parsed).__name__}")
    return DataItem(parsed)


def json_default(value: Any) -> Any:
    """The ``default`` hook that lets ``json`` encode model values directly.

    A data item becomes the ``dict`` of its pairs and a bag or set the tuple
    of its elements -- one level only: the encoder recurses and calls back
    for nested containers, so constants never pass through Python.
    """
    if isinstance(value, DataItem):
        return dict(value.pairs())
    if isinstance(value, (Bag, NestedSet)):
        return value.items()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def item_to_json(item: DataItem, indent: int | None = None) -> str:
    """Serialise a data item to JSON text (sets serialise as arrays)."""
    return json.dumps(item, indent=indent, default=json_default)


def items_from_jsonl(lines: Iterable[str]) -> Iterator[DataItem]:
    """Parse JSON-lines text into data items, skipping blank lines."""
    for line in lines:
        stripped = line.strip()
        if stripped:
            yield item_from_json(stripped)


def items_to_jsonl(items: Iterable[DataItem]) -> Iterator[str]:
    """Serialise data items to JSON-lines text (one line per item)."""
    for item in items:
        yield item_to_json(item)


def read_jsonl(path: FsPath | str) -> list[DataItem]:
    """Read a JSON-lines file into a list of data items."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(items_from_jsonl(handle))


def write_jsonl(path: FsPath | str, items: Iterable[DataItem]) -> int:
    """Write data items to a JSON-lines file; returns the item count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in items_to_jsonl(items):
            handle.write(line)
            handle.write("\n")
            count += 1
    return count
