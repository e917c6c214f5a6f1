"""Partitioning utilities for the simulated distributed execution.

The engine treats every dataset as a list of partitions, mirroring how a
DISC system distributes bags across workers.  Narrow operators (filter,
select, map, flatten) run partition-by-partition; joins and aggregations
repartition their inputs by a hash of the key, simulating a shuffle.  This
keeps the provenance capture and the tree-pattern matcher exercising the
same per-partition code paths as a distributed deployment, which is what the
paper's scalability argument rests on.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.nested.values import Bag, DataItem, NestedSet

Row = TypeVar("Row")

__all__ = ["partition_rows", "hash_partition", "stable_hash", "concat_partitions"]


def partition_rows(rows: Sequence[Row], num_partitions: int) -> list[list[Row]]:
    """Split *rows* into ``num_partitions`` contiguous chunks.

    Contiguous (range) partitioning keeps the input order reconstructable by
    concatenation, which makes executions deterministic and therefore
    testable; DISC systems give the same guarantee for file splits.
    """
    if num_partitions < 1:
        raise ValueError(f"need at least one partition, got {num_partitions}")
    total = len(rows)
    base, remainder = divmod(total, num_partitions)
    partitions: list[list[Row]] = []
    start = 0
    for index in range(num_partitions):
        size = base + (1 if index < remainder else 0)
        partitions.append(list(rows[start:start + size]))
        start += size
    return partitions


def _feed(crc: int, value: Any) -> int:
    """Fold one model value into a CRC, canonically.

    Python equality crosses numeric types (``1 == True == 1.0``) and the
    engine groups/joins on that equality, so equal keys must land in the same
    bucket: bools and integral floats encode as their integer value.  Every
    encoding is prefixed with a kind byte so distinct values never collide
    structurally (``"1"`` vs ``1``, ``()`` vs ``("",)``).
    """
    if value is None:
        return zlib.crc32(b"N", crc)
    if isinstance(value, float):
        if value.is_integer():
            value = int(value)  # 1.0 buckets with 1 and True
        else:
            return zlib.crc32(b"f" + struct.pack("<d", value), crc)
    if isinstance(value, int):  # includes bool
        encoded = str(int(value)).encode("ascii")  # arbitrary precision
        return zlib.crc32(b"i" + encoded, crc)
    if isinstance(value, str):
        return zlib.crc32(b"s" + value.encode("utf-8"), crc)
    if isinstance(value, DataItem):
        crc = zlib.crc32(b"d", crc)
        for name, attr_value in value.pairs():
            crc = zlib.crc32(name.encode("utf-8") + b"\x00", crc)
            crc = _feed(crc, attr_value)
        return zlib.crc32(b"\x01", crc)
    if isinstance(value, (Bag, NestedSet)):
        crc = zlib.crc32(b"B" if isinstance(value, Bag) else b"S", crc)
        for element in value.items():
            crc = _feed(crc, element)
        return zlib.crc32(b"\x01", crc)
    if isinstance(value, tuple):
        crc = zlib.crc32(b"t", crc)
        for element in value:
            crc = _feed(crc, element)
        return zlib.crc32(b"\x01", crc)
    # Out-of-model fallback: repr is stable for the values the engine sees.
    return zlib.crc32(b"o" + repr(value).encode("utf-8"), crc)


def stable_hash(key: Any) -> int:
    """A process-independent hash of a shuffle key (CRC-32 over a canonical
    encoding).  Unlike builtin ``hash``, the value does not depend on
    ``PYTHONHASHSEED``, so every interpreter -- and every re-execution --
    assigns a row to the same partition."""
    return _feed(0, key)


def hash_partition(
    rows: Iterable[Row],
    num_partitions: int,
    key_of: Callable[[Row], Any],
) -> list[list[Row]]:
    """Repartition *rows* by ``stable_hash(key) % num_partitions`` (a shuffle).

    The shuffle previously keyed on builtin ``hash()``, which is randomized
    per interpreter for strings: two recorded runs could disagree on a
    row's bucket.  :func:`stable_hash` pins the assignment across
    interpreters.
    """
    partitions: list[list[Row]] = [[] for _ in range(num_partitions)]
    for row in rows:
        partitions[stable_hash(key_of(row)) % num_partitions].append(row)
    return partitions


def concat_partitions(partitions: Iterable[Iterable[Row]]) -> list[Row]:
    """Concatenate partitions back into one list (a collect)."""
    collected: list[Row] = []
    for partition in partitions:
        collected.extend(partition)
    return collected
