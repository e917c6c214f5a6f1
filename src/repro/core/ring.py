"""Consistent hashing: the placement primitive of the sharded warehouse.

The **warehouse** assigns each recorded run to a storage shard
(:meth:`~repro.warehouse.service.Warehouse.record`) with a
:class:`HashRing`, so the mapping has the two properties placement needs
(cf. "Efficiently Processing Workflow Provenance Queries on SPARK", which
partitions provenance and routes each query to the partition that owns it):

* **determinism across processes** -- points come from SHA-1 over the node
  and key strings, never from Python's per-process ``hash()``, so a
  warehouse reopened tomorrow (or a CLI inspecting it) computes the same
  run -> shard map;
* **bounded movement** -- adding or removing one node only remaps the keys
  that fall between the changed node's points and their predecessors, in
  expectation ``keys / nodes`` of them, so growing the shard set moves
  only the runs it must.

``replicas`` virtual points per node smooth the distribution; 64 keeps the
ring small (a warehouse has a handful of shards) while staying within a
few percent of uniform.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.errors import ReproError

__all__ = ["HashRing", "stable_hash", "DEFAULT_REPLICAS"]

#: Virtual points per node on the ring.
DEFAULT_REPLICAS = 64


def stable_hash(text: str) -> int:
    """A process-independent 64-bit hash of *text* (SHA-1 prefix).

    ``hash()`` is salted per process (PYTHONHASHSEED), which would make
    placement a per-process accident; SHA-1 gives every process and CLI
    invocation the same answer for the same key.
    """
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over named nodes."""

    def __init__(self, nodes: Iterable[str], replicas: int = DEFAULT_REPLICAS):
        self.replicas = int(replicas)
        if self.replicas < 1:
            raise ReproError(f"hash ring needs replicas >= 1, got {replicas}")
        self.nodes: tuple[str, ...] = tuple(dict.fromkeys(nodes))
        if not self.nodes:
            raise ReproError("hash ring needs at least one node")
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for replica in range(self.replicas):
                points.append((stable_hash(f"{node}#{replica}"), node))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [node for _, node in points]

    def assign(self, key: str) -> str:
        """The node owning *key*: the first ring point at or after its hash."""
        index = bisect_right(self._points, stable_hash(key)) % len(self._points)
        return self._owners[index]

    def assignments(self, keys: Sequence[str]) -> dict[str, str]:
        """``key -> node`` for every key (a convenience for listings)."""
        return {key: self.assign(key) for key in keys}

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"HashRing({list(self.nodes)!r}, replicas={self.replicas})"
