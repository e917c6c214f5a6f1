"""The consistent-hash ring: determinism and bounded movement.

Placement decisions are made independently by warehouses recording runs
and CLIs inspecting them -- possibly in different processes on different
days.  These tests pin the two properties that make
that safe: the map is a pure function of (nodes, replicas, key), and
changing the node set only moves the keys it must.
"""

import json
import subprocess
import sys

import pytest

from repro.core.ring import DEFAULT_REPLICAS, HashRing, stable_hash
from repro.errors import ReproError

NODES = ["shard-00", "shard-01", "shard-02", "shard-03"]
KEYS = [f"run-{index:04d}-example" for index in range(200)]


class TestDeterminism:
    def test_same_inputs_same_map(self):
        first = HashRing(NODES).assignments(KEYS)
        second = HashRing(list(NODES)).assignments(KEYS)
        assert first == second

    def test_node_order_is_irrelevant(self):
        assert HashRing(NODES).assignments(KEYS) == HashRing(
            list(reversed(NODES))
        ).assignments(KEYS)

    def test_duplicate_nodes_collapse(self):
        assert HashRing(NODES + NODES).assignments(KEYS) == HashRing(
            NODES
        ).assignments(KEYS)

    def test_stable_hash_is_not_builtin_hash(self):
        # SHA-1 based: a fixed value pins the function forever.
        assert stable_hash("run-0001-example") == int.from_bytes(
            __import__("hashlib").sha1(b"run-0001-example").digest()[:8], "big"
        )

    def test_assignment_pinned_across_subprocesses(self):
        """Fresh interpreters with different hash seeds agree on placement --
        the property ``hash()``-based placement would violate."""
        script = (
            "import json, sys\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.core.ring import HashRing\n"
            f"ring = HashRing({NODES!r})\n"
            f"print(json.dumps([ring.assign(key) for key in {KEYS[:50]!r}]))\n"
        )
        outputs = []
        for seed in ("0", "1", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                cwd=".",
            )
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        ring = HashRing(NODES)
        assert outputs[0] == [ring.assign(key) for key in KEYS[:50]]


class TestBoundedMovement:
    def test_adding_a_node_only_moves_keys_onto_it(self):
        before = HashRing(NODES).assignments(KEYS)
        after = HashRing(NODES + ["shard-04"]).assignments(KEYS)
        moved = {key for key in KEYS if before[key] != after[key]}
        # Points are only added, so every displaced key lands on the newcomer.
        assert all(after[key] == "shard-04" for key in moved)
        # In expectation |keys|/|nodes| move; allow generous slack.
        assert len(moved) <= len(KEYS) // 2

    def test_removing_a_node_only_moves_its_keys(self):
        before = HashRing(NODES).assignments(KEYS)
        after = HashRing(NODES[:-1]).assignments(KEYS)
        for key in KEYS:
            if before[key] != NODES[-1]:
                assert after[key] == before[key]

    def test_every_node_gets_a_fair_share(self):
        counts = {node: 0 for node in NODES}
        for owner in HashRing(NODES).assignments(KEYS).values():
            counts[owner] += 1
        assert all(count > 0 for count in counts.values())
        # 64 virtual points per node keep skew within a small factor.
        assert max(counts.values()) <= 4 * min(counts.values())


class TestValidation:
    def test_no_nodes_rejected(self):
        with pytest.raises(ReproError):
            HashRing([])

    def test_bad_replicas_rejected(self):
        with pytest.raises(ReproError):
            HashRing(NODES, replicas=0)

    def test_default_replicas(self):
        assert HashRing(NODES).replicas == DEFAULT_REPLICAS
        assert len(HashRing(NODES)._points) == DEFAULT_REPLICAS * len(NODES)
