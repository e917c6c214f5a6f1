"""Shared fixtures: the paper's running example and small helper sessions."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.engine.session import Session
from repro.pebble.api import PebbleSession
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)


@pytest.fixture
def session() -> Session:
    """A fresh two-partition engine session."""
    return Session(num_partitions=2)


@pytest.fixture
def pebble() -> PebbleSession:
    """A fresh Pebble session."""
    return PebbleSession(num_partitions=2)


@pytest.fixture
def example_tweets() -> list[dict]:
    """The five tweets of Tab. 1."""
    return [dict(tweet) for tweet in RUNNING_EXAMPLE_TWEETS]


@pytest.fixture
def example_pattern() -> str:
    """The provenance question of Fig. 4."""
    return RUNNING_EXAMPLE_PATTERN


@pytest.fixture
def example_pipeline(session, example_tweets):
    """The Fig. 1 pipeline over the Tab. 1 data."""
    return build_running_example(session, example_tweets)


@pytest.fixture
def captured_example(example_pipeline):
    """The running example executed with provenance capture."""
    return example_pipeline.execute(capture=True)


#: A warehouse written in run layout 2, a file per segment (see its README).
WAREHOUSE_V2 = Path(__file__).parent / "fixtures" / "warehouse_v2"


@pytest.fixture
def warehouse_v2(tmp_path) -> Path:
    """A temporary copy of the committed layout-2 warehouse, free to grow."""
    root = tmp_path / "v2"
    shutil.copytree(WAREHOUSE_V2, root)
    return root


#: A warehouse written in run layout 3, items as raw JSON (see its README).
WAREHOUSE_V3 = Path(__file__).parent / "fixtures" / "warehouse_v3"


@pytest.fixture
def warehouse_v3(tmp_path) -> Path:
    """A temporary copy of the committed layout-3 warehouse, free to grow."""
    root = tmp_path / "v3"
    shutil.copytree(WAREHOUSE_V3, root)
    return root


#: A warehouse with two storage shards, written before 3.6 (see its README).
WAREHOUSE_SHARDED = Path(__file__).parent / "fixtures" / "warehouse_sharded"


@pytest.fixture
def warehouse_sharded(tmp_path) -> Path:
    """A temporary copy of the committed sharded warehouse, free to grow."""
    root = tmp_path / "sharded"
    shutil.copytree(WAREHOUSE_SHARDED, root)
    return root
