"""Seeded workload inputs.

The generators are called directly with the run's seed (the scenarios' own
memoised loader keys on ``(kind, scale)`` and would ignore it) and the items
are coerced to :class:`DataItem` once, in set-up, so timed sections measure
pipelines and queries, not JSON-to-model conversion.

Tweets are a *shape-stratified* sample of a larger seeded corpus.  The time
cap keeps the workloads at a few dozen to a few hundred tweets, and at that
size the heavy-tailed flatten products (hashtags x media x mentions) swing
the work of T2 or T4 by 15-20% from one seed to the next -- more than the
regression bounds the benchmark has to resolve.  Sorting a corpus of
:data:`POPULATION_SCALE` by shape and taking every k-th tweet gives every
seed different tweets with nearly the same shape mix (T2's work then varies
by ~4%).
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Any

from repro.nested import DataItem
from repro.workloads import (
    DblpConfig,
    TwitterConfig,
    generate_dblp,
    generate_tweets,
    scenario,
)

__all__ = ["Inputs", "SCENARIO_COLLECTIONS"]

#: Which input collections each scenario reads (for stored-vs-input bytes).
SCENARIO_COLLECTIONS: dict[str, tuple[str, ...]] = {
    "D1": ("inproceedings", "proceedings"),
    "D2": ("proceedings", "articles"),
    "D3": ("inproceedings", "persons"),
    "D4": ("inproceedings", "proceedings"),
    "D5": ("inproceedings", "proceedings"),
}


#: Scale of the corpus the tweets are sampled from (1600 tweets).
POPULATION_SCALE = 4.0

#: The three sentinel tweets every scenario pattern relies on come first.
SENTINEL_TWEETS = 3


def _compact_bytes(records: list[dict[str, Any]]) -> int:
    return len(json.dumps(records, separators=(",", ":")).encode("utf-8"))


def _shape(tweet: dict[str, Any]) -> tuple:
    """What a tweet costs the scenarios: nested-list sizes, trigger words."""
    hashtags, media, mentions = (
        len(tweet[name]) for name in ("hashtags", "media", "user_mentions")
    )
    return (
        hashtags * max(1, media) * mentions,
        mentions,
        hashtags,
        "good" in tweet["text"],
        "BTS" in tweet["text"],
        tweet["retweet_count"] == 0,
    )


def _sample_tweets(scale: float, seed: int) -> list[dict[str, Any]]:
    """``TwitterConfig(scale).tweet_count`` tweets: the sentinels plus a
    systematic sample, in shape order, of a seeded corpus of at least
    :data:`POPULATION_SCALE` (user density as at *scale*)."""
    count = TwitterConfig(scale=scale).tweet_count
    population = generate_tweets(
        TwitterConfig(
            scale=max(scale, POPULATION_SCALE), seed=seed, user_count=max(8, count // 12)
        )
    )
    wanted = count - SENTINEL_TWEETS
    if wanted <= 0:
        return population[:count]
    rest = population[SENTINEL_TWEETS:]
    by_shape = sorted(range(len(rest)), key=lambda index: _shape(rest[index]))
    step = len(rest) / wanted
    chosen = sorted(by_shape[int((position + 0.5) * step)] for position in range(wanted))
    return population[:SENTINEL_TWEETS] + [rest[index] for index in chosen]


def _sample_tweets_in_child(scale: float, seed: int) -> list[dict[str, Any]]:
    """:func:`_sample_tweets` in a forked child that sends the sample back as
    JSON.  The population is ~25 MB of small objects; freed in this process
    it would stay resident (the sample pins its arenas) and ``peak_rss_mb``
    would measure the benchmark's inputs instead of the library.  Set-up has
    no live threads, so forking is safe."""
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as pipe:
                json.dump(_sample_tweets(scale, seed), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(child, 0)
    if status != 0:
        raise RuntimeError(f"tweet sampling child exited with status {status}")
    return json.loads(text)


class Inputs:
    """Generated collections, raw and coerced, with their timings and sizes."""

    def __init__(self) -> None:
        self.raw: dict[str, list[dict[str, Any]]] = {}
        self.items: dict[str, list[DataItem]] = {}
        self.bytes: dict[str, int] = {}
        self.generate_s = 0.0
        self.coerce_s = 0.0

    def _add(self, name: str, records: list[dict[str, Any]]) -> None:
        self.raw[name] = records
        self.bytes[name] = _compact_bytes(records)
        start = perf_counter()
        self.items[name] = [DataItem(record) for record in records]
        self.coerce_s += perf_counter() - start

    def add_twitter(self, scale: float, seed: int, event_time_order: bool = False) -> "Inputs":
        start = perf_counter()
        tweets = _sample_tweets_in_child(scale, seed)
        if event_time_order:
            # A stream whose rows arrive in event-time order drops no late
            # rows, which is what makes stream == batch checkable.
            tweets.sort(key=lambda tweet: tweet["created_at"])
        self.generate_s += perf_counter() - start
        self._add("tweets", tweets)
        return self

    def add_dblp(self, scale: float, seed: int) -> "Inputs":
        start = perf_counter()
        collections = generate_dblp(DblpConfig(scale=scale, seed=seed))
        self.generate_s += perf_counter() - start
        for name, records in collections.items():
            self._add(name, records)
        return self

    def data_for(self, name: str) -> Any:
        """What ``scenario(name).build`` expects as its workload argument."""
        if scenario(name).kind == "twitter":
            return self.items["tweets"]
        return self.items

    def bytes_for(self, name: str) -> int:
        """Compact-JSON bytes of the input items scenario *name* reads."""
        collections = SCENARIO_COLLECTIONS.get(name, ("tweets",))
        return sum(self.bytes[collection] for collection in collections)

    @property
    def total_items(self) -> int:
        return sum(len(records) for records in self.raw.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def layer_metrics(self) -> dict[str, float]:
        return {
            "workloads.generate_s": self.generate_s,
            "nested.coerce_s": self.coerce_s,
            "workloads.input_items": self.total_items,
            "workloads.input_bytes": self.total_bytes,
        }
