"""Debugging a nested-data pipeline with structural provenance (Sec. 1).

A data engineer notices an unexpected duplicate in a hashtag-to-users
rollup over the synthetic Twitter corpus (scenario T4's shape).  The
example shows the debugging workflow the paper motivates:

1. run the pipeline once with capture (eager, pay the overhead once),
2. pose successive tree-pattern questions against the same capture,
3. compare the precise structural answer with what a lineage tool would
   return, and
4. compare eager query time against a PROVision-style lazy re-run.

Run with::

    python examples/debugging_pipeline.py
"""

import time

from repro import PebbleSession, col, collect_set, struct_
from repro.baselines.lazy import LazyProvenanceQuerier
from repro.baselines.lineage import LineageQuerier
from repro.workloads.twitter import TwitterConfig, generate_tweets


def build(pebble: PebbleSession, tweets):
    authoring = (
        pebble.create_dataset(tweets, "tweets.json")
        .flatten("hashtags", "tag")
        .select(
            col("tag.text").alias("hashtag"),
            col("user.id_str").alias("uid"),
            col("user.name").alias("uname"),
        )
    )
    mentioned = (
        pebble.create_dataset(tweets, "tweets.json")
        .flatten("hashtags", "tag")
        .flatten("user_mentions", "m_user")
        .select(
            col("tag.text").alias("hashtag"),
            col("m_user.id_str").alias("uid"),
            col("m_user.name").alias("uname"),
        )
    )
    return (
        authoring.union(mentioned)
        .group_by(col("hashtag"))
        .agg(collect_set(struct_(id_str=col("uid"), name=col("uname"))).alias("users"))
    )


def main() -> None:
    tweets = generate_tweets(TwitterConfig(scale=0.5))
    pebble = PebbleSession()
    pipeline = build(pebble, tweets)

    captured = pebble.run(pipeline)
    pebble_row = next(item for item in captured.items() if item["hashtag"] == "pebble")
    print("#pebble row:", pebble_row)

    # Question 1: why is user u1 associated with #pebble?
    provenance = captured.backtrace('root{/hashtag="pebble", /users{/id_str="u1"}}')
    print("\nWhy is u1 under #pebble?")
    for source in provenance.sources:
        for entry in source:
            print(f"  input tweet id {entry.item_id}: {entry.item['id_str']}")
            print("    contributing:", entry.contributing_paths())

    # Question 2 on the SAME capture (holistic reuse): who put #edbt there?
    second = captured.backtrace('root{/hashtag="edbt"}')
    print("\n#edbt provenance sources:", {s.name: len(s) for s in second.sources})

    # Lineage comparison: how much more data would Titian flag?
    matched = set(provenance.matched_output_ids)
    lineage = LineageQuerier(captured.execution.store).backtrace_ids(
        captured.execution.root.oid, matched
    )
    lineage_count = sum(len(source.ids) for source in lineage)
    structural_count = sum(len(source) for source in provenance.sources)
    print(
        f"\nlineage returns {lineage_count} input tweets; structural provenance "
        f"pinpoints {structural_count} (and the exact attributes within them)"
    )

    # Eager vs. lazy (PROVision-style) query cost on this pipeline.
    start = time.perf_counter()
    captured.backtrace('root{/hashtag="pebble", /users{/id_str="u1"}}')
    eager = time.perf_counter() - start
    lazy_pipeline = build(PebbleSession(), tweets)
    start = time.perf_counter()
    LazyProvenanceQuerier(lazy_pipeline).query('root{/hashtag="pebble", /users{/id_str="u1"}}')
    lazy = time.perf_counter() - start
    print(f"eager query: {eager * 1000:.1f} ms, lazy re-run: {lazy * 1000:.1f} ms "
          f"(x{lazy / eager:.0f})")


if __name__ == "__main__":
    main()
