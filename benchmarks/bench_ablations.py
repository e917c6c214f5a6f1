"""Ablation benches for the design choices called out in DESIGN.md.

1. **Attribute width** (Sec. 7.3.1's observation): the relative capture
   overhead decreases as items get wider, because per-item annotation cost
   is constant while processing cost grows with width.
2. **Value-level annotation** (Lipstick) vs. top-level ids (Pebble): the
   annotation count -- and hence the capture bookkeeping -- grows with the
   number of nested values instead of the number of items.
3. **Eager vs. lazy as pipelines deepen**: the lazy penalty grows with
   pipeline depth, eager querying stays flat.
"""

import time

from conftest import run_once
from repro.baselines.annotations import ValueAnnotationCapture
from repro.baselines.lazy import LazyProvenanceQuerier
from repro.bench.reporting import format_table
from repro.engine.expressions import col
from repro.engine.session import Session
from repro.nested.values import DataItem
from repro.pebble.query import query_provenance
from repro.workloads.twitter import TwitterConfig, generate_tweets


def test_width_ablation(benchmark, save_result):
    """Relative capture overhead as a function of item width."""

    def sweep():
        rows = []
        for width in (0, 8, 32, 96):
            tweets = [
                DataItem(tweet)
                for tweet in generate_tweets(TwitterConfig(scale=0.5, payload_width=width))
            ]

            def run(capture):
                session = Session()
                ds = (
                    session.create_dataset(tweets, "tweets.json")
                    .filter(col("retweet_count") == 0)
                    .flatten("user_mentions", "m_user")
                )
                start = time.perf_counter()
                ds.execute(capture=capture)
                return time.perf_counter() - start

            run(False)  # warm-up
            plain = min(run(False) for _ in range(3))
            captured = min(run(True) for _ in range(3))
            rows.append((width, plain, captured))
        return rows

    rows = run_once(benchmark, sweep)
    rendered = format_table(
        ("payload width", "plain ms", "capture ms", "overhead"),
        [
            (str(width), f"{plain * 1000:.1f}", f"{captured * 1000:.1f}",
             f"{100 * (captured - plain) / plain:+.0f}%")
            for width, plain, captured in rows
        ],
    )
    save_result("ablation_width", "Ablation -- capture overhead vs. item width\n" + rendered)


def test_annotation_count_ablation(benchmark, save_result):
    """Lipstick-style annotations grow with nesting; Pebble ids do not."""

    def sweep():
        rows = []
        for mentions in (0, 2, 4, 8):
            items = [
                DataItem(
                    {
                        "text": "t",
                        "user_mentions": [
                            {"id_str": f"u{i}", "name": f"n{i}"} for i in range(mentions)
                        ],
                    }
                )
                for _ in range(100)
            ]
            capture = ValueAnnotationCapture()
            annotation_count = capture.annotate(items)
            rows.append((mentions, annotation_count, len(items)))
        return rows

    rows = run_once(benchmark, sweep)
    rendered = format_table(
        ("mentions/item", "Lipstick annotations", "Pebble ids"),
        [(str(m), str(a), str(p)) for m, a, p in rows],
    )
    save_result(
        "ablation_annotations",
        "Ablation -- value-level annotations vs. top-level ids\n" + rendered,
    )
    counts = [a for _, a, _ in rows]
    assert counts == sorted(counts) and counts[-1] > counts[0]
    assert all(p == 100 for _, _, p in rows)


def test_depth_ablation(benchmark, save_result):
    """Eager query time stays flat as pipelines deepen; lazy grows."""

    data = [{"a": index, "flag": index % 2 == 0} for index in range(300)]

    def build(depth):
        session = Session()
        ds = session.create_dataset(data, "in")
        for _ in range(depth):
            ds = ds.select(col("a"), col("flag")).filter(col("a") >= 0)
        return ds

    def sweep():
        rows = []
        for depth in (1, 4, 8):
            ds = build(depth)
            captured = ds.execute(capture=True)

            start = time.perf_counter()
            query_provenance(captured, "root{/a=7}")
            eager = time.perf_counter() - start

            start = time.perf_counter()
            LazyProvenanceQuerier(build(depth)).query("root{/a=7}")
            lazy = time.perf_counter() - start
            rows.append((depth, eager, lazy))
        return rows

    rows = run_once(benchmark, sweep)
    rendered = format_table(
        ("pipeline depth", "eager ms", "lazy ms", "factor"),
        [
            (str(depth), f"{eager * 1000:.1f}", f"{lazy * 1000:.1f}", f"x{lazy / eager:.1f}")
            for depth, eager, lazy in rows
        ],
    )
    save_result("ablation_depth", "Ablation -- query time vs. pipeline depth\n" + rendered)
    for _, eager, lazy in rows:
        assert lazy > eager


def test_optimizer_rewrite_ablation(benchmark, save_result):
    """Capture-on runtime under the optimizer rewrite ladder (Fig. 6 workload).

    4. **Projection pruning + fusion**: pruning unused attributes before
       capture shrinks the items every downstream operator copies and
       annotates, so capture-on runtime drops on the scenarios that read a
       narrow slice of wide tweets; fusing the narrow chains removes the
       per-operator stage boundaries on top.
    """
    from repro.bench.harness import measure_optimizer_ablation
    from repro.bench.reporting import render_optimizer_ablation
    from repro.workloads.scenarios import TWITTER_SCENARIOS

    measurements = run_once(
        benchmark,
        lambda: measure_optimizer_ablation(TWITTER_SCENARIOS, scale=0.2, repeats=3),
    )
    save_result("ablation_optimizer", render_optimizer_ablation(measurements))
    by_config = {}
    for m in measurements:
        by_config.setdefault(m.scenario, {})[m.config_name] = m.seconds
    # Pruning must pay off on at least one scenario that captures less work.
    assert any(
        configs["prune"] < configs["no-opt"] for configs in by_config.values()
    )
