"""Equivalence properties of the optimizing engine (the PR's key invariant).

For random plan shapes over the Twitter and DBLP generators, executing with
optimization on or off must produce identical results, identical provenance
identifier sequences, equivalent provenance stores, and identical backtrace
answers.  The ``optimize off`` configuration is the seed execution path, so
these properties pin the rewritten engine to the seed semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.core.operator_provenance import UNDEFINED
from repro.engine.config import EngineConfig
from repro.engine.expressions import col, collect_list, count
from repro.engine.session import Session
from repro.obs.tracer import Tracer, tracing
from repro.pebble.query import query_provenance
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.workloads.twitter import TwitterConfig, generate_tweets

TWEETS = generate_tweets(TwitterConfig(scale=0.02, payload_width=2))
PAPERS = generate_dblp(DblpConfig(scale=0.01))["inproceedings"]

#: The seed execution path; every other configuration must match it.
BASELINE = ("no-opt", EngineConfig(optimize=False))
VARIANTS = (("opt", EngineConfig()),)

#: shape -> backtrace pattern over that shape's result schema.
SHAPES = {
    "select-filter": "root{/text}",  # filter above select: pushdown shape
    "alias-filter": "root{/t}",  # pushdown through a renaming projection
    "filter-flatten": "root{/m}",
    "flatten-filter": "root{//screen_name}",  # pushdown below flatten
    "flatten-agg": "root{/texts}",
    "agg": "root{/n}",
    "sort-limit": "root{/text}",
    "filter-limit": "root{/text}",  # per-partition limit prefix shape
    "union": "root{/text}",
    "distinct": "root{/lang}",
    "with-column": "root{/rc}",
    "dblp-flatten-agg": "root{/papers}",
    "dblp-select-filter": "root{/title}",
}


def _build(session: Session, shape: str, k: int):
    tweets = session.create_dataset(TWEETS, "tweets.json")
    if shape == "select-filter":
        return tweets.select(col("text"), col("retweet_count")).filter(
            col("retweet_count") >= k
        )
    if shape == "alias-filter":
        return tweets.select(
            col("text").alias("t"), col("retweet_count")
        ).filter(col("retweet_count") >= k)
    if shape == "filter-flatten":
        return tweets.filter(col("text").contains("good")).flatten(
            "user_mentions", "m"
        )
    if shape == "flatten-filter":
        return tweets.flatten("user_mentions", "m").filter(
            col("retweet_count") >= k
        )
    if shape == "flatten-agg":
        return (
            tweets.filter(col("retweet_count") >= k)
            .flatten("user_mentions", "m")
            .group_by(col("m"))
            .agg(collect_list(col("text")).alias("texts"))
        )
    if shape == "agg":
        return tweets.group_by(col("lang")).agg(
            count().alias("n"), collect_list(col("text")).alias("texts")
        )
    if shape == "sort-limit":
        return tweets.sort(col("retweet_count"), descending=True).limit(k + 1)
    if shape == "filter-limit":
        return tweets.filter(col("retweet_count") >= k).limit(3)
    if shape == "union":
        more = session.create_dataset(TWEETS, "more.json")
        return tweets.filter(col("retweet_count") >= k).union(
            more.filter(col("favorite_count") >= k)
        )
    if shape == "distinct":
        return tweets.select(col("lang")).distinct()
    if shape == "with-column":
        return tweets.with_column("rc", col("retweet_count")).filter(col("rc") >= k)
    papers = session.create_dataset(PAPERS, "inproceedings.json")
    if shape == "dblp-flatten-agg":
        return (
            papers.flatten("authors", "author")
            .group_by(col("author"))
            .agg(count().alias("papers"))
        )
    if shape == "dblp-select-filter":
        return papers.select(col("title"), col("year")).filter(col("year") >= 2013)
    raise AssertionError(shape)


def _run(shape: str, k: int, config: EngineConfig, capture: bool):
    session = Session(num_partitions=2, config=config)
    return _build(session, shape, k).execute(capture=capture)


def _accessed_key(accessed) -> object:
    if accessed is UNDEFINED:
        return "UNDEFINED"
    return tuple(sorted(map(repr, accessed)))


def _store_fingerprint(store) -> list[tuple]:
    fingerprint = []
    for provenance in sorted(store.operators(), key=lambda p: p.oid):
        associations = provenance.associations
        if hasattr(associations, "records"):
            payload = ("records", tuple(associations.records))
        else:
            payload = ("ids", tuple(associations.ids))
        manipulations = provenance.manipulations
        fingerprint.append(
            (
                provenance.oid,
                provenance.op_type,
                type(associations).__name__,
                payload,
                "UNDEFINED" if manipulations is UNDEFINED else repr(manipulations),
                tuple(
                    (ref.predecessor, _accessed_key(ref.accessed))
                    for ref in provenance.inputs
                ),
                store.source_name(provenance.oid) if store.is_source(provenance.oid) else None,
            )
        )
    return fingerprint


@given(st.sampled_from(sorted(SHAPES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_capture_equivalent_across_configs(shape, k):
    baseline = _run(shape, k, BASELINE[1], capture=True)
    expected_rows = baseline.rows()
    expected_store = _store_fingerprint(baseline.store)
    for name, config in VARIANTS:
        execution = _run(shape, k, config, capture=True)
        assert execution.items() == baseline.items(), name
        assert execution.rows() == expected_rows, name
        assert _store_fingerprint(execution.store) == expected_store, name


@given(st.sampled_from(sorted(SHAPES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_plain_results_equivalent_across_configs(shape, k):
    # Capture off: pushdown and the per-partition limit prefix are legal
    # here, so this run exercises rewrites the capture path must refuse.
    baseline = _run(shape, k, BASELINE[1], capture=False)
    for name, config in VARIANTS:
        execution = _run(shape, k, config, capture=False)
        assert execution.items() == baseline.items(), name
        # Schemas are sampled from runtime items, so on an *empty* result
        # they depend on where in the plan the rows ran out -- which filter
        # pushdown legitimately moves.  Non-empty results must agree.
        if baseline.items():
            assert execution.schema == baseline.schema, name
        assert execution.store is None, name


@given(st.sampled_from(sorted(SHAPES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_tracing_does_not_perturb_results(shape, k):
    """Tracing only observes: traced runs must equal untraced runs exactly --
    same items, same provenance store, same backtrace answer -- while the
    tracer actually records execution and query spans."""
    pattern = SHAPES[shape]
    untraced = _run(shape, k, BASELINE[1], capture=True)
    expected_answer = query_provenance(untraced, pattern)
    for name, config in (BASELINE, *VARIANTS):
        tracer = Tracer()
        with tracing(tracer):
            traced = _run(shape, k, config, capture=True)
            answer = query_provenance(traced, pattern)
        assert traced.items() == untraced.items(), name
        assert traced.rows() == untraced.rows(), name
        assert _store_fingerprint(traced.store) == _store_fingerprint(untraced.store), name
        assert answer.matched_output_ids == expected_answer.matched_output_ids, name
        assert answer.all_ids() == expected_answer.all_ids(), name
        assert answer.render() == expected_answer.render(), name
        assert tracer.find("run"), name
        assert tracer.find("pattern_match", name="pattern-match"), name


@given(st.sampled_from(sorted(SHAPES)), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_backtrace_answers_equivalent_across_configs(shape, k):
    pattern = SHAPES[shape]
    baseline = _run(shape, k, BASELINE[1], capture=True)
    expected = query_provenance(baseline, pattern)
    expected_sources = expected.all_ids()
    for name, config in VARIANTS:
        execution = _run(shape, k, config, capture=True)
        answer = query_provenance(execution, pattern)
        assert answer.matched_output_ids == expected.matched_output_ids, name
        assert answer.all_ids() == expected_sources, name
        assert answer.render() == expected.render(), name
