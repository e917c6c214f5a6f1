"""Property-based tests for capture and backtracing invariants.

Random small pipelines over random flat-ish datasets check the paper's core
guarantees:

* capture never changes the pipeline result,
* backtraced structural ids are a subset of lineage ids,
* every backtraced id resolves to a real input item, and
* matched output items always have non-empty seeds.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.lineage import LineageQuerier
from repro.core.backtrace.algorithms import Backtracer
from repro.core.treepattern.matcher import match_rows, seed_structure
from repro.core.treepattern.pattern import TreePattern, child
from repro.engine.expressions import col, collect_list, count, sum_
from repro.engine.session import Session

_GROUPS = ("g1", "g2", "g3")
_LABELS = ("a", "b", "c", "d")

_rows = st.lists(
    st.fixed_dictionaries(
        {
            "grp": st.sampled_from(_GROUPS),
            "val": st.integers(min_value=0, max_value=9),
            "label": st.sampled_from(_LABELS),
            "tags": st.lists(st.sampled_from(_LABELS), max_size=3),
        }
    ),
    min_size=1,
    max_size=12,
)

#: Pipeline shapes exercising every operator family.
_SHAPES = ("filter", "select", "flatten", "aggregate", "union", "join-self")


def _build(session: Session, rows, shape: str):
    base = session.create_dataset(rows, "in")
    if shape == "filter":
        return base.filter(col("val") >= 3)
    if shape == "select":
        return base.select(col("grp"), col("label"))
    if shape == "flatten":
        return base.flatten("tags", "tag")
    if shape == "aggregate":
        return base.group_by(col("grp")).agg(
            collect_list(col("label")).alias("labels"),
            sum_(col("val")).alias("total"),
            count(),
        )
    if shape == "union":
        other = session.create_dataset(rows, "in2")
        return base.union(other)
    if shape == "join-self":
        keyed = session.create_dataset(
            [{"g": group, "weight": index} for index, group in enumerate(_GROUPS)], "dims"
        )
        return base.join(keyed, col("grp") == col("g"))
    raise AssertionError(shape)


def _pattern(shape: str) -> TreePattern:
    if shape == "flatten":
        return TreePattern.root(child("tag", equals="a"))
    if shape == "aggregate":
        return TreePattern.root(child("grp", equals="g1"), child("labels"))
    if shape == "join-self":
        return TreePattern.root(child("grp", equals="g2"), child("weight"))
    return TreePattern.root(child("grp", equals="g1"))


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=60, deadline=None)
def test_capture_does_not_change_results(rows, shape):
    plain = _build(Session(), rows, shape).execute(capture=False)
    captured = _build(Session(), rows, shape).execute(capture=True)
    assert sorted(map(repr, plain.items())) == sorted(map(repr, captured.items()))


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=60, deadline=None)
def test_structural_ids_subset_of_lineage_ids(rows, shape):
    execution = _build(Session(), rows, shape).execute(capture=True)
    pattern = _pattern(shape)
    matches = match_rows(pattern, execution.rows())
    seeds = seed_structure(matches)
    sources = Backtracer(execution.store).backtrace(execution.root.oid, seeds)
    structural = {
        item_id for source in sources for item_id in source.structure.ids()
    }
    lineage_sources = LineageQuerier(execution.store).backtrace_ids(
        execution.root.oid, {match.item_id for match in matches}
    )
    lineage = set().union(*(source.ids for source in lineage_sources)) if lineage_sources else set()
    assert structural <= lineage


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=60, deadline=None)
def test_backtraced_ids_resolve_to_input_items(rows, shape):
    execution = _build(Session(), rows, shape).execute(capture=True)
    pattern = _pattern(shape)
    matches = match_rows(pattern, execution.rows())
    sources = Backtracer(execution.store).backtrace(
        execution.root.oid, seed_structure(matches)
    )
    for source in sources:
        known = execution.store.source_items(source.oid)
        for item_id in source.structure.ids():
            assert item_id in known


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=60, deadline=None)
def test_output_ids_unique_per_operator(rows, shape):
    execution = _build(Session(), rows, shape).execute(capture=True)
    for provenance in execution.store.operators():
        output_ids = list(provenance.associations.output_ids())
        assert len(output_ids) == len(set(output_ids))


@given(_rows)
@settings(max_examples=40, deadline=None)
def test_flatten_positions_are_valid(rows):
    execution = _build(Session(), rows, "flatten").execute(capture=True)
    flatten_provenance = next(
        provenance
        for provenance in execution.store.operators()
        if provenance.op_type == "flatten"
    )
    sources = {
        item_id: item
        for item_id, item in execution.store.source_items(1).items()
    }
    for id_in, pos, _id_out in flatten_provenance.associations.records:
        tags = sources[id_in]["tags"]
        assert 1 <= pos <= len(tags)


@given(_rows)
@settings(max_examples=40, deadline=None)
def test_aggregation_positions_align_with_collections(rows):
    """The i-th grouped input id produced the i-th collected element."""
    execution = _build(Session(), rows, "aggregate").execute(capture=True)
    agg_provenance = next(
        provenance
        for provenance in execution.store.operators()
        if provenance.op_type == "aggregate"
    )
    outputs = dict(execution.rows())
    inputs = execution.store.source_items(1)
    for ids_in, id_out in agg_provenance.associations.records:
        labels = outputs[id_out]["labels"]
        assert len(labels) == len(ids_in)
        for position, id_in in enumerate(ids_in, start=1):
            assert labels.at(position) == inputs[id_in]["label"]
