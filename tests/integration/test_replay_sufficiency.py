"""Replay sufficiency: the backtraced provenance reproduces the queried data.

The paper's central accuracy claim (Sec. 2): the dark-green (contributing)
items, together with the medium-green (influencing) values the operators
read, *suffice to reproduce* the queried result items.  These tests make
that operational: they reduce every input item to its backtracing tree (the
minimal witness), re-run the pipeline over only the witnesses, and check
that the provenance question still matches.
"""

from repro.engine.expressions import col, collect_list, struct_
from repro.engine.session import Session
from repro.core.treepattern.matcher import match_rows
from repro.core.treepattern.parser import parse_pattern
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)


def _witnesses(provenance):
    """Reduced input items per source name."""
    by_source: dict[str, list] = {}
    for source in provenance.sources:
        by_source.setdefault(source.name, [])
        for entry in source:
            by_source[source.name].append(entry.reduced_item())
    return by_source


class TestRunningExampleReplay:
    def test_witnesses_are_strict_reductions(self, captured_example, example_pattern):
        provenance = query_provenance(captured_example, example_pattern)
        entry = provenance.sources[0].entry(2)
        witness = entry.reduced_item()
        # Only the green attributes of Tab. 1 survive.
        assert set(witness.attributes()) == {"text", "user", "retweet_count"}
        assert "user_mentions" not in witness

    def test_replay_reproduces_queried_items(self, captured_example, example_pattern):
        provenance = query_provenance(captured_example, example_pattern)
        witnesses = _witnesses(provenance)["tweets.json"]
        assert len(witnesses) == 2

        replay_session = Session()
        replay = build_running_example(replay_session, witnesses)
        execution = replay.execute(capture=True)
        matches = match_rows(parse_pattern(example_pattern), execution.rows())
        assert matches, "replay over the witnesses no longer satisfies the query"
        # The reproduced row holds exactly the duplicate Hello World texts.
        [match] = matches
        texts = [tweet["text"] for tweet in match.item["tweets"]]
        assert texts == ["Hello World", "Hello World"]


class TestFlattenReplay:
    def test_mention_witness_keeps_only_matched_position(self, session):
        data = [
            {
                "text": "hi",
                "user_mentions": [
                    {"id_str": "aa"},
                    {"id_str": "bb"},
                    {"id_str": "cc"},
                ],
            }
        ]
        ds = session.create_dataset(data, "in").flatten("user_mentions", "m_user")
        execution = ds.execute(capture=True)
        provenance = query_provenance(execution, 'root{/m_user{/id_str="bb"}}')
        entry = provenance.sources[0].entry(1)
        witness = entry.reduced_item()
        assert witness["user_mentions"].to_python() == [{"id_str": "bb"}]

        # Replaying the flatten over the witness still yields the match.
        replay = Session().create_dataset([witness], "in").flatten(
            "user_mentions", "m_user"
        )
        out = replay.collect()
        assert any(item["m_user"]["id_str"] == "bb" for item in out)


class TestAggregationReplay:
    def test_group_witnesses_rebuild_queried_collection(self):
        session = Session()
        data = [
            {"grp": "g", "tag": "x", "noise": 1},
            {"grp": "g", "tag": "y", "noise": 2},
            {"grp": "h", "tag": "z", "noise": 3},
        ]
        ds = (
            session.create_dataset(data, "in")
            .group_by(col("grp"))
            .agg(collect_list(col("tag")).alias("tags"))
        )
        execution = ds.execute(capture=True)
        provenance = query_provenance(execution, 'root{/grp="g", /tags="y"}')
        [source] = provenance.sources
        witnesses = [entry.reduced_item() for entry in source]
        # Only the y member is in the provenance; its witness drops noise.
        assert witnesses == [type(witnesses[0])(grp="g", tag="y")]

        replay = (
            Session()
            .create_dataset(witnesses, "in")
            .group_by(col("grp"))
            .agg(collect_list(col("tag")).alias("tags"))
        )
        [row] = replay.collect()
        assert list(row["tags"]) == ["y"]


class TestStructReplay:
    def test_struct_projection_witness(self, session):
        data = [{"user": {"id_str": "lp", "name": "Lisa", "bio": "x" * 100}, "extra": 1}]
        ds = session.create_dataset(data, "in").select(
            struct_(id_str=col("user.id_str")).alias("u")
        )
        execution = ds.execute(capture=True)
        provenance = query_provenance(execution, 'root{/u{/id_str="lp"}}')
        witness = provenance.sources[0].entry(1).reduced_item()
        assert witness.to_python() == {"user": {"id_str": "lp"}}
        replay = Session().create_dataset([witness], "in").select(
            struct_(id_str=col("user.id_str")).alias("u")
        )
        assert replay.collect()[0]["u"]["id_str"] == "lp"
