"""Unit tests for the column expression language."""

import pytest

from repro.engine.expressions import (
    avg,
    coalesce,
    col,
    collect_list,
    collect_set,
    count,
    lit,
    max_,
    min_,
    struct_,
    sum_,
    as_expression,
    as_operand,
)
from repro.errors import ExpressionError
from repro.nested.values import Bag, DataItem, NestedSet


@pytest.fixture
def tweet() -> DataItem:
    return DataItem(
        {
            "text": "good BTS news",
            "user": {"id_str": "lp", "name": "Lisa Paul"},
            "user_mentions": [{"id_str": "jm"}],
            "retweet_count": 0,
        }
    )


class TestColumn:
    def test_evaluate_nested(self, tweet):
        assert col("user.id_str").evaluate(tweet) == "lp"

    def test_missing_attribute_is_null(self, tweet):
        assert col("nope.deeper").evaluate(tweet) is None

    def test_accessed_paths_schematic(self):
        paths = col("user_mentions[1].id_str").accessed_paths()
        assert {str(path) for path in paths} == {"user_mentions.id_str"}

    def test_output_name_is_last_step(self):
        assert col("user.id_str").output_name() == "id_str"

    def test_empty_path_rejected(self):
        with pytest.raises(Exception):
            col("")

    def test_is_projection(self):
        assert col("a").is_projection()
        assert not (col("a") + 1).is_projection()


class TestOperators:
    def test_comparisons(self, tweet):
        assert (col("retweet_count") == 0).evaluate(tweet)
        assert (col("retweet_count") != 1).evaluate(tweet)
        assert (col("retweet_count") < 5).evaluate(tweet)
        assert (col("retweet_count") <= 0).evaluate(tweet)
        assert (col("retweet_count") >= 0).evaluate(tweet)
        assert not (col("retweet_count") > 0).evaluate(tweet)

    def test_string_operand_is_literal_not_column(self, tweet):
        # Spark semantics: col("user.id_str") == "lp" compares to the constant.
        assert (col("user.id_str") == "lp").evaluate(tweet)

    def test_explicit_column_comparison(self, tweet):
        assert (col("user.id_str") == col("user.id_str")).evaluate(tweet)

    def test_arithmetic(self, tweet):
        assert (col("retweet_count") + 5).evaluate(tweet) == 5
        assert (col("retweet_count") - 1).evaluate(tweet) == -1
        assert (lit(6) * lit(7)).evaluate(tweet) == 42
        assert (lit(7) / lit(2)).evaluate(tweet) == 3.5

    def test_boolean_connectives(self, tweet):
        expr = (col("retweet_count") == 0) & col("text").contains("good")
        assert expr.evaluate(tweet)
        expr = (col("retweet_count") == 1) | col("text").contains("good")
        assert expr.evaluate(tweet)
        assert (~(col("retweet_count") == 1)).evaluate(tweet)

    def test_accessed_paths_union(self):
        expr = (col("a") == col("b")) & col("c.d").is_null()
        assert {str(path) for path in expr.accessed_paths()} == {"a", "b", "c.d"}


class TestPredicateHelpers:
    def test_contains_null_safe(self):
        assert not col("text").contains("x").evaluate(DataItem(text=None))

    def test_startswith(self, tweet):
        assert col("text").startswith("good").evaluate(tweet)
        assert not col("text").startswith("bad").evaluate(tweet)

    def test_isin(self, tweet):
        assert col("user.id_str").isin(["lp", "jm"]).evaluate(tweet)
        assert not col("user.id_str").isin(["xx"]).evaluate(tweet)

    def test_null_checks(self, tweet):
        assert col("missing").is_null().evaluate(tweet)
        assert col("text").is_not_null().evaluate(tweet)

    def test_size(self, tweet):
        assert col("user_mentions").size().evaluate(tweet) == 1
        assert col("missing").size().evaluate(tweet) == 0

    def test_lower(self, tweet):
        assert col("user.name").lower().evaluate(tweet) == "lisa paul"

    def test_coalesce(self, tweet):
        assert coalesce(col("missing"), col("user.id_str")).evaluate(tweet) == "lp"
        assert coalesce(col("missing")).evaluate(tweet) is None


class TestAliasAndStruct:
    def test_alias(self, tweet):
        aliased = col("user.id_str").alias("uid")
        assert aliased.output_name() == "uid"
        assert aliased.evaluate(tweet) == "lp"

    def test_realias_replaces(self):
        assert col("a").alias("x").alias("y").output_name() == "y"

    def test_empty_alias_rejected(self):
        with pytest.raises(ExpressionError):
            col("a").alias("")

    def test_struct_builds_item(self, tweet):
        built = struct_(id_str=col("user.id_str"), n=col("retweet_count")).evaluate(tweet)
        assert built == DataItem(id_str="lp", n=0)

    def test_struct_manipulation_pairs_nested(self):
        from repro.core.paths import Path

        pairs = struct_(id_str=col("id_str"), name=col("name")).manipulation_pairs(
            Path().child("user")
        )
        rendered = [(str(a), str(b)) for a, b in pairs]
        assert rendered == [("id_str", "user.id_str"), ("name", "user.name")]

    def test_empty_struct_rejected(self):
        with pytest.raises(ExpressionError):
            struct_()

    def test_derived_expression_needs_alias(self):
        with pytest.raises(ExpressionError, match="alias"):
            (col("a") + 1).output_name()

    def test_literal_has_no_pairs(self):
        from repro.core.paths import Path

        assert lit(5).manipulation_pairs(Path().child("x")) == []


class TestCoercionHelpers:
    def test_as_expression_string_is_column(self, tweet):
        assert as_expression("user.id_str").evaluate(tweet) == "lp"

    def test_as_operand_string_is_literal(self, tweet):
        assert as_operand("user.id_str").evaluate(tweet) == "user.id_str"


class TestAggregates:
    def test_scalar_aggregates(self):
        values = [1, 2, None, 3]
        assert count().apply(values) == 4
        assert count(col("x")).apply(values) == 3
        assert sum_(col("x")).apply(values) == 6
        assert min_(col("x")).apply(values) == 1
        assert max_(col("x")).apply(values) == 3
        assert avg(col("x")).apply(values) == 2.0

    def test_empty_group_edge_cases(self):
        assert sum_(col("x")).apply([None]) is None
        assert min_(col("x")).apply([]) is None
        assert avg(col("x")).apply([None]) is None
        assert count().apply([]) == 0

    def test_collect_list_preserves_order_and_duplicates(self):
        collected = collect_list(col("x")).apply(["b", "a", "b"])
        assert isinstance(collected, Bag)
        assert collected.items() == ("b", "a", "b")

    def test_collect_set_dedupes(self):
        collected = collect_set(col("x")).apply(["b", "a", "b"])
        assert isinstance(collected, NestedSet)
        assert collected.items() == ("b", "a")

    def test_nested_flag(self):
        assert collect_list(col("x")).is_nested
        assert not sum_(col("x")).is_nested

    def test_output_names(self):
        assert sum_(col("val")).output_name() == "sum_val"
        assert sum_(col("val")).alias("total").output_name() == "total"
        assert count().output_name() == "count"

    def test_accessed_paths(self):
        assert {str(p) for p in collect_list(col("a.b")).accessed_paths()} == {"a.b"}
