"""Column expressions with accessed-path tracking.

The provenance capture rules (paper Tab. 5) need to know, per operator, which
schema-level paths a predicate or projection *accesses* (the set ``A``) and
which input paths a projection copies to which output paths (the mapping
``M``).  Rather than parsing user code, the engine exposes a small expression
language -- in the spirit of SparkSQL's ``Column`` -- whose every node can
report its accessed paths:

>>> expr = (col("retweet_count") == 0) & col("user.id_str").is_not_null()
>>> sorted(str(p) for p in expr.accessed_paths())
['retweet_count', 'user.id_str']

Projections additionally report *manipulation pairs* ``(input path, output
path)``: a plain column projection copies a subtree, a ``struct`` constructor
nests its fields under a new attribute.  Computed expressions (comparisons,
arithmetic) derive new values; following the spirit of the select rule we map
each accessed path to the output attribute so backtracing can still reach the
inputs, and mark the expression as derived.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExpressionError
from repro.core.paths import Path, parse_path
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = [
    "Expression",
    "ColumnExpr",
    "LiteralExpr",
    "UnaryExpr",
    "BinaryExpr",
    "FunctionExpr",
    "StructExpr",
    "AliasedExpr",
    "AggregateExpr",
    "col",
    "lit",
    "struct_",
    "coalesce",
    "count",
    "sum_",
    "min_",
    "max_",
    "avg",
    "collect_list",
    "collect_set",
    "as_expression",
    "as_operand",
]


# -- named operand functions --------------------------------------------------
#
# The semantics of every derived expression, one named function each: a
# traceback through an expression then names the operation that failed.


def _logical_and(a: Any, b: Any) -> bool:
    return bool(a) and bool(b)


def _logical_or(a: Any, b: Any) -> bool:
    return bool(a) or bool(b)


def _logical_not(a: Any) -> bool:
    return not bool(a)


def _is_null(a: Any) -> bool:
    return a is None


def _is_not_null(a: Any) -> bool:
    return a is not None


def _contains(a: Any, b: Any) -> bool:
    return b in a if a is not None else False


def _startswith(a: Any, b: Any) -> bool:
    return a.startswith(b) if isinstance(a, str) else False


def _isin(a: Any, b: Any) -> bool:
    return a in b


def _collection_size(a: Any) -> int:
    return 0 if a is None else len(a)


def _lowercase(a: Any) -> Any:
    return a.lower() if isinstance(a, str) else a


def _first_non_null(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


def as_expression(value: Any) -> "Expression":
    """Coerce *value* into an expression.

    Strings become column references (``"user.id_str"``), expressions pass
    through, and everything else becomes a literal.
    """
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return ColumnExpr(parse_path(value))
    return LiteralExpr(value)


def as_operand(value: Any) -> "Expression":
    """Coerce an *operand* of a comparison or function into an expression.

    Unlike :func:`as_expression`, plain strings become **literals** here:
    ``col("text") == "good"`` compares against the constant ``"good"``,
    matching SparkSQL's Column semantics.  Pass ``col(...)`` explicitly to
    compare two columns.
    """
    if isinstance(value, Expression):
        return value
    return LiteralExpr(value)


class Expression:
    """Base class of all scalar expressions."""

    def evaluate(self, item: DataItem) -> Any:
        """Evaluate the expression against one data item."""
        raise NotImplementedError

    def accessed_paths(self) -> set[Path]:
        """Return the schema-level paths this expression reads."""
        raise NotImplementedError

    def output_name(self) -> str:
        """Return the default output attribute name when selected."""
        raise ExpressionError(f"expression {self} needs an alias to be selected")

    def is_projection(self) -> bool:
        """Return ``True`` if the expression copies a subtree verbatim."""
        return False

    def manipulation_pairs(self, out: Path) -> list[tuple[Path, Path]]:
        """Return ``(input path, output path)`` pairs when written to *out*."""
        return [(path, out) for path in sorted(self.accessed_paths(), key=str)]

    def alias(self, name: str) -> "AliasedExpr":
        """Name the expression's output attribute."""
        return AliasedExpr(self, name)

    # -- operator sugar ----------------------------------------------------

    def __eq__(self, other: Any) -> "BinaryExpr":  # type: ignore[override]
        return BinaryExpr("==", self, as_operand(other), operator.eq)

    def __ne__(self, other: Any) -> "BinaryExpr":  # type: ignore[override]
        return BinaryExpr("!=", self, as_operand(other), operator.ne)

    def __lt__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("<", self, as_operand(other), operator.lt)

    def __le__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("<=", self, as_operand(other), operator.le)

    def __gt__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr(">", self, as_operand(other), operator.gt)

    def __ge__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr(">=", self, as_operand(other), operator.ge)

    def __add__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("+", self, as_operand(other), operator.add)

    def __sub__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("-", self, as_operand(other), operator.sub)

    def __mul__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("*", self, as_operand(other), operator.mul)

    def __truediv__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("/", self, as_operand(other), operator.truediv)

    def __and__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("and", self, as_operand(other), _logical_and)

    def __or__(self, other: Any) -> "BinaryExpr":
        return BinaryExpr("or", self, as_operand(other), _logical_or)

    def __invert__(self) -> "UnaryExpr":
        return UnaryExpr("not", self, _logical_not)

    def __hash__(self) -> int:  # expressions are identity-hashed
        return id(self)

    # -- convenience predicates ---------------------------------------------

    def is_null(self) -> "UnaryExpr":
        return UnaryExpr("is_null", self, _is_null)

    def is_not_null(self) -> "UnaryExpr":
        return UnaryExpr("is_not_null", self, _is_not_null)

    def contains(self, needle: Any) -> "BinaryExpr":
        return BinaryExpr("contains", self, as_operand(needle), _contains)

    def startswith(self, prefix: Any) -> "BinaryExpr":
        return BinaryExpr("startswith", self, as_operand(prefix), _startswith)

    def isin(self, candidates: Iterable[Any]) -> "BinaryExpr":
        frozen = tuple(candidates)
        return BinaryExpr("isin", self, LiteralExpr(frozen), _isin)

    def size(self) -> "UnaryExpr":
        """Collection size; ``None`` counts as 0 (missing nested list)."""
        return UnaryExpr("size", self, _collection_size)

    def lower(self) -> "UnaryExpr":
        return UnaryExpr("lower", self, _lowercase)


class ColumnExpr(Expression):
    """A reference to an attribute path, e.g. ``col("user.id_str")``."""

    def __init__(self, path: Path):
        if path.is_empty():
            raise ExpressionError("column reference needs a non-empty path")
        self.path = path

    def evaluate(self, item: DataItem) -> Any:
        if not self.path.resolves_in(item):
            # Missing attributes evaluate to null, as in SparkSQL reads of
            # heterogeneous JSON.
            return None
        return self.path.evaluate(item)

    def accessed_paths(self) -> set[Path]:
        return {self.path.schematic()}

    def output_name(self) -> str:
        return self.path.last().name

    def is_projection(self) -> bool:
        return True

    def manipulation_pairs(self, out: Path) -> list[tuple[Path, Path]]:
        return [(self.path.schematic(), out)]

    def __str__(self) -> str:
        return f"col({self.path})"


class LiteralExpr(Expression):
    """A constant value."""

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, item: DataItem) -> Any:
        return self.value

    def accessed_paths(self) -> set[Path]:
        return set()

    def manipulation_pairs(self, out: Path) -> list[tuple[Path, Path]]:
        return []

    def __str__(self) -> str:
        return f"lit({self.value!r})"


class UnaryExpr(Expression):
    """A derived expression over one operand."""

    def __init__(self, name: str, operand: Expression, fn: Callable[[Any], Any]):
        self.name = name
        self.operand = operand
        self.fn = fn

    def evaluate(self, item: DataItem) -> Any:
        return self.fn(self.operand.evaluate(item))

    def accessed_paths(self) -> set[Path]:
        return self.operand.accessed_paths()

    def __str__(self) -> str:
        return f"{self.name}({self.operand})"


class BinaryExpr(Expression):
    """A derived expression over two operands."""

    def __init__(self, name: str, left: Expression, right: Expression, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.left = left
        self.right = right
        self.fn = fn

    def evaluate(self, item: DataItem) -> Any:
        return self.fn(self.left.evaluate(item), self.right.evaluate(item))

    def accessed_paths(self) -> set[Path]:
        return self.left.accessed_paths() | self.right.accessed_paths()

    def __str__(self) -> str:
        return f"({self.left} {self.name} {self.right})"


class FunctionExpr(Expression):
    """A named n-ary function over expressions (e.g. ``coalesce``)."""

    def __init__(self, name: str, operands: Sequence[Expression], fn: Callable[..., Any]):
        self.name = name
        self.operands = tuple(operands)
        self.fn = fn

    def evaluate(self, item: DataItem) -> Any:
        return self.fn(*(operand.evaluate(item) for operand in self.operands))

    def accessed_paths(self) -> set[Path]:
        paths: set[Path] = set()
        for operand in self.operands:
            paths |= operand.accessed_paths()
        return paths

    def __str__(self) -> str:
        inner = ", ".join(str(operand) for operand in self.operands)
        return f"{self.name}({inner})"


class StructExpr(Expression):
    """Constructs a nested data item from named sub-expressions.

    Used by the running example's operator 8: ``<id_str, name> -> user``.
    Each field's manipulation pairs are nested under the struct's output
    path, so backtracing can undo the nesting field by field.
    """

    def __init__(self, fields: Sequence[tuple[str, Expression]]):
        if not fields:
            raise ExpressionError("struct expression needs at least one field")
        self.fields = tuple(fields)

    def evaluate(self, item: DataItem) -> DataItem:
        return DataItem((name, expr.evaluate(item)) for name, expr in self.fields)

    def accessed_paths(self) -> set[Path]:
        paths: set[Path] = set()
        for _, expr in self.fields:
            paths |= expr.accessed_paths()
        return paths

    def is_projection(self) -> bool:
        return all(expr.is_projection() for _, expr in self.fields)

    def manipulation_pairs(self, out: Path) -> list[tuple[Path, Path]]:
        pairs: list[tuple[Path, Path]] = []
        for name, expr in self.fields:
            pairs.extend(expr.manipulation_pairs(out.child(name)))
        return pairs

    def __str__(self) -> str:
        inner = ", ".join(f"{name}={expr}" for name, expr in self.fields)
        return f"struct({inner})"


class AliasedExpr(Expression):
    """Wraps an expression with an explicit output attribute name."""

    def __init__(self, inner: Expression, name: str):
        if not name:
            raise ExpressionError("alias needs a non-empty name")
        self.inner = inner
        self.name = name

    def evaluate(self, item: DataItem) -> Any:
        return self.inner.evaluate(item)

    def accessed_paths(self) -> set[Path]:
        return self.inner.accessed_paths()

    def output_name(self) -> str:
        return self.name

    def is_projection(self) -> bool:
        return self.inner.is_projection()

    def manipulation_pairs(self, out: Path) -> list[tuple[Path, Path]]:
        return self.inner.manipulation_pairs(out)

    def alias(self, name: str) -> "AliasedExpr":
        return AliasedExpr(self.inner, name)

    def __str__(self) -> str:
        return f"{self.inner} as {self.name}"


def col(path: str) -> ColumnExpr:
    """Reference an attribute path, e.g. ``col("user.id_str")``."""
    return ColumnExpr(parse_path(path))


def lit(value: Any) -> LiteralExpr:
    """Wrap a constant value as an expression."""
    return LiteralExpr(value)


def struct_(**fields: Any) -> StructExpr:
    """Construct a nested struct: ``struct_(id_str=col("id_str"), ...)``."""
    return StructExpr([(name, as_expression(expr)) for name, expr in fields.items()])


def coalesce(*operands: Any) -> FunctionExpr:
    """Return the first non-null operand value."""
    return FunctionExpr("coalesce", [as_expression(op) for op in operands], _first_non_null)


# ---------------------------------------------------------------------------
# Aggregate expressions (paper Sec. 5.0.3: A_c scalar vs A_B nested)
# ---------------------------------------------------------------------------


class AggregateExpr:
    """An aggregation function over a column within each group.

    ``is_nested`` distinguishes the paper's ``A_B`` aggregates (returning
    nested collections, e.g. ``collect_list``) from the scalar ``A_c``
    aggregates (``count``, ``sum``, ...).  Nested aggregates preserve the
    positional correspondence between input items and output elements, which
    the aggregation backtracing (Alg. 4) relies on.
    """

    def __init__(
        self,
        name: str,
        column: Expression,
        fn: Callable[[list[Any]], Any],
        is_nested: bool,
        output: str | None = None,
    ):
        self.name = name
        self.column = column
        self.fn = fn
        self.is_nested = is_nested
        self.output = output

    def alias(self, name: str) -> "AggregateExpr":
        """Name the aggregate's output attribute."""
        return AggregateExpr(self.name, self.column, self.fn, self.is_nested, name)

    def output_name(self) -> str:
        if self.output:
            return self.output
        return f"{self.name}_{self.column.output_name()}"

    def accessed_paths(self) -> set[Path]:
        return self.column.accessed_paths()

    def input_path(self) -> Path:
        """Return the single aggregated input path (for the M mapping)."""
        paths = sorted(self.accessed_paths(), key=str)
        if len(paths) == 1:
            return paths[0]
        # Derived aggregation input: fall back to the output name; M then
        # maps each accessed path to the aggregate output via accessed_paths.
        return Path()

    def apply(self, values: list[Any]) -> Any:
        return self.fn(values)

    def __str__(self) -> str:
        return f"{self.name}({self.column}) as {self.output_name()}"


def _numeric(values: list[Any]) -> list[Any]:
    return [value for value in values if value is not None]


def _count_all(values: list[Any]) -> int:
    return len(values)


def _count_non_null(values: list[Any]) -> int:
    return len(_numeric(values))


def _sum_non_null(values: list[Any]) -> Any:
    numeric = _numeric(values)
    return sum(numeric) if numeric else None


def _min_non_null(values: list[Any]) -> Any:
    return min(_numeric(values), default=None)


def _max_non_null(values: list[Any]) -> Any:
    return max(_numeric(values), default=None)


def _mean_non_null(values: list[Any]) -> Any:
    numeric = _numeric(values)
    return sum(numeric) / len(numeric) if numeric else None


def count(column: Any = None) -> AggregateExpr:
    """Count items per group (``count()``) or non-null values of a column."""
    if column is None:
        return AggregateExpr("count", LiteralExpr(1), _count_all, is_nested=False, output="count")
    return AggregateExpr("count", as_expression(column), _count_non_null, is_nested=False)


def sum_(column: Any) -> AggregateExpr:
    """Sum of non-null values per group."""
    return AggregateExpr("sum", as_expression(column), _sum_non_null, is_nested=False)


def min_(column: Any) -> AggregateExpr:
    """Minimum non-null value per group."""
    return AggregateExpr("min", as_expression(column), _min_non_null, is_nested=False)


def max_(column: Any) -> AggregateExpr:
    """Maximum non-null value per group."""
    return AggregateExpr("max", as_expression(column), _max_non_null, is_nested=False)


def avg(column: Any) -> AggregateExpr:
    """Arithmetic mean of non-null values per group."""
    return AggregateExpr("avg", as_expression(column), _mean_non_null, is_nested=False)


def collect_list(column: Any) -> AggregateExpr:
    """Collect the column values of a group into a nested bag (``A_B``)."""
    return AggregateExpr("collect_list", as_expression(column), Bag, is_nested=True)


def collect_set(column: Any) -> AggregateExpr:
    """Collect the distinct column values of a group into a nested set (``A_B``)."""
    return AggregateExpr("collect_set", as_expression(column), NestedSet, is_nested=True)
