"""Type inference the way it was written first: one whole type tree per value.

``infer_type_naive`` builds a fresh ``StructType`` / ``BagType`` / ``SetType``
for every value it sees and unifies afterwards -- the definition the fold in
``repro.nested.types.fold_type`` must keep agreeing with, field order
included.  Test-only: never import it from ``src/``.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import TypeInferenceError
from repro.nested.types import (
    BOOLEAN,
    DOUBLE,
    INT,
    NULL,
    STRING,
    BagType,
    DataType,
    SetType,
    StructType,
    unify_all,
)
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = ["infer_type_naive", "infer_struct_naive"]


def infer_type_naive(value: Any) -> DataType:
    if value is None:
        return NULL
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    if isinstance(value, DataItem):
        return StructType((name, infer_type_naive(item)) for name, item in value.pairs())
    if isinstance(value, Bag):
        return BagType(unify_all(infer_type_naive(item) for item in value))
    if isinstance(value, NestedSet):
        return SetType(unify_all(infer_type_naive(item) for item in value))
    raise TypeInferenceError(f"cannot type value of {type(value).__name__!r}")


def infer_struct_naive(items: Iterable[DataItem]) -> DataType:
    """The struct of a sample: every item typed on its own, then unified."""
    return unify_all(infer_type_naive(item) for item in items)
