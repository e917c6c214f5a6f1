"""Type inference by definition, over plain data: none of the code under test.

``infer_type_naive`` types a value the way Sec. 4.1 defines ``tau`` and
``unify_naive`` takes least upper bounds, both over the JSON-able shapes that
``repro.nested.types.type_to_obj`` writes: ``"Int"``, ``{"struct": [[name,
type], ...]}``, ``{"bag": type}``, ``{"set": type}``.  Every value is typed on
its own, every time -- no interning, no memo -- and a sample is unified
afterwards.  ``repro.nested.types`` (hash-consed types, ``tau`` memoized on
each value, ``unify`` memoized) must produce the same shapes, field order
included, and raise :class:`TypeInferenceError` with the same message on a
single-fault input.  Test-only: never import it from ``src/``.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import TypeInferenceError
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = ["infer_type_naive", "infer_struct_naive", "unify_naive", "unify_all_naive"]

Shape = Any  # a str, or a one-key dict as ``type_to_obj`` writes it


def infer_type_naive(value: Any) -> Shape:
    if value is None:
        return "Null"
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Int"
    if isinstance(value, float):
        return "Double"
    if isinstance(value, str):
        return "String"
    if isinstance(value, DataItem):
        return {"struct": [[name, infer_type_naive(inner)] for name, inner in value.pairs()]}
    if isinstance(value, Bag):
        return {"bag": unify_all_naive(infer_type_naive(inner) for inner in value)}
    if isinstance(value, NestedSet):
        return {"set": unify_all_naive(infer_type_naive(inner) for inner in value)}
    raise TypeInferenceError(f"cannot type value of {type(value).__name__!r}")


def unify_naive(left: Shape, right: Shape) -> Shape:
    if left == right:
        return left
    if left == "Null":
        return right
    if right == "Null":
        return left
    if isinstance(left, str) and isinstance(right, str) and {left, right} == {"Int", "Double"}:
        return "Double"
    if isinstance(left, dict) and isinstance(right, dict) and left.keys() == right.keys():
        ((kind, left_inner),) = left.items()
        right_inner = right[kind]
        if kind != "struct":
            return {kind: unify_naive(left_inner, right_inner)}
        lefts, rights = dict(left_inner), dict(right_inner)
        names = list(lefts) + [name for name in rights if name not in lefts]
        return {
            "struct": [
                [name, unify_naive(lefts.get(name, "Null"), rights.get(name, "Null"))]
                for name in names
            ]
        }
    raise TypeInferenceError(f"cannot unify types {render(left)} and {render(right)}")


def unify_all_naive(shapes: Iterable[Shape]) -> Shape:
    result: Shape = "Null"
    for shape in shapes:
        result = unify_naive(result, shape)
    return result


def infer_struct_naive(items: Iterable[DataItem]) -> Shape:
    """The struct of a sample: every item typed on its own, then unified."""
    items = list(items)
    return unify_all_naive(infer_type_naive(item) for item in items) if items else {"struct": []}


def render(shape: Shape) -> str:
    """A shape spelled the way a type prints (``<a: Int>``, ``{{Int}}``, ``{Int}``)."""
    if isinstance(shape, str):
        return shape
    ((kind, inner),) = shape.items()
    if kind == "struct":
        return "<" + ", ".join(f"{name}: {render(field)}" for name, field in inner) + ">"
    return f"{{{{{render(inner)}}}}}" if kind == "bag" else f"{{{render(inner)}}}"
