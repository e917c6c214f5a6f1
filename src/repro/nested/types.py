"""Type system for nested datasets (paper Sec. 4.1, Tab. 4).

The paper types nested values recursively: constants carry a primitive type,
data items a struct type over their attributes, and bags/sets a collection
type over a single element type.  This module implements

* the type objects (:class:`PrimitiveType`, :class:`StructType`,
  :class:`BagType`, :class:`SetType`),
* :func:`infer_type` -- the paper's ``tau(.)``,
* :func:`unify` -- least upper bound of two types, used to type datasets
  whose items differ only in nullability or int/double width, and
* :func:`check_same_type` -- the bag/set restriction that all elements share
  one type.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import TypeInferenceError
from repro.nested.values import Bag, DataItem, NestedSet

__all__ = [
    "DataType",
    "PrimitiveType",
    "StructType",
    "BagType",
    "SetType",
    "NULL",
    "BOOLEAN",
    "INT",
    "DOUBLE",
    "STRING",
    "infer_type",
    "unify",
    "unify_all",
    "check_same_type",
]


class DataType:
    """Base class of all nested data types."""

    def accepts(self, other: "DataType") -> bool:
        """Return ``True`` if values of *other* can be used where ``self`` is expected."""
        try:
            return unify(self, other) == self
        except TypeInferenceError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return str(self)


class PrimitiveType(DataType):
    """A constant type such as ``Int`` or ``String``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimitiveType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("primitive", self.name))

    def __str__(self) -> str:
        return self.name


#: The type of ``None``; unifies with every other type.
NULL = PrimitiveType("Null")
BOOLEAN = PrimitiveType("Boolean")
INT = PrimitiveType("Int")
DOUBLE = PrimitiveType("Double")
STRING = PrimitiveType("String")

#: Exact constant types (subclasses take :func:`_primitive_of`).
_PRIMITIVES = {bool: BOOLEAN, int: INT, float: DOUBLE, str: STRING}


class StructType(DataType):
    """The type of a data item: an ordered list of named field types."""

    __slots__ = ("fields",)

    def __init__(self, fields: Iterable[tuple[str, DataType]] = ()):
        self.fields: tuple[tuple[str, DataType], ...] = tuple(fields)

    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def field_type(self, name: str) -> DataType:
        for field_name, field_typ in self.fields:
            if field_name == name:
                return field_typ
        raise TypeInferenceError(f"struct has no field {name!r}: {self}")

    def has_field(self, name: str) -> bool:
        return any(field_name == name for field_name, _ in self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(("struct", self.fields))

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {typ}" for name, typ in self.fields)
        return f"<{inner}>"


class BagType(DataType):
    """The type of a bag; all elements share ``element`` type."""

    __slots__ = ("element",)

    def __init__(self, element: DataType):
        self.element = element

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BagType) and other.element == self.element

    def __hash__(self) -> int:
        return hash(("bag", self.element))

    def __str__(self) -> str:
        return f"{{{{{self.element}}}}}"


class SetType(DataType):
    """The type of a set; all elements share ``element`` type."""

    __slots__ = ("element",)

    def __init__(self, element: DataType):
        self.element = element

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetType) and other.element == self.element

    def __hash__(self) -> int:
        return hash(("set", self.element))

    def __str__(self) -> str:
        return f"{{{self.element}}}"


def infer_type(value: Any) -> DataType:
    """Infer the nested data type of a model value (the paper's ``tau``)."""
    return fold_type(NULL, value)


def fold_type(acc: DataType, value: Any) -> DataType:
    """``unify(acc, tau(value))`` in one walk over *value*.

    Returns *acc* itself -- no new type object -- whenever it already covers
    the value, which is what makes typing a sample of same-shaped items cost
    one navigation per item instead of one type tree per item.  Field order
    (the accumulator's fields first, then the value's new ones), widening
    and the :class:`TypeInferenceError` cases are those of :func:`unify`.
    """
    if value is None:
        return acc
    primitive = _PRIMITIVES.get(type(value))
    if primitive is not None:
        return acc if acc is primitive else unify(acc, primitive)
    if isinstance(value, DataItem):
        if isinstance(acc, StructType):
            return _fold_struct(acc, value)
        if acc == NULL:
            return _fold_struct(StructType(), value)
    elif isinstance(value, (Bag, NestedSet)):
        kind = BagType if isinstance(value, Bag) else SetType
        if isinstance(acc, kind):
            element = acc.element
            for item in value:
                element = fold_type(element, item)
            return acc if element is acc.element else kind(element)
        if acc == NULL:
            return kind(check_same_type(value))
    else:
        return unify(acc, _primitive_of(value))
    raise TypeInferenceError(f"cannot unify types {acc} and {infer_type(value)}")


def _primitive_of(value: Any) -> PrimitiveType:
    """The constant type of a ``bool``/``int``/``float``/``str`` subclass instance."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    raise TypeInferenceError(f"cannot type value of {type(value).__name__!r}")


_MISSING = object()


def _fold_struct(acc: StructType, value: DataItem) -> StructType:
    """Fold a data item into a struct type, field by field in *acc*'s order."""
    fields = acc.fields
    pairs = value.pairs()
    width = len(pairs)
    changed: list[tuple[str, DataType]] | None = None
    seen = 0
    for position, (name, typ) in enumerate(fields):
        if position < width and pairs[position][0] == name:
            # Same-shaped items line up positionally: no lookup by name.
            inner = pairs[position][1]
        else:
            inner = value.get(name, _MISSING)
            if inner is _MISSING:
                continue
        seen += 1
        if inner is None or typ is _PRIMITIVES.get(type(inner)):
            continue
        folded = fold_type(typ, inner)
        if folded is not typ:
            if changed is None:
                changed = list(fields)
            changed[position] = (name, folded)
    if seen < width:
        known = set(acc.field_names())
        changed = list(fields) if changed is None else changed
        changed.extend((name, infer_type(inner)) for name, inner in pairs if name not in known)
    return acc if changed is None else StructType(changed)


def unify(left: DataType, right: DataType) -> DataType:
    """Return the least upper bound of two types.

    ``Null`` unifies with anything, ``Int`` widens to ``Double``, structs
    unify field-wise over the union of their field names (missing fields
    become nullable), and collections unify element-wise.
    """
    if left == right:
        return left
    if left == NULL:
        return right
    if right == NULL:
        return left
    if {left, right} == {INT, DOUBLE}:
        return DOUBLE
    if isinstance(left, StructType) and isinstance(right, StructType):
        names = list(left.field_names())
        names.extend(name for name in right.field_names() if name not in names)
        fields = []
        for name in names:
            left_typ = left.field_type(name) if left.has_field(name) else NULL
            right_typ = right.field_type(name) if right.has_field(name) else NULL
            fields.append((name, unify(left_typ, right_typ)))
        return StructType(fields)
    if isinstance(left, BagType) and isinstance(right, BagType):
        return BagType(unify(left.element, right.element))
    if isinstance(left, SetType) and isinstance(right, SetType):
        return SetType(unify(left.element, right.element))
    raise TypeInferenceError(f"cannot unify types {left} and {right}")


def unify_all(types: Iterable[DataType]) -> DataType:
    """Unify an iterable of types; an empty iterable yields ``Null``."""
    result: DataType = NULL
    for typ in types:
        result = unify(result, typ)
    return result


def check_same_type(values: Iterable[Any]) -> DataType:
    """Check the bag/set restriction that all elements share one type.

    Returns the unified element type; raises :class:`TypeInferenceError` if
    two elements cannot be unified.
    """
    result: DataType = NULL
    for value in values:
        result = fold_type(result, value)
    return result


def type_to_obj(typ: DataType) -> Any:
    """Encode a type as JSON-able data (for provenance persistence)."""
    if isinstance(typ, PrimitiveType):
        return typ.name
    if isinstance(typ, StructType):
        return {"struct": [[name, type_to_obj(field)] for name, field in typ.fields]}
    if isinstance(typ, BagType):
        return {"bag": type_to_obj(typ.element)}
    if isinstance(typ, SetType):
        return {"set": type_to_obj(typ.element)}
    raise TypeInferenceError(f"cannot serialise type {typ!r}")


def type_from_obj(obj: Any) -> DataType:
    """Decode a type previously encoded with :func:`type_to_obj`."""
    if isinstance(obj, str):
        return PrimitiveType(obj)
    if isinstance(obj, dict) and len(obj) == 1:
        kind, payload = next(iter(obj.items()))
        if kind == "struct":
            return StructType((name, type_from_obj(field)) for name, field in payload)
        if kind == "bag":
            return BagType(type_from_obj(payload))
        if kind == "set":
            return SetType(type_from_obj(payload))
    raise TypeInferenceError(f"cannot decode type from {obj!r}")
