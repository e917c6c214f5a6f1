"""Type system for nested datasets (paper Sec. 4.1, Tab. 4).

The paper types nested values recursively: constants carry a primitive type,
data items a struct type over their attributes, and bags/sets a collection
type over a single element type.  This module implements

* the type objects (:class:`PrimitiveType`, :class:`StructType`,
  :class:`BagType`, :class:`SetType`), **hash-consed**: constructing a type
  returns the one live object with that structure, so ``==`` and ``hash``
  are identity.  Each class keeps a weak-valued table (a type lives as long
  as something holds it); minting is lock-guarded, so two threads never make
  two objects for one structure; pickle and ``copy`` rebuild through the
  constructor, i.e. the table;
* :func:`infer_type` -- the paper's ``tau(.)``, computed once per value
  object, bottom-up, and kept in the value's ``_type`` slot beside its
  ``_hash``: typing a value whose children are typed costs its width;
* :func:`unify` -- least upper bound of two types, used to type datasets
  whose items differ only in nullability or int/double width; memoized on
  the left operand (``_joins``), which holds its right operands and dies
  with it, and
* :func:`fold_type` / :func:`check_same_type` -- ``unify`` folded over the
  values' memoized types; the latter is the bag/set restriction that all
  elements share one type.
"""

from __future__ import annotations

import threading
import weakref
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
    """Base class of all nested data types (hash-consed, see the module docstring)."""

    __slots__ = ("_joins", "__weakref__")

    #: Structure -> the live type of this class.  The structure is the
    #: constructor argument and sits in the slot that ``_payload`` names.
    _table: weakref.WeakValueDictionary
    _payload: str

    def accepts(self, other: "DataType") -> bool:
        """Return ``True`` if values of *other* can be used where ``self`` is expected."""
        try:
            return unify(self, other) is self
        except TypeInferenceError:
            return False

    def __reduce__(self) -> tuple:
        return type(self), (getattr(self, self._payload),)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return str(self)


_MINT_LOCK = threading.Lock()


def _mint(cls: type, key: Any) -> Any:
    """The live ``cls`` type of structure *key*, made under the lock if there is none."""
    with _MINT_LOCK:
        typ = cls._table.get(key)
        if typ is None:
            typ = object.__new__(cls)
            setattr(typ, cls._payload, key)
            typ._joins = {}
            cls._table[key] = typ
    return typ


def _interned(cls: type, key: Any) -> Any:
    """The live ``cls`` type of structure *key*: a lock-free hit, else :func:`_mint`."""
    ref = cls._table.data.get(key)  # the table's own key -> weakref dict
    return ref and ref() or _mint(cls, key)


class PrimitiveType(DataType):
    """A constant type such as ``Int`` or ``String``."""

    __slots__ = ("name",)
    _table = weakref.WeakValueDictionary()
    _payload = "name"

    def __new__(cls, name: str) -> "PrimitiveType":
        return _interned(cls, name)

    def __str__(self) -> str:
        return self.name


#: The type of ``None``; unifies with every other type.
NULL = PrimitiveType("Null")
BOOLEAN = PrimitiveType("Boolean")
INT = PrimitiveType("Int")
DOUBLE = PrimitiveType("Double")
STRING = PrimitiveType("String")

#: Exact constant types (subclasses take :func:`_primitive_of`).
_CONSTANTS = {type(None): NULL, bool: BOOLEAN, int: INT, float: DOUBLE, str: STRING}


class StructType(DataType):
    """The type of a data item: an ordered list of named field types."""

    __slots__ = ("fields",)
    _table = weakref.WeakValueDictionary()
    _payload = "fields"

    fields: tuple[tuple[str, DataType], ...]

    def __new__(cls, fields: Iterable[tuple[str, DataType]] = ()) -> "StructType":
        return _interned(cls, tuple([(name, typ) for name, typ in fields]))

    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def field_type(self, name: str) -> DataType:
        for field_name, field_typ in self.fields:
            if field_name == name:
                return field_typ
        raise TypeInferenceError(f"struct has no field {name!r}: {self}")

    def has_field(self, name: str) -> bool:
        return any(field_name == name for field_name, _ in self.fields)

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {typ}" for name, typ in self.fields)
        return f"<{inner}>"


class BagType(DataType):
    """The type of a bag; all elements share ``element`` type."""

    __slots__ = ("element",)
    _table = weakref.WeakValueDictionary()
    _payload = "element"

    def __new__(cls, element: DataType) -> "BagType":
        return _interned(cls, element)

    def __str__(self) -> str:
        return f"{{{{{self.element}}}}}"


class SetType(DataType):
    """The type of a set; all elements share ``element`` type."""

    __slots__ = ("element",)
    _table = weakref.WeakValueDictionary()
    _payload = "element"

    def __new__(cls, element: DataType) -> "SetType":
        return _interned(cls, element)

    def __str__(self) -> str:
        return f"{{{self.element}}}"


_STRUCTS = StructType._table.data


def infer_type(value: Any) -> DataType:
    """Infer the nested data type of a model value (the paper's ``tau``).

    A data item, bag or set is typed once: the type is kept in its
    ``_type`` slot, and its children's kept types are reused.
    """
    return _CONSTANTS.get(type(value)) or _tau(value)


def _tau(value: Any) -> DataType:
    """``infer_type`` of a value that is not an exact constant."""
    if isinstance(value, DataItem):
        typ = value._type
        if typ is None:
            fields = []
            for name, inner in value._pairs:
                fields.append((name, _CONSTANTS.get(type(inner)) or _tau(inner)))
            # _interned(StructType, fields), inlined: this is the hot line.
            fields = tuple(fields)
            ref = _STRUCTS.get(fields)
            typ = value._type = ref and ref() or _mint(StructType, fields)
        return typ
    if isinstance(value, (Bag, NestedSet)):
        typ = value._type
        if typ is None:
            kind = BagType if isinstance(value, Bag) else SetType
            typ = value._type = _interned(kind, check_same_type(value._items))
        return typ
    return _primitive_of(value)


def fold_type(acc: DataType, value: Any) -> DataType:
    """``unify(acc, tau(value))``: *acc* itself whenever it already covers the value."""
    typ = infer_type(value)
    return acc if acc is typ else unify(acc, typ)


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


def unify(left: DataType, right: DataType) -> DataType:
    """Return the least upper bound of two types.

    ``Null`` unifies with anything, ``Int`` widens to ``Double``, structs
    unify field-wise over the union of their field names (missing fields
    become nullable), and collections unify element-wise.  Interned types
    make this a pure function of two identities, memoized in ``left._joins``.
    """
    if left is right or right is NULL:
        return left
    if left is NULL:
        return right
    typ = left._joins.get(right)
    if typ is None:
        typ = left._joins[right] = _join(left, right)
    return typ


def _join(left: DataType, right: DataType) -> DataType:
    if (left is INT and right is DOUBLE) or (left is DOUBLE and right is INT):
        return DOUBLE
    kind = type(left)
    if kind is type(right):
        if kind is StructType:
            rest = dict(right.fields)
            fields = [(name, unify(typ, rest.pop(name, NULL))) for name, typ in left.fields]
            fields.extend(rest.items())  # right's new fields, in right's order
            return StructType(fields)
        if kind is not PrimitiveType:
            return kind(unify(left.element, right.element))
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
    for value in values:  # fold_type, inlined
        typ = _CONSTANTS.get(type(value)) or _tau(value)
        if typ is not result:
            result = unify(result, typ)
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
