"""Nested value model (paper Sec. 4.1, Tab. 4).

A nested dataset is a list of *data items*.  Each data item is an ordered list
of ``attribute: value`` pairs where a value is a constant, another data item,
a bag (ordered list with duplicates), or a set (ordered list without
duplicates).  This module provides immutable, hashable implementations of
these building blocks:

* :class:`DataItem` -- a struct with ordered, uniquely named attributes,
* :class:`Bag` -- an ordered collection that may contain duplicates,
* :class:`NestedSet` -- an ordered collection without duplicates.

All three coerce plain Python values (``dict`` -> :class:`DataItem`,
``list``/``tuple`` -> :class:`Bag`, ``set``/``frozenset`` -> sorted
:class:`NestedSet`) on construction, and convert back via ``to_python()``.
Being immutable, each keeps what is computed about it once: its hash
(``_hash``) and its type (``_type``, filled by
:func:`repro.nested.types.infer_type` on first use).

Positional access follows the paper and is **1-based** through ``at(pos)``;
the standard Python ``[]`` indexing on collections stays 0-based and is
documented as such.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import DataModelError

__all__ = ["DataItem", "Bag", "NestedSet", "coerce_value", "to_python", "is_constant"]

#: Python types accepted as constants of the data model.
_CONSTANT_TYPES = (int, float, str, bool, type(None))


def is_constant(value: Any) -> bool:
    """Return ``True`` if *value* is a constant of the data model."""
    return isinstance(value, _CONSTANT_TYPES)


def coerce_value(value: Any) -> Any:
    """Coerce a plain Python value into the nested data model.

    ``dict`` becomes :class:`DataItem`, ``list``/``tuple`` become
    :class:`Bag`, ``set``/``frozenset`` become :class:`NestedSet` (sorted by
    repr for determinism).  Model values and constants pass through.

    Dispatches on the exact type first -- what ``json.loads`` and the model
    itself produce; subclasses and other mappings take the ``isinstance``
    chain below, so both routes accept and reject the same inputs.
    """
    kind = type(value)
    if kind in _MODEL_TYPES:
        return value
    if kind is dict:
        return DataItem(value)
    if kind is list:
        return Bag(value)
    if isinstance(value, (DataItem, Bag, NestedSet)) or is_constant(value):
        return value
    if isinstance(value, Mapping):
        return DataItem(value)
    if isinstance(value, (list, tuple)):
        return Bag(value)
    if isinstance(value, (set, frozenset)):
        return NestedSet(sorted(value, key=repr))
    raise DataModelError(
        f"value of type {type(value).__name__!r} does not fit the nested data model"
    )


def to_python(value: Any) -> Any:
    """Convert a model value back into plain Python containers."""
    if isinstance(value, DataItem):
        return value.to_python()
    if isinstance(value, (Bag, NestedSet)):
        return value.to_python()
    return value


class DataItem:
    """An immutable struct of ordered ``attribute: value`` pairs.

    >>> d = DataItem({"user": {"id_str": "lp"}, "retweet_count": 0})
    >>> d["user"]["id_str"]
    'lp'
    >>> list(d.attributes())
    ['user', 'retweet_count']
    """

    __slots__ = ("_pairs", "_index", "_hash", "_type")

    def __init__(self, pairs: Mapping[str, Any] | Iterable[tuple[str, Any]] = (), **kwargs: Any):
        items: Iterable[tuple[str, Any]]
        if type(pairs) is dict or isinstance(pairs, Mapping):
            items = pairs.items()
        else:
            items = pairs
        if kwargs:
            items = [*items, *kwargs.items()]
        seen: dict[str, int] = {}
        coerced: list[tuple[str, Any]] = []
        for name, value in items:
            if (type(name) is not str and not isinstance(name, str)) or not name:
                raise DataModelError(f"attribute name must be a non-empty string, got {name!r}")
            if name in seen:
                raise DataModelError(f"duplicate attribute name {name!r} in data item")
            seen[name] = len(coerced)
            coerced.append((name, value if type(value) in _MODEL_TYPES else coerce_value(value)))
        self._pairs: tuple[tuple[str, Any], ...] = tuple(coerced)
        self._index: dict[str, int] = seen
        self._hash: int | None = None
        self._type: Any = None

    def attributes(self) -> tuple[str, ...]:
        """Return the attribute names in declaration order."""
        return tuple(name for name, _ in self._pairs)

    def pairs(self) -> tuple[tuple[str, Any], ...]:
        """Return the ``(name, value)`` pairs in declaration order."""
        return self._pairs

    def values(self) -> tuple[Any, ...]:
        """Return the attribute values in declaration order."""
        return tuple(value for _, value in self._pairs)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Any:
        try:
            return self._pairs[self._index[name]][1]
        except KeyError:
            raise KeyError(f"data item has no attribute {name!r}") from None

    def get(self, name: str, default: Any = None) -> Any:
        """Return the value of attribute *name* or *default* if absent."""
        position = self._index.get(name)
        if position is None:
            return default
        return self._pairs[position][1]

    def replace(self, **updates: Any) -> "DataItem":
        """Return a copy with the named attributes replaced or appended."""
        updated = dict(self._pairs)
        updated.update(updates)
        return DataItem(updated)

    def without(self, *names: str) -> "DataItem":
        """Return a copy that drops the named attributes."""
        dropped = set(names)
        return DataItem((name, value) for name, value in self._pairs if name not in dropped)

    def project(self, names: Iterable[str]) -> "DataItem":
        """Return a copy restricted to *names*, in the given order."""
        return DataItem((name, self[name]) for name in names)

    def merged_with(self, other: "DataItem") -> "DataItem":
        """Concatenate two items; later attributes win on name clashes."""
        updated = dict(self._pairs)
        updated.update(other.pairs())
        return DataItem(updated)

    def to_python(self) -> dict[str, Any]:
        """Deep-convert into a plain ``dict``."""
        return {name: to_python(value) for name, value in self._pairs}

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataItem):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._pairs)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {value!r}" for name, value in self._pairs)
        return f"<{inner}>"


class _Collection:
    """Shared behaviour of :class:`Bag` and :class:`NestedSet`."""

    __slots__ = ("_items", "_hash", "_type")

    _items: tuple[Any, ...]
    _hash: int | None
    _type: Any

    def at(self, pos: int) -> Any:
        """Return the element at the **1-based** position *pos* (paper style)."""
        if not isinstance(pos, int) or isinstance(pos, bool) or pos < 1:
            raise DataModelError(f"positions are 1-based integers, got {pos!r}")
        try:
            return self._items[pos - 1]
        except IndexError:
            raise DataModelError(
                f"position {pos} out of range for collection of size {len(self._items)}"
            ) from None

    def to_python(self) -> list[Any]:
        """Deep-convert into a plain ``list``."""
        return [to_python(item) for item in self._items]

    def items(self) -> tuple[Any, ...]:
        """Return the elements as a tuple (0-based, Python order)."""
        return self._items

    def __getitem__(self, index: int) -> Any:
        """Standard **0-based** Python indexing (use :meth:`at` for 1-based)."""
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._items == other._items  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._items))
        return self._hash

    def __repr__(self) -> str:
        open_, close = ("{{", "}}") if isinstance(self, Bag) else ("{", "}")
        inner = ", ".join(repr(item) for item in self._items)
        return f"{open_}{inner}{close}"


class Bag(_Collection):
    """An ordered collection with duplicates (the paper's ``{{ ... }}``)."""

    __slots__ = ()

    def __init__(self, items: Iterable[Any] = ()):
        self._items = tuple(
            [item if type(item) in _MODEL_TYPES else coerce_value(item) for item in items]
        )
        self._hash = None
        self._type = None

    def appended(self, item: Any) -> "Bag":
        """Return a new bag with *item* appended."""
        return Bag(self._items + (coerce_value(item),))

    def concat(self, other: "Bag") -> "Bag":
        """Return the concatenation of two bags."""
        return Bag(self._items + tuple(other))


class NestedSet(_Collection):
    """An ordered collection without duplicates (the paper's ``{ ... }``).

    Duplicates in the input are dropped, keeping the first occurrence so the
    positional-access semantics of the data model stay well defined.
    """

    __slots__ = ()

    def __init__(self, items: Iterable[Any] = ()):
        unique: list[Any] = []
        seen: set[Any] = set()
        for item in items:
            coerced = coerce_value(item)
            if coerced not in seen:
                seen.add(coerced)
                unique.append(coerced)
        self._items = tuple(unique)
        self._hash = None
        self._type = None


#: Exact types that already are model values: constants and the three
#: containers.  Anything else (plain containers, subclasses, other
#: mappings) goes through :func:`coerce_value`'s checks.
_MODEL_TYPES = frozenset((str, int, float, bool, type(None), DataItem, Bag, NestedSet))
