"""Schemas of nested datasets and schema-level path enumeration.

The lightweight provenance capture (paper Sec. 5.1) records accessed and
manipulated paths *on a schema level*: once per operator, with ``[pos]``
placeholders instead of concrete positions.  This module wraps
:class:`~repro.nested.types.StructType` with the operations capture and
backtracing need:

* enumerate all schema-level paths (used to mark a whole input schema as
  manipulated when backtracing a ``map``),
* resolve the type a path points at,
* check whether a path is valid for the schema.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import PathEvaluationError, TypeInferenceError
from repro.core.paths import POS, Path
from repro.nested.types import (
    BagType,
    DataType,
    NULL,
    SetType,
    StructType,
    fold_type,
    unify,
)
from repro.nested.values import DataItem

__all__ = ["Schema", "infer_schema"]


class Schema:
    """The schema of a nested dataset: a struct type over its attributes."""

    __slots__ = ("struct",)

    def __init__(self, struct: StructType):
        self.struct = struct

    @classmethod
    def of(cls, **fields: DataType) -> "Schema":
        """Build a schema from keyword field types (test convenience)."""
        return cls(StructType(tuple(fields.items())))

    def attribute_names(self) -> tuple[str, ...]:
        """Return the top-level attribute names."""
        return self.struct.field_names()

    def resolve(self, path: Path) -> DataType:
        """Return the type the schema-level *path* points at.

        Positional steps (concrete or ``[pos]``) descend into the element
        type of bag/set attributes.  Raises :class:`PathEvaluationError` for
        paths that do not fit the schema.
        """
        current: DataType = self.struct
        for step in path:
            if current == NULL:
                # Nullable branch: anything resolves to Null.
                return NULL
            if not isinstance(current, StructType):
                raise PathEvaluationError(
                    f"step {step} descends into non-struct type {current}"
                )
            if not current.has_field(step.name):
                raise PathEvaluationError(f"schema has no attribute {step.name!r} along {path}")
            current = current.field_type(step.name)
            if step.pos is not None:
                if not isinstance(current, (BagType, SetType)):
                    raise PathEvaluationError(
                        f"positional step {step} on non-collection type {current}"
                    )
                current = current.element
        return current

    def contains(self, path: Path) -> bool:
        """Return ``True`` if *path* resolves against this schema."""
        try:
            self.resolve(path)
        except PathEvaluationError:
            return False
        return True

    def paths(self) -> list[Path]:
        """Enumerate all schema-level paths, with ``[pos]`` for collections.

        For every bag/set attribute the enumeration contains both the path to
        the attribute itself and the placeholder path into its elements, so a
        nested struct like ``user_mentions: {{<id_str, name>}}`` contributes
        ``user_mentions``, ``user_mentions[pos]``, ``user_mentions[pos].id_str``
        and ``user_mentions[pos].name``.
        """
        return list(_walk(self.struct, Path()))

    def leaf_paths(self) -> list[Path]:
        """Enumerate only the paths that point at primitive leaf types."""
        return [path for path in self.paths() if not isinstance(self.resolve(path), (StructType, BagType, SetType))]

    def merged_with(self, other: "Schema") -> "Schema":
        """Unify two schemas (used by union and by dataset type inference)."""
        unified = unify(self.struct, other.struct)
        if not isinstance(unified, StructType):
            raise TypeInferenceError(f"schema unification produced non-struct {unified}")
        return Schema(unified)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.struct == other.struct

    def __hash__(self) -> int:
        return hash(self.struct)

    def __str__(self) -> str:
        return str(self.struct)

    def __repr__(self) -> str:
        return f"Schema({self.struct})"


def _walk(struct: StructType, prefix: Path) -> Iterator[Path]:
    for name, typ in struct.fields:
        attr_path = prefix.child(name)
        yield attr_path
        if isinstance(typ, StructType):
            yield from _walk(typ, attr_path)
        elif isinstance(typ, (BagType, SetType)):
            element_path = prefix.child(name, POS)
            yield element_path
            if isinstance(typ.element, StructType):
                yield from _walk(typ.element, element_path)


def infer_schema(items: Iterable[DataItem]) -> Schema:
    """Infer the unified schema of a collection of data items."""
    struct: DataType | None = None
    for item in items:
        struct = fold_type(NULL if struct is None else struct, item)
    if struct is None:
        struct = StructType()
    if not isinstance(struct, StructType):
        raise TypeInferenceError(f"dataset items must be data items, got {struct}")
    return Schema(struct)
