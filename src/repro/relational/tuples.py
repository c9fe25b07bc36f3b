"""Immutable tuples over a relation schema.

``Tuple`` is a value type: hashable, comparable, with projection ``t[X]`` as
in the paper's notation.  Values are validated against attribute domains at
construction time so that dirty *types* never enter the system — dirty
*values* (the paper's concern) of course do.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Iterator, Sequence, Tuple as PyTuple

from repro.errors import DomainError, SchemaError
from repro.relational.schema import RelationSchema

__all__ = ["Tuple"]


def row_values(schema: RelationSchema, row: Any) -> PyTuple[Any, ...]:
    """``row``'s values as a tuple.  A row that is not a sequence of
    values (``1``, ``None``, ``"ab"``) is a :class:`SchemaError` naming
    its type, not a ``TypeError`` — or a row of characters."""
    if not isinstance(row, (str, bytes)):
        try:
            return tuple(row)
        except TypeError:
            if hasattr(row, "__iter__"):
                raise
    raise SchemaError(
        f"row for {schema.name} must be a mapping or a sequence of "
        f"values, got {type(row).__name__}"
    )


def _mapping_values(
    schema: RelationSchema, row: Mapping[str, Any]
) -> PyTuple[Any, ...]:
    """``row``'s values in schema order; a missing or an unknown attribute
    is a :class:`SchemaError` naming them (missing ones first)."""
    missing = [a for a in schema.attribute_names if a not in row]
    if missing:
        raise SchemaError(f"tuple for {schema.name} missing attributes {missing}")
    extra = [k for k in row if k not in schema]
    if extra:
        raise SchemaError(f"tuple for {schema.name} has unknown attributes {extra}")
    return tuple(row[a] for a in schema.attribute_names)


class Tuple:
    """An immutable tuple conforming to a :class:`RelationSchema`."""

    __slots__ = ("schema", "_values", "_hash")

    def __init__(
        self,
        schema: RelationSchema,
        values: Mapping[str, Any] | Sequence[Any],
        validate: bool = True,
    ):
        self.schema = schema
        names = schema.attribute_names
        if type(values) is dict and len(values) == len(names):
            # a plain dict is read in one pass; any other mapping (a
            # ``Counter``, a ``defaultdict``) could make up a missing cell
            try:
                ordered = tuple(map(values.__getitem__, names))
            except KeyError:
                ordered = _mapping_values(schema, values)  # raises: one is missing
        elif isinstance(values, Mapping):
            ordered = _mapping_values(schema, values)
        else:
            ordered = row_values(schema, values)
            if len(ordered) != len(names):
                raise SchemaError(
                    f"tuple for {schema.name} has {len(ordered)} values, "
                    f"schema has {len(schema)} attributes"
                )
        if validate:
            for attr, value in zip(schema.attributes, ordered):
                domain = attr.domain
                if type(value) not in domain.exact_types and not domain.contains(value):
                    raise DomainError(
                        f"value {value!r} for {schema.name}.{attr.name} "
                        f"not in domain {domain.name}"
                    )
        self._values: PyTuple[Any, ...] = ordered
        # repro: allow[REP001] — cached __hash__ value; placement-only,
        # set/dict iteration over tuples is sorted wherever it reaches output
        self._hash = hash((schema.name, ordered))

    @classmethod
    def trusted(cls, schema: RelationSchema, ordered: PyTuple[Any, ...]) -> "Tuple":
        """A tuple over values already in schema order, width and domain.

        The column store's batch materialization builds one of these per
        row from decoded columns; anything arriving from outside goes
        through the checking constructor.
        """
        t = object.__new__(cls)
        t.schema = schema
        t._values = ordered
        # repro: allow[REP001] — cached __hash__ value; placement-only,
        # set/dict iteration over tuples is sorted wherever it reaches output
        t._hash = hash((schema.name, ordered))
        return t

    def __getitem__(self, attributes: str | Sequence[str]) -> Any:
        """Projection: ``t["A"]`` is a value, ``t[["A","B"]]`` a value tuple."""
        if isinstance(attributes, str):
            return self._values[self.schema.index_of(attributes)]
        values = self._values
        return tuple(
            values[p] for p in self.schema.projection_positions(attributes)
        )

    def values(self) -> PyTuple[Any, ...]:
        """All values in schema attribute order."""
        return self._values

    def as_dict(self) -> Dict[str, Any]:
        """Attribute-name → value mapping (a fresh dict)."""
        return dict(zip(self.schema.attribute_names, self._values))

    def replace(self, **changes: Any) -> "Tuple":
        """A copy of this tuple with the given attributes updated.

        Only the changed cells are validated against their domains — every
        other value was already validated when this tuple was built.  Cell
        updates are the hot path of the delta engine and the U-repair loop,
        so the copy is assembled positionally.
        """
        values = list(self._values)
        for attr, value in changes.items():
            try:
                position = self.schema.index_of(attr)
            except Exception:
                raise SchemaError(
                    f"relation {self.schema.name} has no attribute {attr!r}"
                ) from None
            domain = self.schema.attributes[position].domain
            if not domain.contains(value):
                raise DomainError(
                    f"value {value!r} for {self.schema.name}.{attr} "
                    f"not in domain {domain.name}"
                )
            values[position] = value
        return Tuple.trusted(self.schema, tuple(values))

    def agrees_with(self, other: "Tuple", attributes: Sequence[str]) -> bool:
        """True iff both tuples have equal projections on ``attributes``."""
        return self[attributes] == other[list(attributes)]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.schema.name == other.schema.name
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a}={v!r}" for a, v in zip(self.schema.attribute_names, self._values)
        )
        return f"{self.schema.name}({inner})"
