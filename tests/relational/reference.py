"""A relation as a plain insertion-ordered dict of ``Tuple`` objects.

The differential reference for :class:`~repro.relational.instance.RelationInstance`:
set semantics, order and rendering come straight from ``dict`` and
``Tuple`` equality, with no encoding, no row ids and no compaction.
``extend_rows`` is ``add`` in a loop, undone on the first raise.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple


class ReferenceRelation:
    def __init__(self, schema: RelationSchema, tuples: Iterable[Any] = ()) -> None:
        self.schema = schema
        self._tuples: Dict[Tuple, None] = {}
        self.version = 0
        for t in tuples:
            self.add(t)

    def add(self, t: Any) -> Tuple:
        if isinstance(t, Tuple):
            if (t.schema.name, t.schema.attribute_names) != (
                self.schema.name,
                self.schema.attribute_names,
            ):
                raise SchemaError(
                    f"tuple over {t.schema.name} cannot enter instance of {self.schema.name}"
                )
        else:
            t = Tuple(self.schema, t)
        if t not in self._tuples:
            self._tuples[t] = None
            self.version += 1
        return t

    def extend_rows(self, rows: Iterable[Any]) -> int:
        new: List[Tuple] = []
        try:
            for row in rows:
                size = len(self)
                t = self.add(row)
                if len(self) != size:
                    new.append(t)
        except Exception:
            for t in reversed(new):
                self.remove(t)
            raise
        return len(new)

    def remove(self, t: Tuple) -> None:
        del self._tuples[t]
        self.version += 1

    def discard(self, t: Tuple) -> None:
        if t in self._tuples:
            self.remove(t)

    def __contains__(self, t: Tuple) -> bool:
        return t in self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def to_rows(self) -> List[tuple]:
        return [t.values() for t in self._tuples]

    def project_values(self, attributes: List[str]) -> List[tuple]:
        return [t[attributes] for t in self._tuples]

    def active_domain(self, attribute: str) -> List[Any]:
        return list(dict.fromkeys(t[attribute] for t in self._tuples))

    def copy(self) -> "ReferenceRelation":
        clone = ReferenceRelation(self.schema, self._tuples)
        clone.version = len(clone)
        return clone
