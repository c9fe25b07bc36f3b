"""Typed attribute domains.

The paper (Section 2 and Example 4.1) is explicit that, unlike classical
dependency theory, the static analyses of conditional dependencies *must*
know whether an attribute ranges over a finite domain: a set of CFDs can be
unsatisfiable only by exhausting a finite domain (or by clashing constants).
We therefore model domains as first-class objects that can

* validate membership of a value,
* report whether they are finite, and if so enumerate their values,
* produce "fresh" values outside any given finite avoid-set when infinite
  (needed by the consistency/implication witnesses and by the chase).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, FrozenSet, Iterable, Iterator

from repro.errors import DomainError

__all__ = [
    "Domain",
    "IntDomain",
    "FloatDomain",
    "StringDomain",
    "BoolDomain",
    "EnumDomain",
    "BOOL",
    "INT",
    "FLOAT",
    "STRING",
]


class Domain(ABC):
    """Abstract value domain of an attribute."""

    #: short human-readable name, e.g. ``"int"`` or ``"enum{a,b}"``
    name: str

    #: Python types every value of which is a member: a value whose exact
    #: type is listed passes :meth:`contains` without the call (the bulk
    #: loader checks a column by its cell types first); empty means every
    #: value is asked
    exact_types: FrozenSet[type] = frozenset()

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Return True iff ``value`` is a member of this domain."""

    @property
    @abstractmethod
    def is_finite(self) -> bool:
        """True iff the domain has finitely many values."""

    def values(self) -> Iterator[Any]:
        """Iterate over all values of a finite domain.

        Raises :class:`DomainError` for infinite domains.
        """
        raise DomainError(f"domain {self.name} is not finite; cannot enumerate")

    def size(self) -> int:
        """Number of values in a finite domain (DomainError if infinite)."""
        raise DomainError(f"domain {self.name} is not finite; has no size")

    @abstractmethod
    def fresh_values(self, avoid: Iterable[Any] = ()) -> Iterator[Any]:
        """Yield values of the domain not in ``avoid``.

        For infinite domains the iterator never ends; for finite domains it
        yields the (finitely many) remaining values.
        """

    def fresh_value(self, avoid: Iterable[Any] = ()) -> Any:
        """Return one value outside ``avoid`` or raise if none exists."""
        for value in self.fresh_values(avoid):
            return value
        raise DomainError(f"domain {self.name} exhausted; no value outside avoid set")

    def validate(self, value: Any) -> Any:
        """Return ``value`` if it belongs to the domain, else raise DomainError."""
        if not self.contains(value):
            raise DomainError(f"value {value!r} not in domain {self.name}")
        return value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.name == getattr(other, "name", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class IntDomain(Domain):
    """All Python ints (a countably infinite domain)."""

    name = "int"
    exact_types = frozenset({int})

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    @property
    def is_finite(self) -> bool:
        return False

    def fresh_values(self, avoid: Iterable[Any] = ()) -> Iterator[Any]:
        taken = set(avoid)
        for candidate in itertools.count():
            if candidate not in taken:
                yield candidate


class FloatDomain(Domain):
    """All Python floats (treated as an infinite domain)."""

    name = "float"
    exact_types = frozenset({float, int})

    def contains(self, value: Any) -> bool:
        return isinstance(value, (float, int)) and not isinstance(value, bool)

    @property
    def is_finite(self) -> bool:
        return False

    def fresh_values(self, avoid: Iterable[Any] = ()) -> Iterator[Any]:
        taken = set(avoid)
        for candidate in itertools.count():
            value = float(candidate)
            if value not in taken:
                yield value


class StringDomain(Domain):
    """All Python strings (infinite domain)."""

    name = "string"
    exact_types = frozenset({str})

    def contains(self, value: Any) -> bool:
        return isinstance(value, str)

    @property
    def is_finite(self) -> bool:
        return False

    def fresh_values(self, avoid: Iterable[Any] = ()) -> Iterator[Any]:
        taken = set(avoid)
        for index in itertools.count():
            candidate = f"v{index}"
            if candidate not in taken:
                yield candidate


class EnumDomain(Domain):
    """A finite domain given by an explicit set of values.

    Example 4.1 of the paper uses ``bool``; area codes or country codes in
    CFD pattern tableaux are naturally modelled as enum domains too.
    """

    def __init__(self, values: Iterable[Any], name: str | None = None):
        self._values: FrozenSet[Any] = frozenset(values)
        if not self._values:
            raise DomainError("EnumDomain requires at least one value")
        if name is None:
            rendered = ",".join(sorted(map(repr, self._values)))
            name = f"enum{{{rendered}}}"
        self.name = name

    def contains(self, value: Any) -> bool:
        return value in self._values

    @property
    def is_finite(self) -> bool:
        return True

    def values(self) -> Iterator[Any]:
        # Sort by repr so enumeration order is deterministic across runs.
        return iter(sorted(self._values, key=repr))

    def size(self) -> int:
        return len(self._values)

    def fresh_values(self, avoid: Iterable[Any] = ()) -> Iterator[Any]:
        taken = set(avoid)
        for value in self.values():
            if value not in taken:
                yield value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EnumDomain) and self._values == other._values

    def __hash__(self) -> int:
        return hash(("EnumDomain", self._values))


class BoolDomain(EnumDomain):
    """The two-valued boolean domain of Example 4.1."""

    exact_types = frozenset({bool})

    def __init__(self) -> None:
        super().__init__((True, False), name="bool")

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)


#: Shared singleton instances; domains are immutable so sharing is safe.
BOOL = BoolDomain()
INT = IntDomain()
FLOAT = FloatDomain()
STRING = StringDomain()
