"""Conditional functional dependencies: syntax and semantics (paper §2.1).

A CFD ϕ = (R: X → Y, Tp) couples an embedded FD X → Y with a pattern
tableau Tp whose tuples mix constants and the unnamed variable '_'.  The
match operator ≍ (constants match themselves; '_' matches anything) defines
the semantics:

    D ⊨ ϕ  iff  for each tp ∈ Tp and t1, t2 ∈ D:
                t1[X] = t2[X] ≍ tp[X]  ⟹  t1[Y] = t2[Y] ≍ tp[Y].

Violations come in two shapes, and the detector distinguishes them exactly
as the SQL-based detection of [36] does:

* **single-tuple**: t[X] ≍ tp[X] but t[Y] does not match a constant of
  tp[Y] (taking t1 = t2 in the definition);
* **pair**: t1[X] = t2[X] ≍ tp[X] but t1[Y] ≠ t2[Y].
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple as PyTuple

from repro.deps.base import ScanDependency, Violation
from repro.deps.fd import FD
from repro.engine.indexes import canonical_signature, key_getter
from repro.engine.scan import ColumnarSpec, ScanTask
from repro.errors import DependencyError
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple

__all__ = ["UNNAMED", "PatternTuple", "PatternTableau", "CFD", "matches", "fd_as_cfd"]


class _Unnamed:
    """The unnamed (yet marked) variable '_' of pattern tableaux."""

    _instance: "_Unnamed | None" = None

    def __new__(cls) -> "_Unnamed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"

    def __reduce__(self):
        return (_Unnamed, ())


#: Singleton wildcard; use this in pattern tuples for '_'.
UNNAMED = _Unnamed()


def matches(value: Any, pattern: Any) -> bool:
    """The ≍ operator on a single position: η1 ≍ η2."""
    return pattern is UNNAMED or value is UNNAMED or value == pattern


class PatternTuple:
    """One pattern tuple tp over attributes X ∪ Y."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any]):
        self._values: Dict[str, Any] = dict(values)

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self._values[attribute]
        except KeyError:
            raise DependencyError(f"pattern tuple has no attribute {attribute!r}") from None

    def attributes(self) -> PyTuple[str, ...]:
        return tuple(self._values)

    def get(self, attribute: str, default: Any = UNNAMED) -> Any:
        return self._values.get(attribute, default)

    def is_constant_on(self, attributes: Sequence[str]) -> bool:
        """True iff tp is a constant (no '_') on every listed attribute."""
        return all(self._values.get(a, UNNAMED) is not UNNAMED for a in attributes)

    def constants_on(self, attributes: Sequence[str]) -> Dict[str, Any]:
        """The constant positions of tp restricted to ``attributes``."""
        wanted = set(attributes)
        return {
            a: v
            for a, v in self._values.items()
            if a in wanted and v is not UNNAMED
        }

    def matches_tuple(self, t: Tuple, attributes: Sequence[str]) -> bool:
        """t[attributes] ≍ tp[attributes]."""
        return all(matches(t[a], self._values.get(a, UNNAMED)) for a in attributes)

    def project(self, attributes: Sequence[str]) -> "PatternTuple":
        return PatternTuple({a: self._values.get(a, UNNAMED) for a in attributes})

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternTuple) and self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in self._values.items())
        return f"PatternTuple({inner})"


class PatternTableau:
    """An ordered collection of pattern tuples over fixed attributes."""

    def __init__(self, attributes: Sequence[str], rows: Iterable[Mapping[str, Any] | PatternTuple]):
        self.attributes: PyTuple[str, ...] = tuple(attributes)
        tuples: List[PatternTuple] = []
        for row in rows:
            pt = row if isinstance(row, PatternTuple) else PatternTuple(row)
            extra = set(pt.attributes()) - set(self.attributes)
            if extra:
                raise DependencyError(
                    f"pattern tuple mentions attributes {sorted(extra)} outside "
                    f"the tableau attributes {list(self.attributes)}"
                )
            # Normalize: every tableau attribute present, defaulting to '_'.
            pt = PatternTuple({a: pt.get(a, UNNAMED) for a in self.attributes})
            tuples.append(pt)
        if not tuples:
            raise DependencyError("pattern tableau must contain at least one tuple")
        self.rows: PyTuple[PatternTuple, ...] = tuple(tuples)

    def __iter__(self) -> Iterator[PatternTuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PatternTableau)
            and self.attributes == other.attributes
            and set(self.rows) == set(other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.attributes, frozenset(self.rows)))

    def __repr__(self) -> str:
        return f"PatternTableau({list(self.attributes)}, {len(self.rows)} rows)"

    def pretty(self) -> str:
        """ASCII rendering in the style of the paper's Figure 2."""
        headers = list(self.attributes)
        rows = [
            ["_" if pt[a] is UNNAMED else repr(pt[a]) for a in headers]
            for pt in self.rows
        ]
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
        return "\n".join(lines)


class CFD(ScanDependency):
    """ϕ = (R: X → Y, Tp)."""

    def __init__(
        self,
        relation_name: str,
        lhs: Sequence[str],
        rhs: Sequence[str],
        tableau: PatternTableau | Iterable[Mapping[str, Any]],
        name: str | None = None,
    ):
        if not rhs:
            raise DependencyError("CFD must have a non-empty RHS")
        self.relation_name = relation_name
        self.lhs: PyTuple[str, ...] = tuple(dict.fromkeys(lhs))
        self.rhs: PyTuple[str, ...] = tuple(dict.fromkeys(rhs))
        overlap_ok = set(self.lhs + self.rhs)
        if not isinstance(tableau, PatternTableau):
            tableau = PatternTableau(self.lhs + tuple(a for a in self.rhs if a not in self.lhs), tableau)
        missing = set(tableau.attributes) - overlap_ok
        if missing:
            raise DependencyError(
                f"tableau attributes {sorted(missing)} not in X ∪ Y"
            )
        self.tableau = tableau
        self.name = name or f"cfd:{list(self.lhs)}->{list(self.rhs)}"

    def relations(self) -> PyTuple[str, ...]:
        return (self.relation_name,)

    def check_schema(self, schema: RelationSchema) -> None:
        """Validate attribute names and pattern constants against domains."""
        schema.check_attributes(self.lhs)
        schema.check_attributes(self.rhs)
        for tp in self.tableau:
            for attr in self.lhs + self.rhs:
                value = tp.get(attr)
                if value is not UNNAMED:
                    schema.domain(attr).validate(value)

    def pattern_cfds(self) -> List["CFD"]:
        """Split into one single-pattern CFD per tableau row.

        Each tuple in a pattern tableau "indicates a constraint" (Example
        2.1); most analyses work row-at-a-time.
        """
        return [
            CFD(self.relation_name, self.lhs, self.rhs, PatternTableau(self.tableau.attributes, [tp]), name=f"{self.name}#{i}")
            for i, tp in enumerate(self.tableau)
        ]

    def is_constant(self) -> bool:
        """True iff every tableau row is constant on both X and Y."""
        return all(
            tp.is_constant_on(self.lhs) and tp.is_constant_on(self.rhs)
            for tp in self.tableau
        )

    def is_variable(self) -> bool:
        """True iff no tableau row has a constant on the RHS."""
        return all(not tp.constants_on(self.rhs) for tp in self.tableau)

    @property
    def scan_signature(self) -> PyTuple[str, ...]:
        """Canonical LHS signature; CFDs sharing it share one partition."""
        return canonical_signature(self.lhs)

    def _compile_checks(self, tp: PatternTuple, schema: RelationSchema):
        """Positional ``(single, pair)`` checks for one row within one
        X-partition.

        Every tuple in a partition agrees on X, so the embedded FD can only
        be violated within it, and the single-tuple RHS-constant check is
        local to it as well.  Attribute names resolve to value positions
        here, once, keeping the per-tuple checks free of name lookups.
        """
        lhs = list(self.lhs)
        rhs = list(self.rhs)
        rhs_of = key_getter(schema, rhs)
        rhs_constants = [
            (schema.index_of(a), a, c) for a, c in tp.constants_on(rhs).items()
        ]

        def single_violation(t: Tuple, bad: Dict[str, Any]) -> Violation:
            return Violation(
                self,
                [(self.relation_name, t)],
                f"{self.name}: tuple matches {tp!r} on LHS but has "
                f"{ {a: t[a] for a in bad} } instead of {bad}",
            )

        if len(rhs_constants) == 1:
            # Overwhelmingly common shape: one constant to check, and a
            # clean tuple exits on a single comparison.
            [(position, attr, constant)] = rhs_constants
            expected = {attr: constant}

            def single(t: Tuple, out: list) -> None:
                if t.values()[position] != constant:
                    out.append(single_violation(t, expected))

        else:

            def single(t: Tuple, out: list) -> None:
                if not rhs_constants:
                    return
                values = t.values()
                bad = {a: c for p, a, c in rhs_constants if values[p] != c}
                if bad:
                    out.append(single_violation(t, bad))

        pair_message = (
            f"{self.name}: tuples agree on {lhs} (matching "
            f"{tp!r}) but differ on {rhs}"
        )

        def pair(first: Tuple, other: Tuple, out: list) -> None:
            if rhs_of(first.values()) != rhs_of(other.values()):
                out.append(
                    Violation(
                        self,
                        [(self.relation_name, first), (self.relation_name, other)],
                        pair_message,
                    )
                )

        return single, pair

    def scan_tasks(self, schema: RelationSchema) -> List[ScanTask]:
        """One compiled :class:`~repro.engine.scan.ScanTask` per tableau row."""
        signature = self.scan_signature
        tasks: List[ScanTask] = []
        for tp in self.tableau:
            single, pair = self._compile_checks(tp, schema)
            rhs_constants = tp.constants_on(self.rhs)
            if tp.is_constant_on(signature):
                # Fully-constant pattern: the matching partition is a
                # single hash lookup instead of a sweep.
                lookup = tuple(tp[a] for a in signature)
                key_constants: List[tuple] = []
            else:
                lookup = None
                key_constants = [
                    (i, tp[a])
                    for i, a in enumerate(signature)
                    if tp.get(a) is not UNNAMED
                ]
            tasks.append(
                ScanTask(
                    lookup,
                    key_constants,
                    single=single,
                    pair=pair,
                    columnar=ColumnarSpec(
                        pair_attrs=self.rhs,
                        singles=[("eq", a, c) for a, c in rhs_constants.items()],
                        key_checks=[("eq", i, c) for i, c in key_constants],
                    ),
                    skip_singletons=not rhs_constants,
                )
            )
        return tasks

    def __repr__(self) -> str:
        return (
            f"CFD({self.relation_name}: {list(self.lhs)} -> {list(self.rhs)}, "
            f"{len(self.tableau)} patterns)"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CFD)
            and (self.relation_name, self.lhs, self.rhs, self.tableau)
            == (other.relation_name, other.lhs, other.rhs, other.tableau)
        )

    def __hash__(self) -> int:
        return hash((self.relation_name, self.lhs, self.rhs, self.tableau))


def fd_as_cfd(fd: FD) -> CFD:
    """Embed a traditional FD as the CFD with a single all-'_' pattern row."""
    attributes = fd.lhs + tuple(a for a in fd.rhs if a not in fd.lhs)
    row = {a: UNNAMED for a in attributes}
    return CFD(fd.relation_name, fd.lhs, fd.rhs, PatternTableau(attributes, [row]), name=f"fd-as-cfd:{list(fd.lhs)}->{list(fd.rhs)}")
