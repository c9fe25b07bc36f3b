"""eCFDs: CFDs extended with disjunction and inequality (paper §2.3).

An eCFD pattern position is one of

* the wildcard '_',
* a finite set S with positive polarity  (value ∈ S — disjunction), or
* a finite set S with negative polarity  (value ∉ S — inequality);

a constant c is the singleton {c}.  The running examples:

    ecfd1:  CT ∉ {NYC, LI} → AC            (FD holds off the listed cities)
    ecfd2:  CT ∈ {NYC} → AC ∈ {212, 718, 646, 347, 917}

Theorem 4.4: consistency stays NP-complete and implication coNP-complete
even *without* finite-domain attributes, because an eCFD can force an
attribute into a finite set.  The procedures below are exact for the same
small-witness reasons as for CFDs — only membership in the explicitly
listed sets matters, so candidates per attribute are the listed constants
plus one or two fresh values.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple as PyTuple

from repro.deps.base import ScanDependency, Violation
from repro.engine.indexes import canonical_signature, key_getter
from repro.errors import DependencyError
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple

__all__ = ["ANY", "SetPattern", "ECFD", "ecfd_is_consistent", "ecfd_implies"]


class _Any:
    """Wildcard for eCFD patterns (distinct from CFD's UNNAMED by type only)."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"


ANY = _Any()


class SetPattern:
    """value ∈ S (negated=False) or value ∉ S (negated=True)."""

    __slots__ = ("values", "negated")

    def __init__(self, values: Iterable[Any], negated: bool = False):
        self.values: FrozenSet[Any] = frozenset(values)
        if not self.values:
            raise DependencyError("eCFD set pattern must be non-empty")
        self.negated = negated

    def matches(self, value: Any) -> bool:
        inside = value in self.values
        return not inside if self.negated else inside

    def __repr__(self) -> str:
        symbol = "∉" if self.negated else "∈"
        rendered = ", ".join(sorted(map(repr, self.values)))
        return f"{symbol}{{{rendered}}}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetPattern)
            and (self.values, self.negated) == (other.values, other.negated)
        )

    def __hash__(self) -> int:
        return hash((self.values, self.negated))


def _coerce(pattern: Any) -> Any:
    """Normalize shorthand: constants become positive singletons."""
    if pattern is ANY or isinstance(pattern, SetPattern):
        return pattern
    return SetPattern([pattern])


def _matches(value: Any, pattern: Any) -> bool:
    return True if pattern is ANY else pattern.matches(value)


class ECFD(ScanDependency):
    """ψ = (R: X → Y, row) with set/negated-set patterns (single row).

    Multi-row tableaux are expressed as several ECFDs; the paper's analyses
    are all row-local for eCFDs.
    """

    def __init__(
        self,
        relation_name: str,
        lhs: Sequence[str],
        rhs: Sequence[str],
        pattern: Mapping[str, Any],
        name: str | None = None,
    ):
        if not rhs:
            raise DependencyError("eCFD must have a non-empty RHS")
        self.relation_name = relation_name
        self.lhs: PyTuple[str, ...] = tuple(dict.fromkeys(lhs))
        self.rhs: PyTuple[str, ...] = tuple(dict.fromkeys(rhs))
        allowed = set(self.lhs) | set(self.rhs)
        extra = set(pattern) - allowed
        if extra:
            raise DependencyError(f"pattern attributes {sorted(extra)} not in X ∪ Y")
        self.pattern: Dict[str, Any] = {
            a: _coerce(pattern.get(a, ANY)) for a in self.lhs + self.rhs
        }
        self.name = name or f"ecfd:{list(self.lhs)}->{list(self.rhs)}"

    def relations(self) -> PyTuple[str, ...]:
        return (self.relation_name,)

    def check_schema(self, schema: RelationSchema) -> None:
        """Validate attribute names and set-pattern constants against domains."""
        schema.check_attributes(self.lhs)
        schema.check_attributes(self.rhs)
        for attr, pattern in self.pattern.items():
            if isinstance(pattern, SetPattern):
                for value in pattern.values:
                    schema.domain(attr).validate(value)

    def lhs_matches(self, t: Tuple) -> bool:
        return all(_matches(t[a], self.pattern[a]) for a in self.lhs)

    @property
    def scan_signature(self) -> PyTuple[str, ...]:
        """Canonical LHS signature; shares partitions with FDs and CFDs."""
        return canonical_signature(self.lhs)

    def scan_tasks(self, schema: RelationSchema) -> List["ScanTask"]:
        """One compiled sweep task with set-pattern key matching."""
        from repro.engine.scan import ColumnarSpec, ScanTask

        signature = self.scan_signature
        key_position = {a: i for i, a in enumerate(signature)}
        lhs_checks = [
            (key_position[a], self.pattern[a])
            for a in self.lhs
            if self.pattern[a] is not ANY
        ]
        rhs_checks = [
            (schema.index_of(a), a, self.pattern[a])
            for a in self.rhs
            if self.pattern[a] is not ANY
        ]
        rhs_of = key_getter(schema, self.rhs)

        def match(key: tuple) -> bool:
            return all(p.matches(key[i]) for i, p in lhs_checks)

        pair_message = (
            f"{self.name}: agree on {list(self.lhs)} but differ on "
            f"{list(self.rhs)}"
        )

        def single(t, out: list) -> None:
            if not rhs_checks:
                return
            values = t.values()
            bad = [a for p, a, pat in rhs_checks if not pat.matches(values[p])]
            if bad:
                out.append(
                    Violation(
                        self,
                        [(self.relation_name, t)],
                        f"{self.name}: RHS pattern fails on {bad}",
                    )
                )

        def pair(first, other, out: list) -> None:
            if rhs_of(first.values()) != rhs_of(other.values()):
                out.append(
                    Violation(
                        self,
                        [(self.relation_name, first), (self.relation_name, other)],
                        pair_message,
                    )
                )

        return [
            ScanTask(
                None,
                [],
                single=single,
                pair=pair,
                columnar=ColumnarSpec(
                    pair_attrs=self.rhs,
                    singles=[
                        ("set", a, pat.values, pat.negated)
                        for _, a, pat in rhs_checks
                    ],
                    key_checks=[
                        ("set", i, pat.values, pat.negated)
                        for i, pat in lhs_checks
                    ],
                ),
                skip_singletons=not rhs_checks,
                match_fn=match,
            )
        ]

    def __repr__(self) -> str:
        rendered = ", ".join(f"{a}{self.pattern[a]!r}" for a in self.lhs + self.rhs)
        return f"ECFD({self.relation_name}: {list(self.lhs)} -> {list(self.rhs)} | {rendered})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ECFD)
            and (self.relation_name, self.lhs, self.rhs) == (other.relation_name, other.lhs, other.rhs)
            and self.pattern == other.pattern
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.relation_name,
                self.lhs,
                self.rhs,
                tuple(sorted((a, hash(p)) for a, p in self.pattern.items())),
            )
        )


def _constants(ecfds: Sequence[ECFD]) -> Dict[str, Set[Any]]:
    constants: Dict[str, Set[Any]] = {}
    for e in ecfds:
        for a, p in e.pattern.items():
            if isinstance(p, SetPattern):
                constants.setdefault(a, set()).update(p.values)
    return constants


def _candidates(
    schema: RelationSchema, attr: str, constants: Set[Any], fresh_count: int
) -> List[Any]:
    domain = schema.domain(attr)
    ordered = sorted(constants, key=repr)
    fresh: List[Any] = []
    for value in domain.fresh_values(constants):
        fresh.append(value)
        if len(fresh) >= fresh_count:
            break
    return ordered + fresh


def _single_tuple_ok(assignment: Dict[str, Any], ecfds: Sequence[ECFD]) -> bool:
    for e in ecfds:
        if all(_matches(assignment[a], e.pattern[a]) for a in e.lhs):
            if not all(_matches(assignment[a], e.pattern[a]) for a in e.rhs):
                return False
    return True


def ecfd_is_consistent(
    schema: RelationSchema,
    ecfds: Sequence[ECFD],
    search_limit: int = 2_000_000,
) -> bool:
    """Exact consistency (NP-complete, Theorem 4.4): single-tuple witness
    search over listed constants plus one fresh value per attribute."""
    mentioned: Set[str] = set()
    for e in ecfds:
        mentioned.update(e.lhs)
        mentioned.update(e.rhs)
    constants = _constants(ecfds)
    relevant = [a for a in schema.attribute_names if a in mentioned]
    candidates = {
        a: _candidates(schema, a, constants.get(a, set()), fresh_count=1)
        for a in relevant
    }
    space = 1
    for v in candidates.values():
        space *= max(1, len(v))
    if space > search_limit:
        raise MemoryError(f"eCFD consistency search space {space} over limit")
    # Note: with no eCFDs, `relevant` is empty, the product yields one empty
    # combo, `_single_tuple_ok` is vacuously true, and we correctly return
    # True (an empty set of constraints is trivially consistent).
    for combo in itertools.product(*(candidates[a] for a in relevant)):
        assignment = dict(zip(relevant, combo))
        if _single_tuple_ok(assignment, ecfds):
            return True
    return False


def ecfd_implies(
    schema: RelationSchema,
    sigma: Sequence[ECFD],
    target: ECFD,
    search_limit: int = 2_000_000,
) -> bool:
    """Exact implication (coNP-complete): two-tuple counterexample search."""
    relevant_sigma = [e for e in sigma if e.relation_name == target.relation_name]
    all_deps = list(relevant_sigma) + [target]
    mentioned: Set[str] = set()
    for e in all_deps:
        mentioned.update(e.lhs)
        mentioned.update(e.rhs)
    constants = _constants(all_deps)
    relevant = [a for a in schema.attribute_names if a in mentioned]
    candidates = {
        a: _candidates(schema, a, constants.get(a, set()), fresh_count=2)
        for a in relevant
    }

    def pair_satisfies(t1: Dict[str, Any], t2: Dict[str, Any], e: ECFD) -> bool:
        for t in (t1, t2):
            if all(_matches(t[a], e.pattern[a]) for a in e.lhs):
                if not all(_matches(t[a], e.pattern[a]) for a in e.rhs):
                    return False
        if (
            all(t1[a] == t2[a] for a in e.lhs)
            and all(_matches(t1[a], e.pattern[a]) for a in e.lhs)
            and any(t1[a] != t2[a] for a in e.rhs)
        ):
            return False
        return True

    # Seed: both tuples agree and match target LHS; enumerate the rest.
    lhs_attrs = [a for a in relevant if a in target.lhs]
    other_attrs = [a for a in relevant if a not in target.lhs]
    lhs_options: List[List[Any]] = []
    for a in lhs_attrs:
        lhs_options.append(
            [v for v in candidates[a] if _matches(v, target.pattern[a])]
        )
    visited = 0
    for lhs_combo in itertools.product(*lhs_options):
        for rest in itertools.product(
            *(list(itertools.product(candidates[a], candidates[a])) for a in other_attrs)
        ):
            visited += 1
            if visited > search_limit:
                raise MemoryError("eCFD implication search budget exhausted")
            t1 = dict(zip(lhs_attrs, lhs_combo))
            t2 = dict(t1)
            for a, (v1, v2) in zip(other_attrs, rest):
                t1[a] = v1
                t2[a] = v2
            if not all(pair_satisfies(t1, t2, e) for e in relevant_sigma):
                continue
            # violation of target: single-tuple or pair
            violated = False
            for t in (t1, t2):
                if all(_matches(t[a], target.pattern[a]) for a in target.lhs):
                    if not all(_matches(t[a], target.pattern[a]) for a in target.rhs):
                        violated = True
            if (
                not violated
                and all(t1[a] == t2[a] for a in target.lhs)
                and any(t1[a] != t2[a] for a in target.rhs)
            ):
                violated = True
            if violated:
                return False
    return True
