"""Conditional inclusion dependencies: syntax and semantics (paper §2.2).

A CIND ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp) embeds the IND R1[X] ⊆ R2[Y] and
restricts/extends it with pattern attributes: Xp selects which R1 tuples
the inclusion applies to, Yp forces constants on the matching R2 tuples.
Pattern tableau cells are constants only (no '_'; wildcarding an attribute
is expressed by leaving it out of Xp/Yp).

    (D1, D2) ⊨ ψ  iff  for each tp ∈ Tp and t1 ∈ D1 with t1[Xp] = tp[Xp]
                       there is t2 ∈ D2 with t1[X] = t2[Y] and
                       t2[Yp] = tp[Yp].
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple as PyTuple

from repro.deps.base import Dependency, Violation
from repro.deps.ind import IND
from repro.errors import DependencyError
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema

__all__ = ["CIND", "ind_as_cind"]


class CIND(Dependency):
    """ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp)."""

    def __init__(
        self,
        lhs_relation: str,
        lhs_attrs: Sequence[str],
        rhs_relation: str,
        rhs_attrs: Sequence[str],
        lhs_pattern_attrs: Sequence[str] = (),
        rhs_pattern_attrs: Sequence[str] = (),
        tableau: Iterable[Mapping[str, Any]] = ({},),
        name: str | None = None,
    ):
        if len(lhs_attrs) != len(rhs_attrs):
            raise DependencyError(
                "CIND embedded-IND attribute lists must have equal length"
            )
        if not lhs_attrs:
            raise DependencyError("CIND embedded IND must be non-empty")
        self.lhs_relation = lhs_relation
        self.rhs_relation = rhs_relation
        self.lhs_attrs: PyTuple[str, ...] = tuple(lhs_attrs)
        self.rhs_attrs: PyTuple[str, ...] = tuple(rhs_attrs)
        self.lhs_pattern_attrs: PyTuple[str, ...] = tuple(lhs_pattern_attrs)
        self.rhs_pattern_attrs: PyTuple[str, ...] = tuple(rhs_pattern_attrs)
        overlap = set(self.lhs_attrs) & set(self.lhs_pattern_attrs)
        if overlap:
            raise DependencyError(
                f"attributes {sorted(overlap)} appear in both X and Xp"
            )
        overlap = set(self.rhs_attrs) & set(self.rhs_pattern_attrs)
        if overlap:
            raise DependencyError(
                f"attributes {sorted(overlap)} appear in both Y and Yp"
            )
        rows: List[Dict[str, Any]] = []
        # Pattern rows address LHS pattern attributes by name and RHS pattern
        # attributes by name; if an attribute appears on both sides (the
        # paper's A^L/A^R), qualify as "L.attr" / "R.attr".
        for row in tableau:
            normalized: Dict[str, Any] = {}
            for attr in self.lhs_pattern_attrs:
                key = attr if attr in row else f"L.{attr}"
                if key not in row:
                    raise DependencyError(
                        f"pattern row missing LHS pattern attribute {attr!r}"
                    )
                normalized[f"L.{attr}"] = row[key]
            for attr in self.rhs_pattern_attrs:
                key = attr if attr in row and attr not in self.lhs_pattern_attrs else f"R.{attr}"
                if key not in row:
                    raise DependencyError(
                        f"pattern row missing RHS pattern attribute {attr!r}"
                    )
                normalized[f"R.{attr}"] = row[key]
            rows.append(normalized)
        if not rows:
            raise DependencyError("CIND pattern tableau must be non-empty")
        self.tableau: PyTuple[Dict[str, Any], ...] = tuple(rows)
        self.name = name or (
            f"cind:{lhs_relation}{list(self.lhs_attrs)}⊆"
            f"{rhs_relation}{list(self.rhs_attrs)}"
        )

    @property
    def embedded_ind(self) -> IND:
        """The IND R1[X] ⊆ R2[Y] embedded in ψ."""
        return IND(self.lhs_relation, self.lhs_attrs, self.rhs_relation, self.rhs_attrs)

    def relations(self) -> PyTuple[str, ...]:
        if self.lhs_relation == self.rhs_relation:
            return (self.lhs_relation,)
        return (self.lhs_relation, self.rhs_relation)

    def check_schema(self, db_schema: DatabaseSchema) -> None:
        lhs = db_schema.relation(self.lhs_relation)
        rhs = db_schema.relation(self.rhs_relation)
        lhs.check_attributes(self.lhs_attrs)
        lhs.check_attributes(self.lhs_pattern_attrs)
        rhs.check_attributes(self.rhs_attrs)
        rhs.check_attributes(self.rhs_pattern_attrs)
        for row in self.tableau:
            for attr in self.lhs_pattern_attrs:
                lhs.domain(attr).validate(row[f"L.{attr}"])
            for attr in self.rhs_pattern_attrs:
                rhs.domain(attr).validate(row[f"R.{attr}"])

    def lhs_pattern(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Xp constants of one tableau row, keyed by plain attribute name."""
        return {a: row[f"L.{a}"] for a in self.lhs_pattern_attrs}

    def rhs_pattern(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Yp constants of one tableau row, keyed by plain attribute name."""
        return {a: row[f"R.{a}"] for a in self.rhs_pattern_attrs}

    def violations(self, db: DatabaseInstance) -> Iterator[Violation]:
        source = db.relation(self.lhs_relation)
        target = db.relation(self.rhs_relation)
        # Target tuples indexed by Yp projection → set of Y projections,
        # built once per (relation, Yp, Y) signature and cached on the
        # relation, so it is shared across tableau rows *and* across every
        # CIND with the same signature (previously rebuilt per row).
        target_index = target.indexes.grouped_key_sets(
            self.rhs_pattern_attrs, self.rhs_attrs
        )
        empty: frozenset = frozenset()
        store = source.column_store
        layout = (
            source.indexes.group_layout(self.lhs_pattern_attrs)
            if self.lhs_pattern_attrs
            else None
        )
        # Candidate rows come from the vectorized partition on Xp (or all
        # live rows for an unconditional LHS); membership is decided once
        # per distinct encoded X-key, and only violating rows are
        # materialized — in insertion order.
        positions = [source.schema.index_of(a) for a in self.lhs_attrs]
        columns = [store.columns[p] for p in positions]
        decode = [store.decode[p] for p in positions]
        for row in self.tableau:
            lhs_pat = self.lhs_pattern(row)
            rhs_pat = self.rhs_pattern(row)
            matching_keys = target_index.get(
                tuple(rhs_pat[a] for a in self.rhs_pattern_attrs), empty
            )
            if layout is not None:
                rank = layout.rank_of_key(
                    tuple(lhs_pat[a] for a in self.lhs_pattern_attrs)
                )
                rows = layout.group_rows(rank) if rank is not None else ()
            else:
                rows = store.iter_live_rows()
            verdicts: Dict[tuple, bool] = {}
            for r in rows:
                codes = tuple(column[r] for column in columns)
                bad = verdicts.get(codes)
                if bad is None:
                    key = tuple(d[c] for d, c in zip(decode, codes))
                    bad = key not in matching_keys
                    verdicts[codes] = bad
                if bad:
                    yield Violation(
                        self,
                        [(self.lhs_relation, store.tuple_at(r))],
                        f"{self.name}: no {self.rhs_relation} tuple matches "
                        f"on {list(self.rhs_attrs)} with pattern {rhs_pat}",
                    )

    def __repr__(self) -> str:
        return (
            f"CIND({self.lhs_relation}[{list(self.lhs_attrs)}; "
            f"{list(self.lhs_pattern_attrs)}] ⊆ {self.rhs_relation}"
            f"[{list(self.rhs_attrs)}; {list(self.rhs_pattern_attrs)}], "
            f"{len(self.tableau)} rows)"
        )

    def _key(self):
        return (
            self.lhs_relation,
            self.lhs_attrs,
            self.rhs_relation,
            self.rhs_attrs,
            self.lhs_pattern_attrs,
            self.rhs_pattern_attrs,
            tuple(frozenset(r.items()) for r in self.tableau),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CIND) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def ind_as_cind(ind: IND) -> CIND:
    """Embed a traditional IND as the CIND with empty pattern lists."""
    return CIND(
        ind.lhs_relation,
        ind.lhs_attrs,
        ind.rhs_relation,
        ind.rhs_attrs,
        tableau=({},),
        name=f"ind-as-cind:{ind!r}",
    )
