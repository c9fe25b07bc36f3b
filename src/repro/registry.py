"""The constraint registry: pluggable (de)serialization of dependency classes.

Every dependency class the engine can evaluate registers a *codec* here: a
``type`` tag, the Python class, and ``to_dict`` / ``from_dict`` functions
mapping instances to plain JSON-ready documents and back.  The registry is
what makes the file-driven workflows (``repro.rules_json``, the CLI, the
:class:`repro.session.Session` facade) open-ended — a downstream user can
register a new constraint class and immediately load it from rules files,
detect with it, and round-trip it, without touching the serializer.

Built-in codecs cover the paper's whole catalogue:

========  =====================================  ==========================
tag       class                                  document shape
========  =====================================  ==========================
fd        :class:`repro.deps.fd.FD`              relation, lhs, rhs
cfd       :class:`repro.cfd.model.CFD`           + tableau of ``"_"``/consts
ecfd      :class:`repro.cfd.ecfd.ECFD`           + pattern of in/not_in sets
ind       :class:`repro.deps.ind.IND`            lhs/rhs relation + attrs
cind      :class:`repro.cind.model.CIND`         + Xp/Yp pattern tableau
denial    :class:`repro.deps.denial.DenialConstraint`  relations + condition
========  =====================================  ==========================

Documents produced by :func:`encode` are *canonical*: key order, list order
and set orderings are deterministic, so ``encode(decode(doc)) == doc`` for
any document the registry itself produced (byte-stable round trips).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.errors import DependencyError
from repro.jsondecode import DecodeError, loads
from repro.relational.predicates import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    InSet,
    Not,
    Or,
    Term,
    TrueCondition,
)
from repro.relational.schema import DatabaseSchema

__all__ = [
    "ConstraintCodec",
    "register_constraint",
    "codec_for_tag",
    "codec_for_dependency",
    "registered_tags",
    "encode",
    "decode",
    "condition_to_dict",
    "condition_from_dict",
    "changeset_to_dict",
    "changeset_from_dict",
    "wal_record_to_bytes",
    "wal_records_from_bytes",
]


class ConstraintCodec:
    """One registered dependency class: tag, class, and document codecs.

    ``to_dict(dep)`` must return a JSON-ready mapping *without* the
    ``"type"`` key (the registry adds it); ``from_dict(doc)`` receives the
    full document.  ``check(dep, db_schema)`` validates the parsed rule
    against a :class:`~repro.relational.schema.DatabaseSchema`; it defaults
    to the class's own ``check_schema`` resolved against the rule's first
    relation when omitted.
    """

    __slots__ = ("tag", "cls", "to_dict", "from_dict", "check")

    def __init__(
        self,
        tag: str,
        cls: Type,
        to_dict: Callable[[Any], Dict[str, Any]],
        from_dict: Callable[[Mapping[str, Any]], Any],
        check: Optional[Callable[[Any, DatabaseSchema], None]] = None,
    ) -> None:
        self.tag = tag
        self.cls = cls
        self.to_dict = to_dict
        self.from_dict = from_dict
        self.check = check

    def __repr__(self) -> str:
        return f"ConstraintCodec({self.tag!r} -> {self.cls.__name__})"


_REGISTRY: Dict[str, ConstraintCodec] = {}


def register_constraint(codec: ConstraintCodec) -> ConstraintCodec:
    """Register (or replace) the codec for its type tag; returns it."""
    _REGISTRY[codec.tag] = codec
    return codec


def registered_tags() -> List[str]:
    """The sorted list of registered type tags."""
    return sorted(_REGISTRY)


def codec_for_tag(tag: Any) -> ConstraintCodec:
    """Look a codec up by type tag (DependencyError listing known tags)."""
    try:
        return _REGISTRY[tag]
    except (KeyError, TypeError):
        raise DependencyError(
            f"unknown constraint type {tag!r}; registered types are "
            f"{registered_tags()}"
        ) from None


def codec_for_dependency(dep: Any) -> ConstraintCodec:
    """Look a codec up for a dependency instance.

    Exact class matches win; otherwise the first registered codec whose
    class the instance is an instance of (so subclasses of a registered
    class serialize under the parent's tag unless they register their own).
    """
    for codec in _REGISTRY.values():
        if type(dep) is codec.cls:
            return codec
    for codec in _REGISTRY.values():
        if isinstance(dep, codec.cls):
            return codec
    raise DependencyError(
        f"cannot serialize rule of type {type(dep).__name__}; "
        f"registered types are {registered_tags()}"
    )


def encode(dep: Any) -> Dict[str, Any]:
    """Serialize a dependency to a document with its ``"type"`` tag first."""
    codec = codec_for_dependency(dep)
    document: Dict[str, Any] = {"type": codec.tag}
    document.update(codec.to_dict(dep))
    return document


def decode(document: Mapping[str, Any]) -> Any:
    """Parse a document into a dependency via its ``"type"`` tag."""
    return codec_for_tag(document.get("type")).from_dict(document)


# --------------------------------------------------------------------------
# Changeset documents (the edit-batch wire format)
# --------------------------------------------------------------------------


def changeset_to_dict(changeset: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.engine.delta.Changeset` to its wire
    document — ``{"ops": [{"op": ..., "relation": ..., "row": ...}, ...]}``.

    This is the same document shape ``repro.server`` accepts on
    ``POST /sessions/{id}/apply``; the codec lives on the class, this
    function just makes the registry the one lookup point for every wire
    format (rules, schemas, conditions, changesets).
    """
    return changeset.to_dict()


def changeset_from_dict(document: Mapping[str, Any]) -> Any:
    """Parse a changeset wire document (see :func:`changeset_to_dict`)."""
    from repro.engine.delta import Changeset

    return Changeset.from_dict(document)


# --------------------------------------------------------------------------
# WAL record framing (the durability layer's on-disk format)
# --------------------------------------------------------------------------

#: frame header: payload length + CRC32 of the payload, both big-endian u32
_WAL_HEADER = struct.Struct(">II")


def wal_record_to_bytes(document: Mapping[str, Any]) -> bytes:
    """Frame one JSON document as a crash-safe WAL record.

    The payload is canonical JSON (sorted keys, compact separators, UTF-8),
    preceded by an 8-byte header carrying its length and CRC32.  A torn
    final write — a record cut short by a crash at any byte boundary — is
    detectable on read: either the header is incomplete, the payload is
    shorter than the header promises, or the CRC does not match.
    """
    payload = json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")
    return _WAL_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def wal_records_from_bytes(
    data: bytes,
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse framed WAL records; returns ``(documents, clean_length)``.

    ``clean_length`` is the byte offset of the first torn or corrupt frame
    (equal to ``len(data)`` when the log is intact).  Parsing stops at the
    first bad frame — everything after a torn record is unreachable by
    construction (records are appended and fsync'd in order), so the
    caller truncates the log file to ``clean_length`` on recovery.
    """
    documents: List[Dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _WAL_HEADER.size > total:
            break  # torn header
        length, crc = _WAL_HEADER.unpack_from(data, offset)
        start = offset + _WAL_HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt payload
        try:
            document = loads(payload)
        except DecodeError:  # not JSON, or not UTF-8
            break  # CRC collision on garbage: treat as torn
        if not isinstance(document, dict):
            break
        documents.append(document)
        offset = end
    return documents, offset


# --------------------------------------------------------------------------
# Condition documents (denial constraints)
# --------------------------------------------------------------------------


def _term_to_dict(term: Term) -> Dict[str, Any]:
    if isinstance(term, Attr):
        return {"attr": term.name}
    if isinstance(term, Const):
        return {"const": term.value}
    raise DependencyError(f"cannot serialize term of type {type(term).__name__}")


def _term_from_dict(document: Mapping[str, Any]) -> Term:
    if "attr" in document:
        return Attr(document["attr"])
    if "const" in document:
        return Const(document["const"])
    raise DependencyError(f"term document needs 'attr' or 'const': {document!r}")


def condition_to_dict(condition: Condition) -> Dict[str, Any]:
    """Serialize a predicate condition tree to a nested document."""
    if isinstance(condition, Comparison):
        return {
            "op": condition.op,
            "left": _term_to_dict(condition.left),
            "right": _term_to_dict(condition.right),
        }
    if isinstance(condition, And):
        return {"and": [condition_to_dict(p) for p in condition.parts]}
    if isinstance(condition, Or):
        return {"or": [condition_to_dict(p) for p in condition.parts]}
    if isinstance(condition, Not):
        return {"not": condition_to_dict(condition.part)}
    if isinstance(condition, InSet):
        return {
            "term": _term_to_dict(condition.term),
            "values": sorted(condition.values, key=repr),
            "negated": condition.negated,
        }
    if isinstance(condition, TrueCondition):
        return {"true": True}
    raise DependencyError(
        f"cannot serialize condition of type {type(condition).__name__}"
    )


def condition_from_dict(document: Mapping[str, Any]) -> Condition:
    """Parse a nested condition document back into a predicate tree."""
    if "op" in document:
        return Comparison(
            _term_from_dict(document["left"]),
            document["op"],
            _term_from_dict(document["right"]),
        )
    if "and" in document:
        return And([condition_from_dict(p) for p in document["and"]])
    if "or" in document:
        return Or([condition_from_dict(p) for p in document["or"]])
    if "not" in document:
        return Not(condition_from_dict(document["not"]))
    if "values" in document:
        return InSet(
            _term_from_dict(document["term"]),
            document["values"],
            negated=bool(document.get("negated", False)),
        )
    if document.get("true"):
        return TrueCondition()
    raise DependencyError(f"unrecognized condition document: {document!r}")


# --------------------------------------------------------------------------
# Built-in codecs
# --------------------------------------------------------------------------


def _register_builtins() -> None:
    """Register the paper's dependency classes (import-cycle-safe)."""
    from repro.cfd.ecfd import ANY, ECFD, SetPattern
    from repro.cfd.model import CFD, UNNAMED, PatternTableau
    from repro.cind.model import CIND
    from repro.deps.denial import DenialConstraint
    from repro.deps.fd import FD
    from repro.deps.ind import IND

    # -- fd ----------------------------------------------------------------
    def fd_to_dict(fd: FD) -> Dict[str, Any]:
        return {
            "relation": fd.relation_name,
            "lhs": list(fd.lhs),
            "rhs": list(fd.rhs),
        }

    def fd_from_dict(doc: Mapping[str, Any]) -> FD:
        return FD(doc["relation"], doc["lhs"], doc["rhs"])

    def fd_check(fd: FD, db_schema: DatabaseSchema) -> None:
        fd.check_schema(db_schema.relation(fd.relation_name))

    register_constraint(ConstraintCodec("fd", FD, fd_to_dict, fd_from_dict, fd_check))

    # -- cfd ---------------------------------------------------------------
    def cfd_to_dict(cfd: CFD) -> Dict[str, Any]:
        return {
            "relation": cfd.relation_name,
            "name": cfd.name,
            "lhs": list(cfd.lhs),
            "rhs": list(cfd.rhs),
            "tableau": [
                {
                    attr: ("_" if tp.get(attr) is UNNAMED else tp.get(attr))
                    for attr in cfd.tableau.attributes
                }
                for tp in cfd.tableau
            ],
        }

    def cfd_from_dict(doc: Mapping[str, Any]) -> CFD:
        rows = [
            {attr: (UNNAMED if v == "_" else v) for attr, v in row.items()}
            for row in doc["tableau"]
        ]
        attrs = tuple(doc["lhs"]) + tuple(
            a for a in doc["rhs"] if a not in doc["lhs"]
        )
        return CFD(
            doc["relation"],
            doc["lhs"],
            doc["rhs"],
            PatternTableau(attrs, rows),
            name=doc.get("name"),
        )

    def cfd_check(cfd: CFD, db_schema: DatabaseSchema) -> None:
        cfd.check_schema(db_schema.relation(cfd.relation_name))

    register_constraint(
        ConstraintCodec("cfd", CFD, cfd_to_dict, cfd_from_dict, cfd_check)
    )

    # -- ecfd --------------------------------------------------------------
    def _set_pattern_to_dict(pattern: Any) -> Any:
        if pattern is ANY:
            return "_"
        key = "not_in" if pattern.negated else "in"
        return {key: sorted(pattern.values, key=repr)}

    def _set_pattern_from_dict(cell: Any) -> Any:
        if cell == "_":
            return ANY
        if isinstance(cell, Mapping):
            if "in" in cell:
                return SetPattern(cell["in"])
            if "not_in" in cell:
                return SetPattern(cell["not_in"], negated=True)
            raise DependencyError(
                f"eCFD pattern cell needs 'in' or 'not_in': {cell!r}"
            )
        # bare constant shorthand: positive singleton
        return SetPattern([cell])

    def ecfd_to_dict(ecfd: ECFD) -> Dict[str, Any]:
        return {
            "relation": ecfd.relation_name,
            "name": ecfd.name,
            "lhs": list(ecfd.lhs),
            "rhs": list(ecfd.rhs),
            "pattern": {
                a: _set_pattern_to_dict(ecfd.pattern[a])
                for a in ecfd.lhs + ecfd.rhs
            },
        }

    def ecfd_from_dict(doc: Mapping[str, Any]) -> ECFD:
        pattern = {
            a: _set_pattern_from_dict(cell)
            for a, cell in doc.get("pattern", {}).items()
        }
        return ECFD(
            doc["relation"], doc["lhs"], doc["rhs"], pattern, name=doc.get("name")
        )

    def ecfd_check(ecfd: ECFD, db_schema: DatabaseSchema) -> None:
        ecfd.check_schema(db_schema.relation(ecfd.relation_name))

    register_constraint(
        ConstraintCodec("ecfd", ECFD, ecfd_to_dict, ecfd_from_dict, ecfd_check)
    )

    # -- ind ---------------------------------------------------------------
    def ind_to_dict(ind: IND) -> Dict[str, Any]:
        return {
            "lhs_relation": ind.lhs_relation,
            "lhs": list(ind.lhs_attrs),
            "rhs_relation": ind.rhs_relation,
            "rhs": list(ind.rhs_attrs),
        }

    def ind_from_dict(doc: Mapping[str, Any]) -> IND:
        return IND(
            doc["lhs_relation"], doc["lhs"], doc["rhs_relation"], doc["rhs"]
        )

    def ind_check(ind: IND, db_schema: DatabaseSchema) -> None:
        ind.check_schema(db_schema)

    register_constraint(
        ConstraintCodec("ind", IND, ind_to_dict, ind_from_dict, ind_check)
    )

    # -- cind --------------------------------------------------------------
    def cind_to_dict(cind: CIND) -> Dict[str, Any]:
        return {
            "lhs_relation": cind.lhs_relation,
            "lhs": list(cind.lhs_attrs),
            "rhs_relation": cind.rhs_relation,
            "rhs": list(cind.rhs_attrs),
            "name": cind.name,
            "lhs_pattern": list(cind.lhs_pattern_attrs),
            "rhs_pattern": list(cind.rhs_pattern_attrs),
            "tableau": [
                {
                    **{f"L.{a}": row[f"L.{a}"] for a in cind.lhs_pattern_attrs},
                    **{f"R.{a}": row[f"R.{a}"] for a in cind.rhs_pattern_attrs},
                }
                for row in cind.tableau
            ],
        }

    def cind_from_dict(doc: Mapping[str, Any]) -> CIND:
        return CIND(
            doc["lhs_relation"],
            doc["lhs"],
            doc["rhs_relation"],
            doc["rhs"],
            lhs_pattern_attrs=doc.get("lhs_pattern", ()),
            rhs_pattern_attrs=doc.get("rhs_pattern", ()),
            tableau=doc.get("tableau", ({},)),
            name=doc.get("name"),
        )

    def cind_check(cind: CIND, db_schema: DatabaseSchema) -> None:
        cind.check_schema(db_schema)

    register_constraint(
        ConstraintCodec("cind", CIND, cind_to_dict, cind_from_dict, cind_check)
    )

    # -- denial ------------------------------------------------------------
    def denial_to_dict(denial: DenialConstraint) -> Dict[str, Any]:
        return {
            "name": denial.name,
            "relations": list(denial.relation_names),
            "condition": condition_to_dict(denial.condition),
        }

    def denial_from_dict(doc: Mapping[str, Any]) -> DenialConstraint:
        return DenialConstraint(
            doc["relations"],
            condition_from_dict(doc["condition"]),
            name=doc.get("name"),
        )

    def denial_check(denial: DenialConstraint, db_schema: DatabaseSchema) -> None:
        denial.check_schema(db_schema)

    register_constraint(
        ConstraintCodec(
            "denial", DenialConstraint, denial_to_dict, denial_from_dict, denial_check
        )
    )


_register_builtins()
