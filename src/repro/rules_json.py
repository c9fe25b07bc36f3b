"""JSON (de)serialization of schemas and dependencies.

A downstream user drives the detectors from files: a schema document
describes one relation — or, with a top-level ``"relations"`` list, a whole
database schema — and a rules document lists constraints of any class
registered in :mod:`repro.registry` (FDs, CFDs, eCFDs, INDs, CINDs, denial
constraints, plus anything a user registers).  The wildcard '_' is spelled
as the literal string ``"_"`` in CFD/eCFD pattern cells; typed constants
are parsed against the schema's domains.

Single-relation schema document::

    {"name": "customer",
     "attributes": [{"name": "CC", "type": "int"},
                    {"name": "city", "type": "string"}]}

Multi-relation schema document::

    {"relations": [{"name": "customer", "attributes": [...]},
                   {"name": "orders", "attributes": [...]}]}

Rules document (one entry per constraint, dispatched on ``"type"``)::

    [{"type": "fd", "relation": "customer",
      "lhs": ["CC", "AC"], "rhs": ["city"]},
     {"type": "cfd", "relation": "customer",
      "lhs": ["CC", "zip"], "rhs": ["street"],
      "tableau": [{"CC": 44, "zip": "_", "street": "_"}]},
     {"type": "ind", "lhs_relation": "orders", "lhs": ["phn"],
      "rhs_relation": "customer", "rhs": ["phn"]}]

See ``docs/api.md`` for the full document shapes of every built-in class
and for how to register new ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Union

from repro import registry
from repro.deps.base import Dependency
from repro.errors import DependencyError, DomainError, ReproError, SchemaError
from repro.jsondecode import loads
from repro.relational.domains import BOOL, Domain, EnumDomain, FLOAT, INT, STRING
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "schema_from_dict",
    "schema_to_dict",
    "database_schema_from_dict",
    "database_schema_to_dict",
    "rules_from_list",
    "rules_to_list",
    "load_database_schema",
    "load_rules",
]

_TYPE_TO_DOMAIN: Dict[str, Domain] = {
    "int": INT,
    "float": FLOAT,
    "string": STRING,
    "bool": BOOL,
}
_DOMAIN_TO_TYPE = {v.name: k for k, v in _TYPE_TO_DOMAIN.items()}


#: the keys an attribute spec may carry (``values`` with type ``enum`` only)
_ATTRIBUTE_KEYS = ("name", "type", "values")


def schema_from_dict(document: Mapping[str, Any]) -> RelationSchema:
    """Parse a single-relation schema document into a :class:`RelationSchema`.

    Attribute specs are read strictly: each must be an object with a
    string ``name``, an optional ``type`` and — for an enum only — its
    ``values``; any other key is a :class:`SchemaError` naming it, since
    a misspelt ``type`` would otherwise leave a string column.
    """
    if not isinstance(document, Mapping):
        raise SchemaError(f"schema document must be an object, got {document!r}")
    try:
        name = document["name"]
        specs = document["attributes"]
    except KeyError as exc:
        raise SchemaError(f"schema document missing key {exc}") from exc
    if not isinstance(specs, (list, tuple)):
        raise SchemaError(f"relation {name!r}: 'attributes' must be a list")
    attributes = [
        _attribute(spec, f"{name!r} attribute #{index}")
        for index, spec in enumerate(specs)
    ]
    return RelationSchema(name, attributes)


def _attribute(spec: Any, where: str) -> Attribute:
    """One attribute spec read strictly; ``where`` names it in errors."""
    if not isinstance(spec, Mapping):
        raise SchemaError(f"relation {where} must be an object, got {spec!r}")
    unknown = sorted(set(spec) - set(_ATTRIBUTE_KEYS))
    if unknown:
        raise SchemaError(
            f"relation {where}: unknown key(s) {unknown}; "
            f"an attribute spec has {list(_ATTRIBUTE_KEYS)}"
        )
    attr_name = spec.get("name")
    if not isinstance(attr_name, str) or not attr_name:
        raise SchemaError(f"relation {where}: needs a non-empty string 'name'")
    type_name = spec.get("type", "string")
    if type_name == "enum":
        values = spec.get("values")
        if not isinstance(values, (list, tuple)):
            raise SchemaError(
                f"relation {where} ({attr_name!r}): an enum needs a 'values' list"
            )
        try:
            return Attribute(attr_name, EnumDomain(values))
        except (TypeError, DomainError) as exc:
            raise SchemaError(f"relation {where} ({attr_name!r}): {exc}") from exc
    if "values" in spec:
        raise SchemaError(
            f"relation {where} ({attr_name!r}): 'values' is for type 'enum' only"
        )
    if not isinstance(type_name, str) or type_name not in _TYPE_TO_DOMAIN:
        raise SchemaError(
            f"relation {where} ({attr_name!r}): "
            f"unknown attribute type {type_name!r}; "
            f"expected one of {sorted(_TYPE_TO_DOMAIN)} or 'enum'"
        )
    return Attribute(attr_name, _TYPE_TO_DOMAIN[type_name])


def schema_to_dict(schema: RelationSchema) -> Dict[str, Any]:
    """Serialize a relation schema back to a document."""
    attributes = []
    for attr in schema.attributes:
        if isinstance(attr.domain, EnumDomain) and attr.domain != BOOL:
            attributes.append(
                {
                    "name": attr.name,
                    "type": "enum",
                    "values": sorted(attr.domain.values(), key=repr),
                }
            )
        else:
            attributes.append(
                {
                    "name": attr.name,
                    "type": _DOMAIN_TO_TYPE.get(attr.domain.name, "string"),
                }
            )
    return {"name": schema.name, "attributes": attributes}


def database_schema_from_dict(document: Mapping[str, Any]) -> DatabaseSchema:
    """Parse a schema document (either form) into a :class:`DatabaseSchema`.

    A ``{"relations": [...]}`` document yields one relation per entry; a
    plain single-relation document yields a one-relation database schema.
    """
    if isinstance(document, Mapping) and "relations" in document:
        relations = document["relations"]
        if not isinstance(relations, (list, tuple)):
            raise SchemaError("'relations' must be a list of relation documents")
        return DatabaseSchema([schema_from_dict(spec) for spec in relations])
    return DatabaseSchema([schema_from_dict(document)])


def database_schema_to_dict(db_schema: DatabaseSchema) -> Dict[str, Any]:
    """Serialize a database schema to the multi-relation document form."""
    return {"relations": [schema_to_dict(rel) for rel in db_schema]}


def _as_database_schema(
    schema: Union[RelationSchema, DatabaseSchema, None]
) -> DatabaseSchema | None:
    if schema is None or isinstance(schema, DatabaseSchema):
        return schema
    return DatabaseSchema([schema])


def _rule_context(index: int, kind: Any, rule: Dependency | None) -> str:
    relations = ", ".join(rule.relations()) if rule is not None else "?"
    return f"rule #{index} ({kind} on relation {relations})"


def _reraise_with_context(exc: ReproError, context: str) -> None:
    """Re-raise ``exc`` with the rule context prefixed to its message.

    The library's own error classes take a single message argument and are
    reconstructed under their original type (callers catch SchemaError /
    DomainError specifically); errors from user-registered codecs may have
    arbitrary constructors, so they are wrapped in DependencyError instead
    of being rebuilt.
    """
    cls = type(exc)
    if cls in (SchemaError, DomainError, DependencyError):
        raise cls(f"{context}: {exc}") from exc
    raise DependencyError(f"{context}: {exc}") from exc


def rules_from_list(
    documents: Sequence[Mapping[str, Any]],
    schema: Union[RelationSchema, DatabaseSchema, None] = None,
) -> List[Dependency]:
    """Parse a rules document into dependency objects via the registry.

    Any constraint class registered in :mod:`repro.registry` is accepted;
    unknown ``"type"`` tags raise :class:`DependencyError` listing the
    registered tags.  If a schema (relation or database) is supplied every
    rule is validated against it, and validation errors name the offending
    rule's index and relation(s), not just the attribute.
    """
    db_schema = _as_database_schema(schema)
    rules: List[Dependency] = []
    for i, doc in enumerate(documents):
        if not isinstance(doc, Mapping):
            raise DependencyError(f"rule #{i} must be an object, got {doc!r}")
        kind = doc.get("type")
        try:
            codec = registry.codec_for_tag(kind)
        except DependencyError as exc:
            raise DependencyError(f"rule #{i}: {exc}") from exc
        try:
            rule = codec.from_dict(doc)
        except ReproError as exc:
            _reraise_with_context(exc, _rule_context(i, kind, None))
        except KeyError as exc:
            raise DependencyError(
                f"rule #{i} ({kind}): document missing key {exc}"
            ) from exc
        if db_schema is not None and codec.check is not None:
            try:
                codec.check(rule, db_schema)
            except ReproError as exc:
                _reraise_with_context(exc, _rule_context(i, kind, rule))
        rules.append(rule)
    return rules


def rules_to_list(rules: Sequence[Dependency]) -> List[Dict[str, Any]]:
    """Serialize dependencies back to plain documents via the registry."""
    return [registry.encode(rule) for rule in rules]


def load_database_schema(path) -> DatabaseSchema:
    """Read a schema document (either form) from a JSON file."""
    with open(path, "rb") as handle:
        return database_schema_from_dict(loads(handle.read()))


def load_rules(
    path, schema: Union[RelationSchema, DatabaseSchema, None] = None
) -> List[Dependency]:
    """Read a rules document from a JSON file."""
    with open(path, "rb") as handle:
        return rules_from_list(loads(handle.read()), schema)
