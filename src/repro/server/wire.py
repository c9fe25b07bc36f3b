"""Wire-protocol versioning for the constraint service.

Every endpoint is mounted under a version prefix (``/v1/...``) and every
JSON response carries its wire version in the envelope — the first key of
the document is ``"wire_version"``.  The version covers the *shape* of
the documents (field names, the ``{"engine": ...}`` object, error bodies),
not their values; a client that pins ``wire_version == 1`` is insulated
from future breaking changes, which will mount as ``/v2`` alongside.

Any other prefix — an *unknown* version (``/v2/...``) or none at all
(``GET /healthz``, the pre-versioning form) — answers 404 with a document
naming the versions this server speaks, so a too-new or too-old client
fails with an actionable error instead of a bare route miss.  The prefix
is read by :func:`split_target`, the one parse of a request target: the
core builds its :class:`~repro.server.core.Route` on it, and the
transport takes its lock and snapshot decisions off that same ``Route``.

This module also owns the one response encoder (:func:`encode`): bodies
are *compact* JSON — no whitespace between tokens, one trailing newline —
so the C encoder does the work.  Whitespace and line breaks are not part
of the wire version: clients compare parsed documents, never bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "encode",
    "encode_value",
    "envelope",
    "splice_array",
    "split_target",
    "unsupported_version_document",
]

#: the wire version this server speaks; bump on breaking document changes
WIRE_VERSION = 1

#: every version prefix the server will route (currently just /v1)
SUPPORTED_WIRE_VERSIONS: Tuple[int, ...] = (WIRE_VERSION,)


def envelope(document: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a response document in the versioned envelope.

    ``wire_version`` is injected as the *first* key so the version is
    readable in truncated logs and streamed output; an explicit
    ``wire_version`` already in ``document`` (never the case for library
    documents) would be overridden by the canonical one.
    """
    wrapped: Dict[str, Any] = {"wire_version": WIRE_VERSION}
    wrapped.update(document)
    wrapped["wire_version"] = WIRE_VERSION
    return wrapped


def _compact(value: Any) -> str:
    # no ``indent``: that is what keeps ``json`` on its C encoder
    return json.dumps(value, separators=(",", ":"), default=str)


def encode_value(value: Any) -> bytes:
    """Compact JSON bytes of a bare value — a fragment of a response body
    (no envelope, no newline)."""
    return _compact(value).encode("utf-8")


def encode(document: Mapping[str, Any]) -> bytes:
    """The canonical wire bytes of a response document: enveloped, compact,
    one trailing newline.  Every JSON body the service sends is made here."""
    return (_compact(envelope(document)) + "\n").encode("utf-8")


def splice_array(body: bytes, key: str, items: Iterable[bytes]) -> bytes:
    """Append ``"key": [items...]`` as the last member of an encoded body.

    ``body`` is :func:`encode` output and ``items`` are :func:`encode_value`
    outputs, so the result is byte-for-byte what :func:`encode` gives for
    the document with ``key`` added last — without encoding the items again.
    """
    if not body.endswith(b"}\n"):
        raise ValueError("splice_array needs an encode()d JSON object body")
    # the envelope guarantees at least one member before the new one
    return b"".join(
        (body[:-2], b",", encode_value(key), b":[", b",".join(items), b"]}\n")
    )


def split_target(target: str) -> Tuple[Optional[int], List[str], str]:
    """Split a request target into (claimed wire version, path segments,
    query).

    ``/v1/sessions/x?q`` -> ``(1, ["sessions", "x"], "q")``.  Only the
    first segment can claim a version (a *session* named ``v1`` is
    ``/v1/sessions/v1``); empty segments are dropped.  A target is taken
    in origin form — nothing but ``?`` ends the path, so a scheme and
    authority stay in it (and miss every route) — and a ``#fragment`` is
    cut off (:class:`repro.server.core.Route` notes it: no route).
    """
    path, _, query = target.partition("#")[0].partition("?")
    segments = [p for p in path.split("/") if p]
    if segments:
        head = segments[0]
        # "v" + decimal digits: what ``int`` reads back
        if head[:1] == "v" and head[1:].isdecimal():
            return int(head[1:]), segments[1:], query
    return None, segments, query


def unsupported_version_document(version: Optional[int]) -> Dict[str, Any]:
    """The 404 body for a version prefix this server does not speak
    (``None``: the path carried no prefix at all)."""
    claimed = "an unversioned path" if version is None else f"wire version {version}"
    return {
        "error": (
            f"{claimed} is not supported by this server; "
            f"supported versions: "
            f"{', '.join(f'/v{v}' for v in SUPPORTED_WIRE_VERSIONS)}"
        ),
        "type": "UnsupportedWireVersion",
        "requested_version": version,
        "supported_versions": list(SUPPORTED_WIRE_VERSIONS),
    }
