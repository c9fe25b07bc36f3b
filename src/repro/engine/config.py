"""One executor configuration schema for every layer.

Three layers accept the same knob — which detection executor a session
runs (``indexed`` / ``naive``):

* :class:`repro.session.Session` keyword arguments,
* the CLI flag ``--executor``,
* the wire protocol's ``{"engine": {"executor": ...}}`` object (session
  creation and ``detect`` bodies).

This module is the single source of truth: every layer funnels through
:func:`validate_executor`, so an invalid value produces the *same* error
text whether it arrived as a Python kwarg, a CLI flag or a wire field.
The sharded engine's knobs left with it (``docs/engine.md`` § Why there
is no sharded engine); a wire body that still carries one is refused by
name — silently ignoring it would let an old client believe it took
effect.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "EXECUTORS",
    "ENGINE_SCHEMA_HINT",
    "validate_executor",
    "engine_config_from_document",
]

#: executor names accepted everywhere a detection path is selected
EXECUTORS: Tuple[str, ...] = ("indexed", "naive")

#: the wire shape, quoted verbatim in rejection messages so a client that
#: sent a retired key learns the surviving schema from the error
ENGINE_SCHEMA_HINT = '{"engine": {"executor": "indexed" | "naive"}}'


def validate_executor(executor: Any) -> str:
    """Return ``executor`` when it names a known detection path.

    The error text is the canonical one shared by Session kwargs, CLI
    flags and wire fields.
    """
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return str(executor)


def _removed(what: str) -> ReproError:
    return ReproError(
        f"{what} was removed with the sharded engine; "
        f"send {ENGINE_SCHEMA_HINT}"
    )


def engine_config_from_document(
    document: Mapping[str, Any],
    *,
    default_executor: Optional[str] = None,
) -> Optional[str]:
    """Parse the wire ``{"engine": {...}}`` object out of a request body.

    Returns the executor, ``default_executor`` when the object (or its
    ``executor`` key) is absent.  Retired keys are rejected with an error
    naming the surviving schema, never ignored: the pre-/v1 loose
    top-level keys, and the sharded engine's shard count and
    ``"executor": "parallel"``.
    """
    for legacy in ("executor", "shards"):
        if legacy in document:
            raise ReproError(
                f"top-level {legacy!r} was replaced by the engine object "
                f"in wire version 1; send {ENGINE_SCHEMA_HINT}"
            )
    engine = document.get("engine")
    if engine is None:
        return default_executor
    if not isinstance(engine, Mapping):
        raise ReproError(
            f"'engine' must be an object {ENGINE_SCHEMA_HINT}, "
            f"got {engine!r}"
        )
    executor = engine.get("executor", default_executor)
    if "shards" in engine:
        raise _removed("engine option 'shards'")
    if executor == "parallel":
        raise _removed("executor 'parallel'")
    unknown = sorted(set(engine) - {"executor"})
    if unknown:
        raise ReproError(
            f"unknown engine option(s) {unknown}; expected "
            f"{ENGINE_SCHEMA_HINT}"
        )
    return None if executor is None else validate_executor(executor)
