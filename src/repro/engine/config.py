"""The one detection path's name, and the refusals of the knobs that chose
another.

Detection has one path (:meth:`repro.session.Session.detect`).  Frozen
callers still name it — ``Session(..., executor="indexed")`` and the wire
object ``{"engine": {"executor": "indexed"}}`` — so that name is
accepted, and every retired selection is refused by name, in one text
whether it arrived as a kwarg or a wire field: silently ignoring one
would let an old client believe it took effect.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ReproError

__all__ = ["EXECUTOR", "check_executor", "check_engine"]

#: the one detection path's name, as info, diagnostics and snapshots report it
EXECUTOR = "indexed"

#: the surviving wire shape, quoted so a client learns it from the error
_HINT = '{"engine": {"executor": "indexed"}}'

#: retired executor names -> why they are gone
_RETIRED = {
    "naive": "was removed: detection has one path",
    "parallel": "was removed with the sharded engine",
}


def _refuse(text: str) -> ReproError:
    return ReproError(f"{text}; send {_HINT}")


def check_executor(executor: Any) -> None:
    """Accept the one detection path's name; refuse any other."""
    if executor != EXECUTOR:
        why = _RETIRED.get(executor) if isinstance(executor, str) else None
        raise _refuse(f"executor {executor!r} {why or 'is unknown'}")


def check_engine(document: Mapping[str, Any]) -> None:
    """Check a request body's ``{"engine": {...}}`` object: absent, empty
    or naming the one executor.  The pre-/v1 top-level keys and the
    sharded engine's shard count are refused by name too."""
    for legacy in ("executor", "shards"):
        if legacy in document:
            raise _refuse(
                f"top-level {legacy!r} was replaced by the engine object "
                "in wire version 1"
            )
    engine = document.get("engine")
    if engine is None:
        return
    if not isinstance(engine, Mapping):
        raise _refuse(f"'engine' must be an object, got {engine!r}")
    if "shards" in engine:
        raise _refuse("engine option 'shards' was removed with the sharded engine")
    if "executor" in engine:
        check_executor(engine["executor"])
    unknown = sorted(set(engine) - {"executor"})
    if unknown:
        raise _refuse(f"unknown engine option(s) {unknown}")
