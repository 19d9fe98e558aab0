"""One reading of a JSON config, one writing of a canonical report.

**Reader.**  :func:`reject_unknown` turns a mistyped key into a
:class:`~repro.errors.ConfigError` naming *where* (``jobs[0].overrides``),
the offending keys and the accepted set; :func:`build` constructs a
dataclass from only the keys a payload carries — so **the dataclass
default is the only default** — casting to ``int``/``float`` where the
field's default is one (``"rate_rps": 30`` arrives as ``30.0``).

**Writer.**  Every report, digest and registry line that is pinned or
hashed goes through :func:`compact`, :func:`indented` or :func:`sha256`.

``repro.cli`` imports this module: standard library and ``repro.errors``
only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterable, Mapping, Tuple

from repro.errors import ConfigError

__all__ = ["reject_unknown", "accepted", "build", "compact", "indented", "sha256"]


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
def reject_unknown(payload: Mapping, known: Iterable[str], path: str) -> None:
    """Raise unless every key of ``payload`` is in ``known``."""
    known = set(known)
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {unknown}; "
            f"expected a subset of {sorted(known)}"
        )


#: (dataclass, rename) → its :func:`_field_table`
_FIELD_TABLES: Dict[tuple, tuple] = {}
_Rename = Tuple[Tuple[str, str], ...]


def _field_table(cls: type, rename: _Rename) -> tuple:
    """What the reader needs to know about ``cls``, computed once: per
    init field its payload key, the field, the cast its default's type
    asks for, and — for a field whose ``default_factory`` is itself a
    dataclass — that class, whose fields are read from the *same* flat
    payload."""
    table = _FIELD_TABLES.get((cls, rename))
    if table is None:
        spelled = {name: key for key, name in rename}
        table = _FIELD_TABLES[cls, rename] = tuple(
            (
                spelled.get(f.name, f.name),
                f,
                type(f.default) if type(f.default) in (int, float) else None,
                f.default_factory
                if dataclasses.is_dataclass(f.default_factory)
                else None,
            )
            for f in dataclasses.fields(cls)
            if f.init
        )
    return table


def accepted(cls: type, rename: _Rename = ()) -> Dict[str, dataclasses.Field]:
    """The payload keys ``build(cls, …, rename=rename)`` reads, in field
    order, each with the field it fills; ``rename`` is ``(payload key,
    field name)`` pairs."""
    keys: Dict[str, dataclasses.Field] = {}
    for key, f, _cast, part in _field_table(cls, rename):
        if part is None:
            keys[key] = f
        else:
            keys.update(accepted(part, rename))
    return keys


def _build(cls: type, payload: Mapping, rename: _Rename):
    kwargs = {}
    for key, f, cast, part in _field_table(cls, rename):
        if part is not None:
            kwargs[f.name] = _build(part, payload, rename)
        elif key in payload:
            value = payload[key]
            if cast is not None:
                try:
                    value = cast(value)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"{key} must be {cast.__name__}, got {value!r}"
                    ) from None
            kwargs[f.name] = value
    return cls(**kwargs)


def build(cls: type, payload: Mapping, path: str, rename: _Rename = ()):
    """Construct dataclass ``cls`` from the keys ``payload`` carries.

    Unknown keys are rejected; a :class:`ConfigError` from a cast or from
    the class's own validation is re-raised with ``path`` in front.
    """
    reject_unknown(payload, accepted(cls, rename), path)
    try:
        return _build(cls, payload, rename)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
def compact(obj) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def indented(obj) -> str:
    """Canonical human-diffable JSON: sorted keys, two-space indent, no
    trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True)


def sha256(obj) -> str:
    """Hex SHA-256 of :func:`compact`."""
    return hashlib.sha256(compact(obj).encode("utf-8")).hexdigest()
