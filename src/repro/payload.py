"""One reading of a JSON config, one writing of a canonical report.

**Reader.**  :func:`reject_unknown` turns a mistyped key into a
:class:`~repro.errors.ConfigError` naming *where* (``jobs[0].overrides``),
the offending keys and the accepted set; :func:`build` constructs a
dataclass from only the keys a payload carries — so **the dataclass
default is the only default** — and :func:`checked` reads a partial one
(``overrides``).  :func:`check` checks, never casts, each value against its
field's declared type: ``2.5``, ``"3"`` and ``true`` are not integers, and
a number is finite and arrives as a float (``"rate_rps": 30`` as ``30.0``).
A field declared with :func:`at_least` or :func:`positive` is range-checked
too, and a list's items are checked one by one.

**Writer.**  Every report, digest and registry line that is pinned or
hashed goes through :func:`compact`, :func:`indented` or :func:`sha256`.

``repro.cli`` imports this module: standard library and ``repro.errors``
only.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from typing import Dict, Iterable, Mapping, Tuple

from repro.errors import ConfigError

__all__ = ["reject_unknown", "require", "accepted", "checked", "build", "check", "check_ranges",
           "integer", "number", "at_least", "positive", "compact", "indented", "sha256"]


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
def reject_unknown(payload: Mapping, known: Iterable[str], path: str) -> None:
    """Raise unless ``payload`` is an object and every key of it is in
    ``known``."""
    if not isinstance(payload, Mapping):
        raise ConfigError(
            f"{path} must be an object, got {type(payload).__name__}"
        )
    known = set(known)
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {unknown}; "
            f"expected a subset of {sorted(known)}"
        )


def require(payload: Mapping, keys: Iterable[str], path: str) -> None:
    """Raise unless ``payload`` carries every one of ``keys``."""
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")


def integer(path: str, key: str, value, minimum=None) -> int:
    """``value`` if it is an int (not a bool) ``>= minimum``, else a
    :class:`ConfigError` naming the ``key`` of the config ``path``."""
    floor = "" if minimum is None else f" >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, int) or (floor and value < minimum):
        raise ConfigError(f"{path}: {key} must be an integer{floor}, got {value!r}")
    return value


def number(path: str, key: str, value, positive: bool = False) -> float:
    """Likewise, ``value`` as a float if it is a finite int or float (not
    a bool), ``> 0`` when ``positive``."""
    floor = " > 0" if positive else ""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and (value > 0 or not positive)
    ):
        raise ConfigError(f"{path}: {key} must be a finite number{floor}, got {value!r}")
    return float(value)


def at_least(minimum: int, **field):
    """A dataclass field whose int (or each int of its list) the reader
    checks is ``>= minimum``; ``field`` is :func:`dataclasses.field`'s."""
    return dataclasses.field(metadata={"minimum": minimum}, **field)


def positive(**field):
    """Likewise, a number field (or list of numbers) checked ``> 0``."""
    return dataclasses.field(metadata={"positive": True}, **field)


#: a declared type → its name in docs/OPERATIONS.md, what a value must be
_KINDS = {
    int: ("int", "an integer"),
    float: ("number", "a finite number"),
    bool: ("bool", "true or false"),
    str: ("str", "a string"),
    Mapping: ("object", "an object"),
    list: ("array", "an array"),
}


def check(path: str, key: str, value, declared: type, nullable: bool = False,
          element=None, minimum=None, positive: bool = False):
    """``value`` if it is JSON of the ``declared`` type, a key of
    :data:`_KINDS` (or ``null`` when ``nullable``), in its field's range;
    a list's items are ``element``s, checked under ``key[i]`` (a
    dataclass item is built under ``path.key[i]``)."""
    if value is None and nullable:
        return None
    if declared is int:
        return integer(path, key, value, minimum)
    if declared is float:
        return number(path, key, value, positive)
    if not isinstance(value, declared):
        raise ConfigError(f"{path}: {key} must be {_KINDS[declared][1]}, got {value!r}")
    if dataclasses.is_dataclass(element):
        return [build(element, item, f"{path}.{key}[{i}]") for i, item in enumerate(value)]
    if element is not None:
        return [
            check(path, f"{key}[{i}]", item, element, minimum=minimum, positive=positive)
            for i, item in enumerate(value)
        ]
    return value


_Rename = Tuple[Tuple[str, str], ...]


def _kind(hint) -> type:
    """The :data:`_KINDS` key (or dataclass) a non-``Optional`` hint
    declares: any mapping is ``Mapping``, ``List[X]`` a ``list``."""
    declared = typing.get_origin(hint) or hint
    return Mapping if issubclass(declared, Mapping) else declared


@functools.lru_cache(maxsize=None)
def _field_table(cls: type, rename: _Rename) -> tuple:
    """Per init field of ``cls``: its payload key, the field, its declared
    type (``Optional[X]`` is a nullable ``X``; a dataclass is read from
    the *same* flat payload), if it is nullable and, of a ``List[X]``,
    ``X``."""
    spelled = {name: key for key, name in rename}
    hints, rows = typing.get_type_hints(cls), []
    for f in (f for f in dataclasses.fields(cls) if f.init):
        hint = hints[f.name]
        nullable = type(None) in typing.get_args(hint)
        if nullable:  # Optional[X] is Union[X, None]
            hint = typing.get_args(hint)[0]
        declared, args = _kind(hint), typing.get_args(hint)
        element = _kind(args[0]) if declared is list and args else None
        rows.append((spelled.get(f.name, f.name), f, declared, nullable, element))
    return tuple(rows)


def accepted(cls: type, rename: _Rename = ()) -> Dict[str, Tuple[dataclasses.Field, str]]:
    """The payload keys ``build(cls, …, rename=rename)`` reads, in field
    order, each with the field it fills and the JSON type it takes (such
    as ``int|null``); ``rename`` is ``(payload key, field name)`` pairs."""
    keys = {}
    for key, f, declared, nullable, _element in _field_table(cls, rename):
        if dataclasses.is_dataclass(declared):
            keys.update(accepted(declared, rename))
        else:
            keys[key] = (f, _KINDS[declared][0] + "|null" * nullable)
    return keys


def _values(cls: type, payload: Mapping, path: str, rename: _Rename) -> dict:
    kwargs = {}
    for key, f, declared, nullable, element in _field_table(cls, rename):
        if dataclasses.is_dataclass(declared):
            kwargs[f.name] = declared(**_values(declared, payload, path, rename))
        elif key in payload:
            kwargs[f.name] = check(path, key, payload[key], declared, nullable, element, **f.metadata)
    return kwargs


def checked(cls: type, payload: Mapping, path: str, rename: _Rename = ()) -> dict:
    """The fields of dataclass ``cls`` that ``payload`` sets, by name,
    each value checked; unknown keys are rejected."""
    reject_unknown(payload, accepted(cls, rename), path)
    return _values(cls, payload, path, rename)


def check_ranges(obj, path: str, error: type = ConfigError) -> None:
    """:func:`check` each field of dataclass ``obj`` declared with
    :func:`at_least` or :func:`positive`, for a caller that constructs it
    directly; the reader's message is raised as ``error``."""
    try:
        for key, f, declared, nullable, element in _field_table(type(obj), ()):
            if f.metadata:
                check(path, key, getattr(obj, f.name), declared, nullable, element, **f.metadata)
    except ConfigError as exc:
        raise error(str(exc)) from None


def build(cls: type, payload: Mapping, path: str, rename: _Rename = ()):
    """Construct dataclass ``cls`` from the keys ``payload`` carries.

    Unknown keys, values of the wrong type and a missing key of a field
    with no default are rejected; a :class:`ConfigError` from the class's
    own validation is re-raised, of its own class, with ``path`` in
    front.
    """
    kwargs = checked(cls, payload, path, rename)
    fields = accepted(cls, rename).items()
    # a field with no default has both default and factory MISSING
    require(payload, [key for key, (f, _) in fields if f.default is f.default_factory], path)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
