#!/usr/bin/env python
"""Print the "accepted config keys" tables of ``docs/OPERATIONS.md``.

Every list below is the tuple or the dataclass field table the payload
reader (``repro.payload``) itself checks a config against, so the tables
cannot name a key the code rejects or miss one it accepts, and a key's
type is the one its value is checked against.  Regenerate instead of
editing by hand::

    python tools/config_keys.py                  # print the block
    python tools/config_keys.py --write docs/OPERATIONS.md
    python tools/config_keys.py --check docs/OPERATIONS.md   # make docs-check
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marked_block import sync  # noqa: E402

from repro import SearchSpace, SystemConfig, cli  # noqa: E402
from repro.ft import FaultEvent, fleet  # noqa: E402
from repro.obs.telemetry import alerts  # noqa: E402
from repro.payload import _KINDS, accepted  # noqa: E402
from repro.service import JobScheduler, JobSpec, scheduler  # noqa: E402
from repro.serving import ServingSpec, frontend  # noqa: E402

BEGIN, END = "<!-- config-keys:begin -->", "<!-- config-keys:end -->"


def _typed(key, kind, default=dataclasses.MISSING):
    """``key``:type (required) or ``key``:type=default (as JSON); the
    ``|`` of ``int|null`` escaped for the table."""
    kind = kind.replace("|", "\\|")
    cell = f"`{key}`:{kind}"
    return cell if default is dataclasses.MISSING else f"{cell}={json.dumps(default)}"


def _fields(cls, rename=(), defaults=True):
    """Every accepted key with its type (``int``, ``number``, ``bool``,
    ``str``, ``object`` or ``array``, ``|null`` when it may be null), and
    its default unless the object overrides another's values
    (``overrides``)."""
    return ", ".join(
        _typed(key, kind, f.default if defaults else dataclasses.MISSING)
        for key, (f, kind) in accepted(cls, rename).items()
    )


def _keys(keys):
    return ", ".join(f"`{key}`" for key in keys)


def block() -> str:
    knobs = inspect.signature(JobScheduler.__init__).parameters
    types = typing.get_type_hints(JobScheduler.__init__)
    knob_cells = ", ".join(
        _typed(k, _KINDS[types[k]][0], knobs[k].default) for k in scheduler.SCHEDULER_KNOBS
    )
    rows = [
        ("`trace`, `analyze`", "the config", _keys(cli._RUN_KEYS)),
        ("`faults`", "the config", _keys(cli._FAULTS_KEYS)),
        ("`chaos`", "the config", _keys(cli._CHAOS_KEYS)),
        ("`serve`, `monitor`", "the config", _keys(scheduler._SERVICE_KEYS) + ", " + knob_cells),
        ("`chaos-fleet`", "the config", _keys(fleet._FLEET_KEYS) + ", " + knob_cells),
        ("`serve`, `chaos-fleet`", "each of `jobs`", _fields(JobSpec)),
        (
            "`bench-serving`, `monitor`, `chaos-fleet`",
            "the config / `serving`",
            _fields(ServingSpec, frontend._RENAME),
        ),
        ("`faults`, `serve`", "each of `faults`", _fields(FaultEvent)),
        ("`monitor --rules`", "each rule", _keys(sorted(alerts._RULE_KEYS))),
        ("any", "`space_overrides`", _fields(SearchSpace, defaults=False)),
        ("any", "`overrides`", _fields(SystemConfig, defaults=False)),
    ]
    header = "| command | object | accepted keys (`key`:type=default) |"
    lines = [BEGIN, header, "|---|---|---|"]
    lines += [f"| {command} | {where} | {keys} |" for command, where, keys in rows]
    return "\n".join(lines + [END])


def main(argv) -> int:
    return sync(argv, __file__, BEGIN, END, block(), "accepted-config-keys tables")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
