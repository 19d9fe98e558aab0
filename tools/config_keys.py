#!/usr/bin/env python
"""Print the "accepted config keys" tables of ``docs/OPERATIONS.md``.

Every row is the field table of the dataclass the payload reader
(``repro.payload``) builds from that config, so the tables cannot name a
key the code rejects or miss one it accepts, and a key's type and
default are the ones its field declares.  Regenerate instead of
editing by hand::

    python tools/config_keys.py                  # print the block
    python tools/config_keys.py --write docs/OPERATIONS.md
    python tools/config_keys.py --check docs/OPERATIONS.md   # make docs-check
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marked_block import sync  # noqa: E402

from repro import SearchSpace, SystemConfig  # noqa: E402
from repro.cli import ChaosConfig, FaultsConfig, TraceConfig  # noqa: E402
from repro.ft import FaultEvent  # noqa: E402
from repro.ft.fleet import FleetConfig  # noqa: E402
from repro.obs.telemetry.alerts import AlertRule, BurnWindow  # noqa: E402
from repro.payload import accepted  # noqa: E402
from repro.service.scheduler import JobSpec, ServiceConfig  # noqa: E402
from repro.serving import ServingSpec, frontend  # noqa: E402

BEGIN, END = "<!-- config-keys:begin -->", "<!-- config-keys:end -->"


def _typed(key, kind, default=dataclasses.MISSING):
    """``key``:type (required) or ``key``:type=default (as JSON); the
    ``|`` of ``int|null`` escaped for the table."""
    kind = kind.replace("|", "\\|")
    cell = f"`{key}`:{kind}"
    return cell if default is dataclasses.MISSING else f"{cell}={json.dumps(default)}"


def _default(f):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def _fields(cls, rename=(), defaults=True):
    """Every accepted key with its type (``int``, ``number``, ``bool``,
    ``str``, ``object`` or ``array``, ``|null`` when it may be null), and
    its default unless the object overrides another's values
    (``overrides``)."""
    return ", ".join(
        _typed(key, kind, _default(f) if defaults else dataclasses.MISSING)
        for key, (f, kind) in accepted(cls, rename).items()
    )


def block() -> str:
    rows = [
        ("`trace`, `analyze`", "the config", _fields(TraceConfig)),
        ("`faults`", "the config", _fields(FaultsConfig)),
        ("`chaos`", "the config", _fields(ChaosConfig)),
        ("`serve`, `monitor`", "the config", _fields(ServiceConfig)),
        ("`chaos-fleet`", "the config", _fields(FleetConfig)),
        ("`serve`, `chaos-fleet`", "each of `jobs`", _fields(JobSpec)),
        (
            "`bench-serving`, `monitor`, `chaos-fleet`",
            "the config / `serving`",
            _fields(ServingSpec, frontend._RENAME),
        ),
        ("`faults`, `serve`", "each of `faults`", _fields(FaultEvent)),
        ("`monitor --rules`", "each rule", _fields(AlertRule)),
        ("`monitor --rules`", "each of `windows`", _fields(BurnWindow)),
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
