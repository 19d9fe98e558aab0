#!/usr/bin/env python
"""Print the "Event schema reference" tables of ``docs/TRACING.md``.

Every row is read from ``repro.obs.events.EVENT_SCHEMAS`` (kind, scope,
fields, meaning) and from the exporter's kind tables (where the kind
shows in Perfetto, or why it is not drawn), so the reference cannot name
a kind the validator rejects, miss one it accepts, or describe a track
the exporter does not draw.  Regenerate instead of editing by hand::

    python tools/trace_kinds.py                  # print the block
    python tools/trace_kinds.py --write docs/TRACING.md
    python tools/trace_kinds.py --check docs/TRACING.md   # make docs-check
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marked_block import sync  # noqa: E402

from repro.obs import EVENT_SCHEMAS, exporter  # noqa: E402

BEGIN, END = "<!-- trace-kinds:begin -->", "<!-- trace-kinds:end -->"

_SCOPES = {"g": "global", "p": "process", "t": "thread"}
_PHASES = {"X": "span", "C": "counter", "i": "instant"}


def _scope(schema) -> str:
    scoped = [
        name
        for name, on in (("stage", schema.stage_scoped), ("subnet", schema.subnet_scoped))
        if on
    ]
    return ", ".join(scoped) or "—"


def _fields(schema) -> str:
    return "; ".join(f"`{field.name}` — {field.doc}" for field in schema.fields) or "—"


def _perfetto(kind: str) -> str:
    if kind in exporter._INSTANTS:
        pid, category, scope, _, _ = exporter._INSTANTS[kind]
        return f"{exporter._PROCESS_NAMES[pid]}: {_SCOPES[scope]} instant, category `{category}`"
    if kind in exporter._SPECIAL:
        pid, phase, _ = exporter._SPECIAL[kind]
        return f"{exporter._PROCESS_NAMES[pid]}: {_PHASES[phase]}"
    return f"not drawn: {exporter._NOT_RENDERED[kind]}"


def block() -> str:
    by_emitter = {}
    for schema in EVENT_SCHEMAS.values():
        by_emitter.setdefault(schema.emitter, []).append(schema)
    lines = [BEGIN]
    for emitter, schemas in by_emitter.items():
        lines += [
            "",
            f"### Emitted by `{emitter}`",
            "",
            "| kind | scope | fields | meaning | Perfetto |",
            "|---|---|---|---|---|",
        ]
        lines += [
            f"| `{s.kind}` | {_scope(s)} | {_fields(s)} | {s.doc} | {_perfetto(s.kind)} |"
            for s in schemas
        ]
    return "\n".join(lines + ["", END])


def main(argv) -> int:
    return sync(argv, __file__, BEGIN, END, block(), "event schema reference")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
