#!/usr/bin/env python
"""Print the "Instrument catalog" table of ``docs/TELEMETRY.md``.

Every row is read from ``repro.obs.telemetry.INSTRUMENTS`` — the table
the hub registers its instruments from — so the catalog cannot list an
instrument the hub never emits, miss one it does, or drop a label (a
``--rules`` threshold written against a label-less name never fires).
Regenerate instead of editing by hand::

    python tools/telemetry_catalog.py                  # print the block
    python tools/telemetry_catalog.py --write docs/TELEMETRY.md
    python tools/telemetry_catalog.py --check docs/TELEMETRY.md   # make docs-check
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marked_block import sync  # noqa: E402

from repro.obs.telemetry import INSTRUMENTS  # noqa: E402

BEGIN, END = "<!-- telemetry-catalog:begin -->", "<!-- telemetry-catalog:end -->"


def block() -> str:
    lines = [
        BEGIN,
        "| instrument | type | labels | meaning |",
        "|---|---|---|---|",
    ]
    lines += [
        f"| `{name}` | {kind} | {', '.join(labels) or '—'} | {help} |"
        for name, (kind, labels, help, *_) in INSTRUMENTS.items()
    ]
    return "\n".join(lines + [END])


def main(argv) -> int:
    return sync(argv, __file__, BEGIN, END, block(), "instrument catalog")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
