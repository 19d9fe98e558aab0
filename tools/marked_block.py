"""The write/check half of a generated doc block, shared by the tools
that own one (``config_keys.py``, ``trace_kinds.py``,
``telemetry_catalog.py``): the text between two HTML-comment markers
in a markdown file is a generator's output,
``--write`` replaces it and ``--check`` fails when it is stale."""

from __future__ import annotations

from pathlib import Path


def sync(argv, tool: str, begin: str, end: str, block: str, what: str) -> int:
    """``[]`` prints ``block``; ``[--write|--check, FILE]`` syncs or
    compares the marked block of ``FILE``.  Returns the exit status."""
    if not argv:
        print(block)
        return 0
    mode, path = argv[0], Path(argv[1])
    text = path.read_text()
    if begin not in text or end not in text:
        print(f"{path}: no {begin} … {end} block")
        return 1
    current = text[text.index(begin) : text.index(end) + len(end)]
    if mode == "--write":
        path.write_text(text.replace(current, block))
        return 0
    if current != block:
        print(f"{path}: {what}: stale; run {tool} --write {path}")
        return 1
    print(f"{path}: {what}: up to date with the code")
    return 0
