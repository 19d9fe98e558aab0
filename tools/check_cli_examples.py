#!/usr/bin/env python3
"""Check that every documented ``naspipe`` command line still parses.

Extracts each ``naspipe ...`` / ``python -m repro ...`` command line
from ``README.md``, ``EXPERIMENTS.md``, ``docs/*.md`` (fenced code and
inline code spans), the ``Makefile`` and ``.github/workflows/ci.yml``
(``\\`` and YAML ``>`` continuations joined), and hands its arguments to
the real parser (:func:`repro.cli.build_parser`).  Parse only — nothing
runs.  Fails (exit 1) listing ``file:line`` of every command the CLI
would reject.  Lines containing ``...`` or a ``<placeholder>`` are
skipped; a bare ``naspipe <command>`` mention only has to name a real
command.  Run from anywhere: ``python tools/check_cli_examples.py``.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import _COMMANDS, build_parser  # noqa: E402

_COMMAND = re.compile(r"(?:\bnaspipe|\bpython3? -m repro)[ \t]+(\S.*)")
_INLINE_CODE = re.compile(r"`([^`]+)`")
_SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "2>", "<"}


def documented_files() -> List[Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    files += [REPO_ROOT / "Makefile", REPO_ROOT / ".github/workflows/ci.yml"]
    return files


def logical_lines(path: Path) -> Iterator[Tuple[int, str]]:
    """``(first line number, text)`` with continuations joined."""
    start, pending, folded_indent = 0, "", None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.rstrip()
        indent = len(line) - len(line.lstrip())
        if folded_indent is not None:  # inside a YAML ``run: >`` block
            if line and indent > folded_indent:
                pending += " " + line.strip()
                continue
            yield start, pending
            pending, folded_indent = "", None
        if not pending:
            start = lineno
        pending = f"{pending} {line.strip()}" if pending else line
        if pending.endswith("\\"):
            pending = pending[:-1].rstrip()
        elif re.search(r":\s*>-?$", pending):
            pending, folded_indent = "", indent
        else:
            yield start, pending
            pending = ""
    if pending:
        yield start, pending


def code_snippets(path: Path) -> Iterator[Tuple[int, str]]:
    """The parts of ``path`` that are code: all of a Makefile/workflow,
    fenced blocks and inline spans of a markdown file."""
    in_fence = False
    for lineno, line in logical_lines(path):
        if path.suffix != ".md":
            yield lineno, line
        elif line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif in_fence:
            yield lineno, line
        else:
            for span in _INLINE_CODE.findall(line):
                yield lineno, span


def command_lines(path: Path) -> Iterator[Tuple[int, List[str]]]:
    for lineno, snippet in code_snippets(path):
        match = _COMMAND.search(snippet)
        if match is None or "..." in snippet or re.search(r"<[^>]+>", snippet):
            continue
        argv = shlex.split(match.group(1), comments=True)
        for index, token in enumerate(argv):
            if token in _SHELL_OPERATORS:
                argv = argv[:index]
                break
        yield lineno, argv


def check() -> Tuple[int, List[str]]:
    parser = build_parser()
    checked, problems = 0, []
    for path in documented_files():
        for lineno, argv in command_lines(path):
            checked += 1
            where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
            if len(argv) == 1 and not argv[0].startswith("-"):
                if argv[0] not in _COMMANDS:  # a bare mention of a command
                    problems.append(f"{where}: no such command: naspipe {argv[0]}")
                continue
            output = io.StringIO()
            try:
                with contextlib.redirect_stderr(output):
                    with contextlib.redirect_stdout(output):
                        parser.parse_args(argv)
            except SystemExit as exit_info:
                if exit_info.code:  # --help prints and exits 0
                    reason = output.getvalue().strip().splitlines()[-1]
                    problems.append(f"{where}: naspipe {' '.join(argv)}\n    {reason}")
    return checked, problems


def main() -> int:
    checked, problems = check()
    if problems:
        print("\n".join(problems))
        print(f"\n{len(problems)} documented command line(s) the CLI rejects")
        return 1
    print(f"all {checked} documented naspipe command lines parse")
    return 0


if __name__ == "__main__":
    sys.exit(main())
