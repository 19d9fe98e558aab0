#!/usr/bin/env python
"""List the public definitions of ``src/repro`` that only tests read.

A definition is a module-level function, class or name, or a method of
a module-level class, whose name does not start with ``_``.  It has a
caller when its name appears, as a word, anywhere in a ``.py`` file of
``src/``, ``ledger/``, ``tools/``, ``examples/`` or ``benchmarks/`` other
than on its own ``def`` line.  A string counts (the ledger's span table
and ``getattr`` reach methods by name), and so does a package's
``_exports`` table: what a package exports is its documented surface
(docs/API.md).  A name ``tools/check_one_spelling.py`` forbids does not
count.  A definition with no caller is test-only API: delete it, or move
it into the test helper that reads it.  ``ALLOWED`` names the few that
stay, each with its reason.

``python tools/test_only_api.py`` prints what the scan finds;
``--check`` (run by ``make docs-check`` and the CI ``docs`` job) also
exits 1 when it finds anything outside ``ALLOWED`` or an ``ALLOWED``
entry that has a caller or is gone.
"""

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "ledger", "tools", "examples", "benchmarks")
#: this scan, and the rules that name the spellings they forbid
NOT_CALLERS = ("tools/test_only_api.py", "tools/check_one_spelling.py")
WORD = re.compile(r"[A-Za-z_]\w*")

#: qualified name -> why it stays without a caller outside tests
ALLOWED = {
    "DependencyTracker.unreleased_users": (
        "the brute-force lookahead oracle of tests/test_core_predictor.py reads it"
    ),
    "DependencyTracker.indexed_ids": (
        "tests/test_dependency_reference.py compares it with the reference tracker"
    ),
    "DependencyTracker.has_scope": (
        "tests/test_dependency_reference.py compares it with the reference tracker"
    ),
}


def definitions(tree: ast.Module):
    """(name, qualified name, line) of each definition in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield sub.name, f"{node.name}.{sub.name}", sub.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node.lineno


def scan(root: Path = ROOT):
    """``[(path:line, qualified name)]`` of every definition without a caller."""
    seen = defaultdict(set)  # word -> {(path, line)}
    for directory in CALLER_DIRS:
        for path in (root / directory).rglob("*.py"):
            if path.relative_to(root).as_posix() in NOT_CALLERS:
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for word in WORD.findall(line):
                    seen[word].add((path, number))
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for name, qualified, line in definitions(ast.parse(path.read_text())):
            if not name.startswith("_") and not seen[name] - {(path, line)}:
                found.append((f"{path.relative_to(root)}:{line}", qualified))
    return found


def main(argv) -> int:
    found = scan()
    names = {qualified for _, qualified in found}
    unexpected = [(where, q) for where, q in found if q not in ALLOWED]
    stale = sorted(set(ALLOWED) - names)
    for where, qualified in found:
        note = f"  (allowed: {ALLOWED[qualified]})" if qualified in ALLOWED else ""
        print(f"{where}: {qualified}{note}")
    if argv[:1] != ["--check"]:
        return 0
    for qualified in stale:
        print(f"ALLOWED names {qualified}, which has a caller or is gone")
    if unexpected or stale:
        print(f"{len(unexpected)} test-only definition(s) in src/repro: "
              "delete each or move it into the test helper that reads it")
        return 1
    print(f"src/repro: no test-only API beyond the {len(ALLOWED)} allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
