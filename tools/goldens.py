#!/usr/bin/env python3
"""Print, rewrite or check the one evidence store, ``tests/goldens.json``.

    python tools/goldens.py [--check | --write] [--tree DIR]

Runs every manifest entry's producer (``tests/goldens.py``) in a fresh
interpreter started in DIR (default: this checkout), against DIR's
``src/`` and ``examples/``.  With no option it prints the manifest
holding DIR's values; ``--write`` writes that text to
``tests/goldens.json``; ``--check`` fails naming each entry whose pin
DIR does not reproduce.  ``--check --tree <clone of the parent>`` is
"did any pinned byte move?" as one command.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from goldens import MANIFEST, stale  # noqa: E402


def produced(tree: Path) -> str:
    """The manifest's text with each value as ``tree`` produces it."""
    path = os.pathsep.join([str(tree / "src"), str(ROOT / "tests")])
    done = subprocess.run(
        [sys.executable, "-m", "goldens"],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise SystemExit(f"{done.stderr}\n{tree}: a producer failed")
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="fail when an entry is stale")
    mode.add_argument("--write", action="store_true", help="rewrite tests/goldens.json")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to run")
    args = parser.parse_args(argv)
    text = produced(args.tree.resolve())
    if args.write:
        MANIFEST.write_text(text)
    elif args.check:
        pinned, fresh = json.loads(MANIFEST.read_text()), json.loads(text)
        moved = stale(pinned, fresh)
        for name in moved:
            print(f"{name}: pinned {pinned.get(name, {}).get('value')}, "
                  f"{args.tree} gives {fresh.get(name, {}).get('value')}")
        print(f"{MANIFEST.relative_to(ROOT)}: {len(moved)} of {len(pinned)} entries stale")
        return 1 if moved else 0
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
