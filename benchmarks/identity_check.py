"""Parent-vs-change byte identity of ``identity_dump.py``, in one command.

A refactor that claims "same behaviour" is checked against its parent
commit with::

    make identity-check PARENT=<rev>
    python benchmarks/identity_check.py <rev>

The parent is checked out with ``git worktree`` in a temporary
directory, removed at the end.  This checkout's ``identity_dump.py``
runs once on the parent's ``src/`` and once on the working tree's, and
the two dumps are compared byte for byte.  The exit status is 0 when
they are identical; otherwise the numbers of the differing lines are
printed and the exit status is 1.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DUMP = os.path.join(ROOT, "benchmarks", "identity_dump.py")


def dump(checkout: str, out: str) -> bytes:
    """Run the dump on ``checkout``'s ``src/``; returns the dump's bytes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    subprocess.run([sys.executable, DUMP, out], cwd=checkout, env=env, check=True)
    with open(out, "rb") as handle:
        return handle.read()


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: identity_check.py PARENT", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="identity-check-") as tmp:
        parent = os.path.join(tmp, "parent")
        subprocess.run(
            ["git", "worktree", "add", "--detach", parent, argv[0]],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        try:
            before = dump(parent, os.path.join(tmp, "parent.jsonl"))
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", parent], cwd=ROOT, check=True
            )
        after = dump(ROOT, os.path.join(tmp, "change.jsonl"))
    lines = before.splitlines()
    if before == after:
        print(f"identity dumps identical ({len(lines)} lines)")
        return 0
    pairs = itertools.zip_longest(lines, after.splitlines())
    differing = [str(n) for n, (a, b) in enumerate(pairs, 1) if a != b]
    print(f"identity dumps differ on lines: {' '.join(differing) or 'line endings'}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
