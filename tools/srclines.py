"""Count the lines of ``src/giantnet/*.py``, split into docstring lines and other lines.

    python tools/srclines.py [REV]

Reads the working tree, or with REV the files of that git revision
through ``git show``. Docstring lines are the lines of module, class and
function docstrings, found with ``ast``; every other line (code,
comments, blanks) counts as other. Prints one line per file and the
total.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/giantnet"
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """``(docstring lines, other lines)`` of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return len(docs), len(source.splitlines()) - len(docs)


def sources(rev: str | None) -> dict[str, str]:
    """File name -> source of every module of the package, in the working tree or at ``rev``."""
    if rev is None:
        return {path.name: path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    names = [Path(p).name for p in git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split() if p.endswith(".py")]
    return {name: git("show", f"{rev}:{PACKAGE}/{name}") for name in sorted(names)}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/srclines.py [REV]", file=sys.stderr)
        return 2
    rows = [(name, *count(source)) for name, source in sources(argv[0] if argv else None).items()]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'file':<16}{'docstring':>10}{'other':>8}{'total':>8}")
    for name, docs, other in rows:
        print(f"{name:<16}{docs:>10}{other:>8}{docs + other:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
