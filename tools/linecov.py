"""List the lines of ``src/giantnet`` that no test reaches.

    python tools/linecov.py [PYTEST ARGS ...]

Runs pytest in this process, from the repository root and with the
arguments given (none: the whole tier-1 suite), under a ``sys.settrace``
tracer that traces only frames of code in ``src/giantnet``. Then prints
one ``path:line: source`` line per executable line that never ran, and
the count. A line is executable when a code object compiled from the file
maps an instruction to it; the lines of module, class and function
docstrings are not counted. Exits with pytest's status: unreached lines
alone never fail the command.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "giantnet"
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module, class and function docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code maps to, docstrings left out."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstring_lines(ast.parse(source))


def main(argv: list[str]) -> int:
    reached: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + os.sep

    def trace_lines(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None  # no line events for frames outside the package
        return trace_lines(frame, event, arg)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {n for f, n in reached if f == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
