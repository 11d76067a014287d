"""List every statement of src/toricstab that no test in tests/ runs.

Usage, from any directory (about three minutes; not part of the test suite):

    python3 tools/unreached_lines.py > unreached.txt

Runs `pytest.main` on tests/ under `sys.settrace` and `threading.settrace`,
then prints `module:line: source` for each statement none of whose own lines
ran; a compound statement's own lines are those before its body.  Defs,
classes, imports, `try`, `global` and docstrings are not listed.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricstab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (*DEFS, ast.Import, ast.ImportFrom, ast.Try, ast.Global)


def statements(tree: ast.Module):
    """(first, last) own line of every listed statement."""
    owners = [n for n in ast.walk(tree) if isinstance(n, (ast.Module, *DEFS))]
    docstrings = {id(n.body[0]) for n in owners if ast.get_docstring(n, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED) and id(node) not in docstrings:
            inner = [s.lineno for f in ("body", "orelse", "handlers", "finalbody") for s in getattr(node, f, ())]
            yield node.lineno, max(node.lineno, min(inner, default=node.end_lineno + 1) - 1)


def main() -> int:
    ran: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):  # global on a call, tracing only the package's frames; local on a line
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace if frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    threading.settrace(trace)
    sys.settrace(trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])  # src/ on the path by pyproject
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source, lines = path.read_text(), ran[str(path)]
        for first, last in sorted(statements(ast.parse(source))):
            if lines.isdisjoint(range(first, last + 1)):
                print(f"{path.stem}:{first}: {source.splitlines()[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
