"""Line census: the statements of leanreg's functions that the test suite never runs.

Run from the repository root::

    PYTHONPATH=src python tests/line_census.py [pytest args...]

It runs the test suite in this process (by default the whole ``tests``
directory, quietly) under a ``sys.settrace`` hook that records every
line executed in ``src/leanreg``, then prints ``module:line: statement``
for each statement inside a function there that never ran.  A
statement counts as run when any line of it that carries bytecode was
executed; for a compound statement (``if``, ``for``, ``while``,
``with``, ``def``) only its header counts.  Module and class bodies
are not censused: importing the package runs them.

Exit status: pytest's, if the suite failed; otherwise 1 if any
statement is listed and 0 if none.  It needs only the standard library
and pytest, and pytest does not collect it (the name does not start
with ``test_``).
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "leanreg"

PREFIX = str(PACKAGE) + os.sep
COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try)


def executed_lines(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``argv`` under the tracer; its status and the lines hit per file."""
    hits: dict[str, set[int]] = {}
    by_name: dict[str, set[int] | None] = {}  # None: a file outside the package

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = os.path.realpath(name)
            by_name[name] = hits.setdefault(path, set()) if path.startswith(PREFIX) else None
        lines = by_name[name]
        if lines is None:
            return None

        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace

    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    return int(status), hits


def code_lines(code) -> set[int]:
    """Every line that carries bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement, less the bodies of a compound one."""
    if isinstance(node, COMPOUND):
        first_body = min(child.lineno for child in node.body)
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        return range(start, max(first_body, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def statements_in_functions(tree: ast.Module) -> list[ast.stmt]:
    """Each statement nested in a function of the module, docstrings excepted."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        stack = list(body)
        while stack:
            node = stack.pop()
            found.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # its own body is censused as a function of its own
            for field in ("body", "orelse", "finalbody"):
                stack += getattr(node, field, [])
            for handler in getattr(node, "handlers", []):
                stack += handler.body
    return sorted(found, key=lambda n: n.lineno)


def never_run(hits: dict[str, set[int]]) -> list[str]:
    """``module:line: statement`` for each executable statement with no executed line."""
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        executable = code_lines(compile(source, str(path), "exec"))
        lines = source.splitlines()
        ran = hits.get(os.path.realpath(path), set())
        for node in statements_in_functions(ast.parse(source, str(path))):
            mine = set(own_lines(node)) & executable
            if mine and not mine & ran:
                report.append(f"{path.stem}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    return report


def main(argv: list[str]) -> int:
    status, hits = executed_lines(argv or ["-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    leanreg = sys.modules.get("leanreg")
    if leanreg is None or not os.path.realpath(leanreg.__file__).startswith(PREFIX):
        where = "never imported" if leanreg is None else f"imported from {leanreg.__file__}"
        print(f"line census: leanreg was {where}, not from {PACKAGE}", file=sys.stderr)
        return 2
    report = never_run(hits)
    print(f"\nline census: {len(report)} statement(s) in src/leanreg functions never ran")
    print("\n".join(report))
    return status or (1 if report else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
