"""A pytest plugin that lists the statements of ``src/demeterlint`` that a
test run never executes in-process.

Run from the repository root::

    PYTHONPATH=src:scripts python -m pytest -q -p untraced

It traces line events with ``sys.settrace`` from its own import on, so the
package's imports count too.  Hypothesis installs its
own tracer while it runs, so the plugin installs its tracer again before
each test call.  Child processes (the CLI tests' ``python3 -m
demeterlint.cli``) are not traced, so what only they run is listed.

A statement counts as run when a line event falls on one of its own lines
(a compound statement's header, up to its first nested statement) or on a
statement nested in it.  Docstrings, ``global``/``nonlocal`` and bare
annotations in a function, which compile to nothing, are not counted.  Nor
is a statement on a ``pragma: no cover`` line, with all it nests, or the
``else``/``finally`` block that such a line opens.  At the end of the run
the plugin prints each never-run statement as ``path:line: text`` and the
totals per file.  Hypothesis draws new examples on each run, so the counts
move by a few statements from run to run.  It is not part of the tier-1
tests.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "demeterlint"
PRAGMA = "pragma: no cover"

#: The lines each source file ran, by file name as its code objects give it.
_seen: dict[str, set[int]] = {str(path): set() for path in sorted(SRC.rglob("*.py"))}


def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename in _seen:
        _seen[filename].add(frame.f_lineno)
        return _local
    return None


def _install() -> None:
    sys.settrace(_global)
    threading.settrace(_global)


# Installed on import, before pytest loads the conftest files that import
# the package.
_install()


def _blocks(node: ast.stmt, lines: list[str]):
    """(opening line, statements) of each block nested in ``node``.  The
    line that opens an ``else`` or ``finally`` block is found by scanning
    up from its first statement; an ``elif`` opens itself."""
    if isinstance(getattr(node, "body", None), list):
        yield node.lineno, node.body
    for handler in getattr(node, "handlers", ()):
        yield handler.lineno, handler.body
    for field in ("orelse", "finalbody"):
        block = getattr(node, field, None)
        if block:
            opener = block[0].lineno
            while opener > node.lineno and not lines[opener - 1].lstrip().startswith(
                ("else", "finally", "elif")
            ):
                opener -= 1
            yield opener, block


#: A counted statement: its first line, its last own line (a compound
#: statement's header ends before its first block) and the indices of the
#: counted statements nested in it.
_Stmt = tuple[int, int, list[int]]


def _walk(body, lines: list[str], out: list[_Stmt], in_function: bool, excluded: bool):
    """Append the counted statements of ``body`` to ``out``, each after
    those it nests; return the indices of those at the top of ``body``."""
    indices = []
    for i, node in enumerate(body):
        docstring = (
            i == 0
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        )
        silent = isinstance(node, (ast.Global, ast.Nonlocal)) or (
            in_function and isinstance(node, ast.AnnAssign) and node.value is None
        )
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        skip = excluded or PRAGMA in lines[node.lineno - 1]
        scope = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        nested: list[int] = []
        own_end = node.end_lineno
        for opener, block in _blocks(node, lines):
            own_end = min(own_end, max(node.lineno, block[0].lineno - 1))
            nested += _walk(block, lines, out, scope, skip or PRAGMA in lines[opener - 1])
        if docstring or silent or skip:
            indices += nested
        else:
            out.append((first, own_end, nested))
            indices.append(len(out) - 1)
    return indices


def statements(path: Path) -> list[_Stmt]:
    """Every counted statement of one file."""
    text = path.read_text()
    out: list[_Stmt] = []
    _walk(ast.parse(text).body, text.splitlines(), out, False, False)
    return out


def untraced(path: Path, seen: set[int]) -> tuple[list[int], int]:
    """The first lines of the statements of ``path`` that ran no line of
    ``seen``, and the number of statements counted."""
    stmts = statements(path)
    ran = [False] * len(stmts)
    # Nested statements come before their parent in ``stmts``.
    for i, (first, last, nested) in enumerate(stmts):
        ran[i] = any(n in seen for n in range(first, last + 1)) or any(ran[j] for j in nested)
    return sorted(first for (first, _, _), r in zip(stmts, ran) if not r), len(stmts)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _install()
    yield
    _install()


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    total_missed = total = 0
    counts = []
    for filename, seen in _seen.items():
        path = Path(filename)
        missed, n = untraced(path, seen)
        lines = path.read_text().splitlines()
        rel = path.relative_to(SRC.parents[1])
        for line in missed:
            write(f"{rel}:{line}: {lines[line - 1].strip()}")
        counts.append(f"{rel}: {len(missed)} of {n}")
        total_missed += len(missed)
        total += n
    for line in counts:
        write(line)
    write(f"untraced: {total_missed} of {total} statements")
