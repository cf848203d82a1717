"""Function-body lines of the package that the in-process Tier-1 run never reaches.

    python3 tools/refusal_reach.py [PYTEST_ARG ...]

Runs pytest in this process (by default on `tests -q -p no:cacheprovider`)
under a `sys.settrace` hook that traces only the frames of files under
`src/gsqg`, and records every line they run.  Then it lists each statement
of a function body (nested functions included, docstrings not) that has
bytecode and never ran, as `path:line: source`, with `raise` lines marked
`RAISE`.  Commands that tests start in a fresh interpreter are not traced,
and the hook's own allocations make the tracemalloc bounds of the suite
fail; neither changes what the list means.

Exits 1 when some `raise` line never ran, so the gate that every refusal
is reached by a test can be rerun, and 0 otherwise.  Standard library and
pytest only.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gsqg"


def _code_lines(code) -> set[int]:
    """Lines with bytecode in the functions compiled from one module,
    nested functions included, module and class bodies not."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & 0x1:        # CO_OPTIMIZED: a function, not a class body
                lines |= {line for _, _, line in const.co_lines() if line is not None}
            lines |= _code_lines(const)
    return lines


def body_statements(path: Path) -> dict[int, ast.stmt]:
    """First line of each function-body statement with bytecode, to its
    statement (a docstring has no bytecode)."""
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in (s for top in fn.body for s in ast.walk(top) if isinstance(s, ast.stmt)):
                if stmt.lineno in code:
                    found.setdefault(stmt.lineno, stmt)
    return found


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each package file."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None     # and no line events for the frame
        ran.setdefault(name, set()).add(frame.f_lineno)
        return hook

    sys.settrace(hook)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    # the statements of the sources as the run imports them
    files = {path: (body_statements(path), path.read_text().splitlines())
             for path in sorted(PACKAGE.glob("*.py"))}
    code, ran = traced_run(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    total, unreached, raises = 0, [], 0
    for path, (stmts, lines) in files.items():
        total += len(stmts)
        for line, stmt in sorted(stmts.items()):
            if line not in ran.get(str(path), ()):
                mark = "RAISE " if isinstance(stmt, ast.Raise) else ""
                raises += bool(mark)
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {mark}"
                                 f"{lines[line - 1].strip()}")
    print(f"pytest exit code {code}")
    print(f"{len(unreached)} of {total} function-body lines never ran, "
          f"{raises} of them raise lines")
    print("\n".join(unreached))
    return 1 if raises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
