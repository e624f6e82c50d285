"""A line trace of the tests over `src/tverlab`, with the standard library
alone: which statements did no test execute?

    python tests/linecov.py              # Tier-1: pyproject.toml's testpaths
    python tests/linecov.py ARGS ...     # pytest ARGS instead, e.g. tests/test_z2.py

pytest runs in this process under `sys.settrace` (and `threading.settrace`).
Only frames whose code lives in `src/tverlab` are traced line by line;
every other frame costs one call of the tracer, when it starts.  A
statement is every line of an `ast` statement, less the lines of the
statements nested in it, and it counts as executed when any of those lines
with bytecode ran.  Each statement of `src/tverlab` that has bytecode and
never ran is printed as `path:line: text`, file by file.  Code that only a
subprocess runs (the tests of `python -m tverlab` and of the demos) is not
seen, so its statements are listed unless an in-process test runs them
too.  The exit code is pytest's.  pytest does not collect this file (it
is no test_*.py), so the tier-1 run does not pay for it.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tverlab"
PREFIX = f"{SRC}/"


def code_lines(code: CodeType) -> Iterator[int]:
    """The lines that hold bytecode of `code` and of every code object in it."""
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_lines(const)


def statements(path: Path) -> Tuple[Dict[int, int], Set[int]]:
    """Each line's statement, as its first line (the innermost statement
    holding the line), and the statements that hold bytecode."""
    text = path.read_text()
    owner: Dict[int, int] = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt):  # of the statements holding a line, the innermost starts last
            for line in range(node.lineno, node.end_lineno + 1):
                if owner.get(line, 0) < node.lineno:
                    owner[line] = node.lineno
    lines = set(code_lines(compile(text, str(path), "exec")))
    return owner, {owner[line] for line in lines if line in owner}


def traced(args) -> Tuple[int, Set[Tuple[str, int]]]:
    """pytest's exit code on `args` and the (file, line) pairs that ran in
    `src/tverlab`."""
    import pytest

    ran: Set[Tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(PREFIX):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args) -> int:
    if "tverlab" in sys.modules:
        raise RuntimeError("tverlab was imported before the trace started")
    os.chdir(ROOT)  # pytest reads pyproject.toml's settings from the root
    code, ran = traced(args or ["--continue-on-collection-errors"])
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        owner, executable = statements(path)
        executed = {owner[line] for name, line in ran if name == str(path) and line in owner}
        lines = path.read_text().splitlines()
        total += len(executable)
        for line in sorted(executable - executed):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{total - missed} of {total} statements executed, {missed} not")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
