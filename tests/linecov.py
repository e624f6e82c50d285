"""A line trace over `src/tverlab`, with the standard library alone: which
statements did the tests, or the product, not execute?

    python tests/linecov.py              # Tier-1: pyproject.toml's testpaths
    python tests/linecov.py ARGS ...     # pytest ARGS instead, e.g. tests/test_z2.py
    python tests/linecov.py --product    # the product cases, grouped by function

The product is what reaches users: `product_cases` runs, in this process,
each command line of the README's command block (read from README.md, run
as `python -m tverlab` runs it), each `demos/*.py` script through
`runpy`, the README's Quick look block, one valid `--input` run per
subcommand that reads one, `reduce` off the line at a prime and at a
composite r, and one usage error or bad input per subcommand, each case
checked for its exit code.  `never_entered` runs
the same cases under `sys.setprofile` and names the `src` functions none
of them entered; `tests/test_product_trace.py` keeps that set equal to
`TEST_ONLY` below, each name listed with its reason.

The trace runs under `sys.settrace` (and `threading.settrace`).  Only
frames whose code lives in `src/tverlab` are traced line by line; every
other frame costs one call of the tracer, when it starts.  A statement is
every line of an `ast` statement, less the lines of the statements nested
in it, and it counts as executed when any of those lines with bytecode
ran.  Each statement of `src/tverlab` that has bytecode and never ran is
printed as `path:line: text`, file by file, or under its function with
`--product`.  Code that only a subprocess runs (the tests of `python -m
tverlab` and of the demos) is not seen by the test trace, so its
statements are listed unless an in-process test runs them too.  The exit
code is pytest's, or 0 once every product case gave its exit code.
pytest does not collect this file (it is no test_*.py), so the tier-1 run
does not pay for it.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
from inspect import CO_OPTIMIZED  # set on the code of a function, a lambda or a comprehension
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tverlab"
PREFIX = f"{SRC}/"

# The src functions that no product case enters, each with why it stays.
TEST_ONLY = {
    "tverlab.exactlp.strict_separator": "ROADMAP item 4 moves it to tests/oracles.py; perfbench's tracer wraps it",
    "tverlab.exactlp._hull_membership": "ROADMAP item 4: strict_separator's system",
    "tverlab.exactlp.LinearSystem.constraints": "ROADMAP item 4; perfbench's tracer reads it",
    "tverlab.exactlp.LinearSystem.__repr__": "ROADMAP item 4; a system's size for library callers",
    "tverlab.cover.HPolytopeBody.__init__": "ROADMAP item 5; perfbench's tracer wraps the class",
    "tverlab.cover.HPolytopeBody.__post_init__": "ROADMAP item 5; perfbench's tracer wraps it",
    "tverlab.depth.check_tverberg_certificate": "ROADMAP item 14's `tverlab check` makes it product code",
    "tverlab.depth.check_depth_certificate": "ROADMAP item 14's `tverlab check` makes it product code",
    "tverlab.rationals.Frozen._values": "PointConfig's value equality; HPolytopeBody needs Frozen until item 5",
    "tverlab.rationals.Frozen.__eq__": "PointConfig's value equality, pinned by tests/test_records.py",
    "tverlab.rationals.Frozen.__hash__": "PointConfig's hash, pinned by tests/test_records.py",
    "tverlab.rationals.Frozen.__repr__": "PointConfig's repr, pinned by tests/test_records.py",
    "tverlab.rationals.Frozen.__setattr__": "PointConfig's fields cannot be assigned, pinned by tests/test_records.py",
    "tverlab.rationals.Frozen.__delattr__": "PointConfig's fields cannot be deleted, pinned by tests/test_records.py",
    "tverlab.depth.PointConfig.points": "a configuration's Fractions, for library callers; the CLI reads integers",
    "tverlab.__dir__": "dir(tverlab) lists the lazy exports (PEP 562)",
}


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


def module_name(path: Path) -> str:
    return "tverlab" if path.stem == "__init__" else f"tverlab.{path.stem}"


def scopes(code: CodeType, name: str) -> Iterator[Tuple[CodeType, str]]:
    """(code, qualified name) for `code` and every code object in it: a def
    or a class named as `__qualname__` names it, a lambda or a
    comprehension by the scope that holds it."""
    yield code, name
    inner = f"{name}.<locals>." if code.co_flags & CO_OPTIMIZED else f"{name}."
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from scopes(const, name if const.co_name.startswith("<") else inner + const.co_name)


def functions(path: Path) -> Dict[Tuple[str, int, str], str]:
    """Each `def` of the file, keyed as a frame's code is (file, first line,
    name), and its qualified name under the module's."""
    top = compile(path.read_text(), str(path), "exec")
    return {(code.co_filename, code.co_firstlineno, code.co_name): name
            for code, name in scopes(top, module_name(path))
            if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<")}


# ---------------------------------------------------------------------------
# the product cases
# ---------------------------------------------------------------------------

def readme_block(heading: str, language: str) -> str:
    """The first ```language block under the README's `## heading`."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def tverlab(*argv: str) -> int:
    """The exit code of `python -m tverlab ARGV`, run in this process."""
    saved = sys.argv
    sys.argv = ["tverlab", *argv]
    try:
        runpy.run_module("tverlab", run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved


POINTS = {"d": 2, "points": [["0/1", "0/1"], ["3/2", "0/1"], ["0/1", "3/2"], ["1/1", "1/1"], ["1/3", "1/4"]]}
LINE = {"d": 1, "points": [[0], [1], [3], ["7/2"], [-2]]}
CYCLE = {"maximal_simplices": [[0, 1], [1, 2], [2, 3], [3, 0]], "involution": {"0": 2, "1": 3, "2": 0, "3": 1}}
TRIANGLE = {"barycentric_points": [["1/2", "1/2", 0], [0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/3", "1/3", "1/3"]]}
INPUTS = {
    "points.json": POINTS,
    "line.json": LINE,
    "cycle.json": CYCLE,
    "triangle.json": TRIANGLE,
    "zero-denominator.json": {"d": 1, "points": [["1/2"], ["1/0"]]},
    "repeated-vertex.json": {"maximal_simplices": [[0, 0, 1]], "involution": {"0": 1, "1": 0}},
    "no-image.json": {"maximal_simplices": [[0, 1], [2, 3]], "involution": {"0": 2, "2": 0, "1": 1, "3": 3}},
    "float.json": {"barycentric_points": [[0.5, 0.5]]},
}
# (argv, exit code): one --input run per subcommand that reads one and
# reduce off the line (it answers at a prime r, refuses a composite one), then
# usage errors and bad input, at least one per subcommand
RUNS = (
    ("centerpoint --r 2 --input points.json", 0),
    ("tverberg --r 3 --input line.json", 0),
    ("hind --input cycle.json", 0),
    ("cover --input triangle.json", 0),
    ("reduce --d 2 --r 3", 0),
    ("-h", 0),
    ("hind --help", 0),
    ("", 2),
    ("nonsense --d 1", 2),
    ("centerpoint --r 2 --input zero-denominator.json", 2),
    ("tverberg --d 2 --r 2 --trials 0", 2),
    ("reduce --d 1 --r 1", 2),
    ("reduce --d 2 --r 4", 2),
    ("hind --input repeated-vertex.json", 2),
    ("hind --input no-image.json", 2),
    ("hind --s 2", 2),
    ("counterexample --d 2", 2),
    ("probe --d -1 --r 2", 2),
    ("cover --input float.json", 2),
    ("fiber-demo --d 2 --bogus", 2),
)


def product_cases(tmp: Path) -> List[Tuple[str, Callable[[], None]]]:
    """(label, run) for each product case; `run` raises if the case does not
    end as it should.  --input files are written to `tmp`."""
    for name, data in INPUTS.items():
        (tmp / name).write_text(json.dumps(data))

    def command(line: str, code: int) -> Callable[[], None]:
        argv = [str(tmp / a) if a in INPUTS else a for a in shlex.split(line)]

        def run():
            got = tverlab(*argv)
            if got != code:
                raise AssertionError(f"tverlab {line} exited {got}, not {code}")
        return run

    cases = [(line, command(line.split(None, 1)[1], 0))
             for line in readme_block("Command line", "sh").splitlines() if line.strip()]
    cases += [(demo.name, lambda demo=demo: runpy.run_path(str(demo), run_name="__main__"))
              for demo in sorted((ROOT / "demos").glob("*.py"))]
    cases.append(("Quick look", lambda: exec(readme_block("Quick look", "python"), {})))
    cases += [(f"tverlab {line}", command(line, code)) for line, code in RUNS]
    return cases


def run_product() -> None:
    """Every product case, with its output discarded, importing tverlab
    from `src`."""
    if str(SRC.parent) not in sys.path:
        sys.path.insert(0, str(SRC.parent))
    with tempfile.TemporaryDirectory(prefix="tverlab-product-") as tmp:
        for _, run in product_cases(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run()


def never_entered() -> List[str]:
    """The qualified names of the `src` functions that no product case
    enters, traced by `sys.setprofile` from a process that has not
    imported tverlab yet (so every import-time call and cache is cold)."""
    if "tverlab" in sys.modules:
        raise RuntimeError("tverlab was imported before the trace started")
    defs = {}
    for path in SRC.glob("*.py"):
        defs.update(functions(path))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_product()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sorted(name for key, name in defs.items() if key not in entered)


# ---------------------------------------------------------------------------
# the line trace
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def line_trace() -> Iterator[Set[Tuple[str, int]]]:
    """The (file, line) pairs that ran in `src/tverlab` inside the block."""
    if "tverlab" in sys.modules:
        raise RuntimeError("tverlab was imported before the trace started")
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
        yield ran
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main(args) -> int:
    os.chdir(ROOT)  # pytest reads pyproject.toml's settings from the root
    product = args == ["--product"]
    with line_trace() as ran:
        if product:
            run_product()
            code = 0
        else:
            import pytest

            code = int(pytest.main(["-q", "-p", "no:cacheprovider", *(args or ["--continue-on-collection-errors"])]))
    total = missed = 0
    grouped: Dict[str, List[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        owner, executable = statements(path)
        executed = {owner[line] for name, line in ran if name == str(path) and line in owner}
        where = {}  # statement -> the qualified name of the scope whose bytecode holds it
        for scope, name in scopes(compile(path.read_text(), str(path), "exec"), module_name(path)):
            for _, _, line in scope.co_lines():
                if line in owner:
                    where[owner[line]] = name
        lines = path.read_text().splitlines()
        total += len(executable)
        for line in sorted(executable - executed):
            missed += 1
            text = f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}"
            if product:
                grouped.setdefault(where[line], []).append(text)
            else:
                print(text)
    for name, texts in grouped.items():
        print(f"{name} ({len(texts)} not run)")
        print(*(f"    {text}" for text in texts), sep="\n")
    print(f"{total - missed} of {total} statements executed, {missed} not")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
