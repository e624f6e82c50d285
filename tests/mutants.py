"""Mutation checks that can be re-run: each mutant below is one exact edit
of a source file and the tests expected to kill it (fail on it).

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

`src/`, `tests/` and `pyproject.toml` are copied to a temporary directory
once.  Each mutant's edit is made there (its old text must occur exactly
once), only its tests are run, with pytest's -x, and the file is put back.
A mutant is killed when pytest exits 1, some test having failed.  One line
is printed per mutant; the exit code is 1 if any mutant survived or could
not be applied.  pytest does not collect this file (it is no test_*.py),
so the tier-1 run does not pay for it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
# the copy's src/ alone, through pyproject.toml's pythonpath; no .pyc left behind
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONDONTWRITEBYTECODE": "1"}


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest ids, relative to the repository root


P_Q_ROWS = "tests/test_rationals.py::test_p_q_rows_read_in_one_pass_as_rat_reads_them"
FAULTS = "tests/test_z2.py::test_faults_raise_what_the_canonical_form_raised"
DECODING = "tests/test_cli.py::test_input_bytes_are_decoded_as_open_decoded_them"
HIND = ("tests/test_z2.py::test_long_chains_and_many_components",
        "tests/test_z2.py::test_index_of_drawn_unions_matches_both_oracles")

MUTANTS = (
    # rationals._read_bulk, the one-pass read of "p/q" strings
    Mutant("no separator check", "src/tverlab/rationals.py",
           'if (text.count(",") != len(flat) - 1  # a string held the separator\n            or len(text)',
           "if (len(text)", (P_Q_ROWS,)),
    Mutant("no zero-denominator fallback", "src/tverlab/rationals.py",
           "    if 0 in dens:  # rat names the first zero denominator\n        return None\n", "", (P_Q_ROWS,)),
    Mutant("no length guard", "src/tverlab/rationals.py",
           "            or len(text) >= _UNCHECKED and max(map(len, flat)) >= _UNCHECKED\n", "", (P_Q_ROWS,)),
    Mutant("a space or a point in the bulk form", "src/tverlab/rationals.py",
           '_PQ = "[+-]?[0-9]+/[0-9]+"', '_PQ = "[+-]?[0-9. ]+/[0-9]+"', (P_Q_ROWS,)),
    # cli._input_object, how --input bytes are decoded
    Mutant("a byte-order mark skipped", "src/tverlab/cli.py",
           "text = fh.read().decode()", 'text = fh.read().decode("utf-8-sig")', (DECODING,)),
    Mutant("no universal newlines", "src/tverlab/cli.py",
           'if "\\r" in text:', "if False:", (DECODING,)),
    # conemap: the closed-form count and the probe's rank
    Mutant("the count's exponent", "src/tverlab/conemap.py",
           "(r + 1 - j) ** (m + 1)", "(r + 1 - j) ** m",
           ("tests/test_conemap.py::test_the_tuple_count_matches_the_enumeration",)),
    Mutant("the rank without +1", "src/tverlab/conemap.py",
           "rank = count_disjoint_tuples(m, r) - partitions + 1", "rank = count_disjoint_tuples(m, r) - partitions",
           ("tests/test_conemap.py::test_probe_skips_small_face_tuples",)),
    # z2: hind's orbit representatives, its right-hand sides and the degree it
    # returns, and Z2Complex's checks on masks
    Mutant("no flip to the orbit's smaller mask", "src/tverlab/z2.py",
           "if image < face:\n                        face = image", "if False:\n                        face = image",
           ("tests/test_z2.py::test_index_matches_cup_powers_on_fixed_cases",)),
    Mutant("w^n on every face", "src/tverlab/z2.py",
           "if alternate:\n                support.append", "if True:\n                support.append", HIND),
    Mutant("one degree low", "src/tverlab/z2.py", "return n\n", "return n - 1\n", HIND),
    Mutant("no zero-mask check", "src/tverlab/z2.py",
           "all(masks)  # no empty simplex", "True  # no empty simplex", (f"{FAULTS}[empty]",)),
    Mutant("no bit_count check", "src/tverlab/z2.py",
           "sum(map(int.bit_count, masks)) == sum(map(len, simplices))  # no repeated id",
           "True  # no repeated id", (f"{FAULTS}[repeated]",)),
    Mutant("no OR check", "src/tverlab/z2.py",
           "functools.reduce(operator.or_, masks) == (1 << len(g)) - 1  # no vertex of g left out",
           "True  # no vertex of g left out", (f"{FAULTS}[unused]",)),
)


def run(mutant: Mutant, copy: Path) -> str:
    """'killed', 'SURVIVED' or what kept the mutant from being tested."""
    path = copy / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"NOT APPLIED: its old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, capture_output=True, text=True, env=ENV,
        )
    finally:
        path.write_text(text)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"NOT RUN: pytest exited {proc.returncode}: {proc.stdout.strip()[-300:]}"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="tverlab-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for mutant in chosen:
            start = time.perf_counter()
            outcome = run(mutant, copy)
            bad += outcome != "killed"
            print(f"{outcome:<10} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
