"""Mutation checks that can be re-run: each mutant below is one exact edit
of a source file and the tests expected to kill it (fail on it).

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

`src/`, `tests/` and `pyproject.toml` are copied to a temporary directory
once.  Each mutant's edit is made there (its old text must occur exactly
once), only its tests are run, with pytest's -x, and the file is put back.
A mutant is killed when pytest exits 1, some test having failed.  Each
run gets CAP_S seconds of wall time: pytest runs in a session of its own,
and when the cap expires its whole process group is killed and the
mutant is reported TIMED OUT, which counts as not killed, so a mutant
whose tests hang neither hangs this runner nor leaves processes behind.
One line is printed per mutant; the exit code is 1 if any mutant was not
killed or could not be applied.  pytest does not collect this file (it
is no test_*.py), so the tier-1 run does not pay for it.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
# the copy's src/ alone, through pyproject.toml's pythonpath; no .pyc left behind
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONDONTWRITEBYTECODE": "1"}
CAP_S = 60  # wall time for one mutant's tests; every row is killed in well under it


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest ids, relative to the repository root


P_Q_ROWS = "tests/test_rationals.py::test_p_q_rows_read_in_one_pass_as_rat_reads_them"
FAULTS = "tests/test_z2.py::test_faults_raise_what_the_canonical_form_raised"
DECODING = "tests/test_cli.py::test_input_bytes_are_decoded_as_open_decoded_them"
ROW_CHECK = "tests/test_cover.py::test_the_row_check_rejects_a_shifted_translate"
ONE_READ = "tests/test_depth.py::test_the_one_read_paths_match_the_read_per_row_references"
R2_INTEGERS = "tests/test_depth.py::test_r2_certificates_are_checked_on_the_integers_that_made_them"
AFFINE = "tests/test_depth.py::test_the_affine_dependency_matches_the_homogeneous_elimination"
RADON_HALFSPACE = "tests/test_depth.py::test_the_radon_halfspace_holds_the_point_and_two_points"
RADON_ONCE = "tests/test_depth.py::test_each_partition_runs_the_radon_step_once"
R3_INTEGERS = "tests/test_depth.py::test_r3_certificates_are_checked_on_the_integers_that_made_them"
EARLY_STOP = "tests/test_depth.py::test_the_bounded_depth_search_makes_few_recursion_calls"
AFFINE_MAP = "tests/test_depth.py::test_partitions_points_and_depths_follow_an_affine_map"
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
    Mutant("the one-pass result discarded", "src/tverlab/rationals.py",
           "        if read is not None:", "        if read is not None and not read:",
           ("tests/test_cli.py::test_a_cover_input_builds_only_delta_and_the_translate",)),
    # cli._input_object, how --input bytes are decoded
    Mutant("a byte-order mark skipped", "src/tverlab/cli.py",
           "text = fh.read().decode()", 'text = fh.read().decode("utf-8-sig")', (DECODING,)),
    Mutant("no universal newlines", "src/tverlab/cli.py",
           'if "\\r" in text:', "if False:", (DECODING,)),
    # depth: the integer bodies of the two certificate checks
    Mutant("no per-block weight sum", "src/tverlab/depth.py",
           "any(c < 0 for c in w) or sum(w) != K:", "any(c < 0 for c in w):", (R2_INTEGERS, ONE_READ)),
    Mutant("no nonnegative weights", "src/tverlab/depth.py",
           "len(block) != len(w) or any(c < 0 for c in w) or", "len(block) != len(w) or",
           ("tests/test_depth.py::test_tverberg_certificate_needs_nonnegative_weights",)),
    Mutant("at least depth points inside", "src/tverlab/depth.py",
           "and inside == depth", "and inside >= depth", (ONE_READ,)),
    # depth: one block refused, and the Radon step's two solves over differences
    Mutant("r = 1 refused", "src/tverlab/depth.py",
           'if r < 1:\n        raise ValueError("need at least one block")',
           'if r <= 1:\n        raise ValueError("need at least one block")',
           ("tests/test_cli.py::test_one_block_holds_at_one_point",)),
    Mutant("i0 where kappa is 0", "src/tverlab/depth.py",
           "i0 = next(i for i, k in enumerate(kappa) if k > 0)",
           "i0 = next(i for i, k in enumerate(kappa) if k >= 0)", (RADON_HALFSPACE,)),
    Mutant("u oriented away from i0 and j0", "src/tverlab/depth.py",
           "u[j] = rows[i][-1] if D > 0 else -rows[i][-1]", "u[j] = rows[i][-1] if D < 0 else -rows[i][-1]",
           (RADON_HALFSPACE,)),
    Mutant("kappa's base-point entry dropped", "src/tverlab/depth.py",
           "return _primitive([-sum(lam), *lam])", "return _primitive([0, *lam])",
           (AFFINE, RADON_HALFSPACE)),
    # depth: the one partition producer and the Radon answer it passes on
    Mutant("Radon step skipped in _partition", "src/tverlab/depth.py",
           "found = _radon_partition(config) if r == 2 else None", "found = None",
           ("tests/test_depth.py::test_radon_partitions_at_d_plus_2_points_solve_no_lp",)),
    Mutant("kappa dropped from the Radon answer", "src/tverlab/depth.py",
           "X, weights), kappa)", "X, weights), None)", (RADON_ONCE,)),
    # rationals.bareiss_eliminate's pivot search
    Mutant("a row holding a pivot chosen again", "src/tverlab/rationals.py",
           "                free.remove(i)\n", "",
           ("tests/test_rationals.py::test_bareiss_pivot_is_gauss_jordan_over_its_denominator", AFFINE)),
    # depth: each certificate kind's one constructor, which checks the
    # producer's own integers, the range screen's one-block case, reduce's
    # k = 1 route and the depth search's early stop
    Mutant("no integer check in the partition constructor", "src/tverlab/depth.py",
           "if not _tverberg_holds(blocks, K, X, weights, config):", "if False:", (R2_INTEGERS, R3_INTEGERS)),
    Mutant("no integer check in the depth constructor", "src/tverlab/depth.py",
           "if not _depth_holds(K, [q * c for c in X], [E * c for c in U], a0, depth, config):", "if False:",
           ("tests/test_cli.py::test_internal_errors_exit_three",)),
    Mutant("a zero span in the pairing's lcm", "src/tverlab/depth.py",
           "for lo, hi in ends if x[hi] != x[lo])", "for lo, hi in ends)",
           ("tests/test_depth.py::test_reduce_rejects_a_partition_with_too_few_blocks",
            "tests/test_depth.py::test_the_lifted_pairing_certificate_is_the_lps")),
    Mutant("K = 0 accepted", "src/tverlab/depth.py",
           "if K <= 0 or labels != list(range(config.n))", "if labels != list(range(config.n))",
           (R3_INTEGERS,)),
    Mutant("no one-block case in the range screen", "src/tverlab/depth.py",
           "if r == 1 or all(map(operator.le,", "if all(map(operator.le,",
           ("tests/test_depth.py::test_the_screen_at_one_block_and_at_singletons",)),
    Mutant("the k = 1 route at d = 1", "src/tverlab/depth.py",
           "    if d == 1:\n        cert, K, X = _lifted_partition_1d(",
           "    if plan.k > 1:\n        cert, K, X = _lifted_partition_1d(",
           ("tests/test_depth.py::test_reduce_on_a_line_solves_no_lp",)),
    Mutant("the early stop only below the bound", "src/tverlab/depth.py",
           "if count <= stop:", "if count < stop:", (EARLY_STOP,)),
    # depth: the two dispatches that send a small input down an exhaustive
    # path, aimed at tests/test_depth.py tests that fail them at once, and
    # reduce's refusal of a lift off the line, without which (d, r) = (2, 4)
    # runs centerpoint's search
    Mutant("the Radon step at r != 2", "src/tverlab/depth.py",
           "found = _radon_partition(config) if r == 2 else None",
           "found = _radon_partition(config) if r != 2 else None",
           ("tests/test_depth.py::test_radon_partitions_at_d_plus_2_points_solve_no_lp",
            "tests/test_depth.py::test_the_depth_recursion_keeps_its_functional_in_lowest_terms")),
    Mutant("the pairing off the line", "src/tverlab/depth.py",
           "    if d == 1:\n", "    if d != 1:\n",
           ("tests/test_depth.py::test_reduce_on_a_line_solves_no_lp",)),
    Mutant("no refusal of a lift off the line", "src/tverlab/depth.py",
           "    if plan.k > 1:\n        raise ValueError(", "    if False:\n        raise ValueError(",
           ("tests/test_depth.py::test_reduce_off_the_line_refuses_a_composite_r_before_any_search",)),
    # depth: the recursion's tilt, wrong only past 12 vectors, which the
    # affine relation's (5,3) example reaches with `lower` passed
    Mutant("the tilt to the larger side past 12 vectors", "src/tverlab/depth.py",
           "U[k] += e if pos <= neg else -e", "U[k] += e if (pos <= neg) != (len(W) > 12) else -e", (AFFINE_MAP,)),
    # depth: a full scan that skips directions past d + 4 vectors, which
    # the affine relation cannot see (the count stays equal on both sides)
    Mutant("half the directions past d + 4 vectors", "src/tverlab/depth.py",
           "for v in map(_primitive, W):",
           "for v in map(_primitive, W if len(W) <= d + 4 else W[: len(W) // 2]):",
           ("tests/test_depth.py::test_the_full_depth_scan_at_d_5_matches_the_hull_oracle",)),
    # exactlp: the Farkas multipliers recovered from the final basis
    Mutant("no sigma in the Farkas recovery", "src/tverlab/exactlp.py",
           "N = tuple(s * v for s, v in zip(sigma, q))", "N = tuple(q)",
           ("tests/test_exactlp.py::test_refused_certificates_raise",
            "tests/test_exactlp.py::test_integer_phase1_matches_the_fraction_tableau")),
    # conemap: the closed-form count and the probe's rank
    Mutant("the count's exponent", "src/tverlab/conemap.py",
           "(r + 1 - j) ** (m + 1)", "(r + 1 - j) ** m",
           ("tests/test_conemap.py::test_the_tuple_count_matches_the_enumeration",)),
    Mutant("the rank without +1", "src/tverlab/conemap.py",
           "rank = count_disjoint_tuples(m, r) - partitions + 1", "rank = count_disjoint_tuples(m, r) - partitions",
           ("tests/test_conemap.py::test_probe_skips_small_face_tuples",)),
    # z2: hind's orbit representatives, its right-hand sides and the degree it
    # returns, Z2Complex's checks on masks and the simplex it names for a
    # missing image
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
    Mutant("the last faulty simplex named", "src/tverlab/z2.py",
           "zip(simplices, images)", "zip(simplices[::-1], images[::-1])",
           ("tests/test_z2.py::test_images_may_be_faces_of_given_simplices",)),
    # cover: the general body's rank check and the closed form's two checks
    Mutant("no rank check", "src/tverlab/cover.py",
           "[1]) < self.ambient_dim:", "[1]) < 0:", ("tests/test_cover.py::test_body_validation",)),
    Mutant("no row check", "src/tverlab/cover.py", "if c < least:", "if False:", (ROW_CHECK,)),
    Mutant("no tight-point check", "src/tverlab/cover.py",
           "if {ri for _, ri in tight} != set(range(k)):", "if False:", (ROW_CHECK,)),
)


def run(mutant: Mutant, copy: Path) -> str:
    """'killed', 'SURVIVED', 'TIMED OUT' or what kept the mutant from being
    tested."""
    path = copy / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"NOT APPLIED: its old text occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=ENV,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=CAP_S)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):  # the group may have ended meanwhile
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return f"TIMED OUT after {CAP_S} s"
    finally:
        path.write_text(text)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"NOT RUN: pytest exited {proc.returncode}: {out.strip()[-300:]}"


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
