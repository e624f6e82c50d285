"""`src` keeps what the product runs.  The product cases of
`tests/linecov.py` (the README's commands and Quick look, the demos, an
`--input` run and usage errors per subcommand) enter every function of
`src/tverlab` except those `linecov.TEST_ONLY` lists, each with the reason
it stays.  A helper that only tests call fails this test until it moves
to `tests/` or is listed; a listed name that the product starts to run
fails it until it leaves the list."""
import subprocess
import sys

import linecov


def test_the_product_enters_every_src_function_but_the_listed_ones():
    """The trace runs in a fresh interpreter, so that tverlab's imports and
    caches start cold, as they do for a user."""
    code = "import linecov; print(*linecov.never_entered(), sep='\\n')"
    done = subprocess.run([sys.executable, "-c", code], cwd=linecov.ROOT / "tests",
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    never = set(done.stdout.split())
    listed = set(linecov.TEST_ONLY)
    assert (sorted(never - listed), sorted(listed - never)) == ([], [])
