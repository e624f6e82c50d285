"""Hypothesis caches the constants it reads from local source files even
with database=None; keep that cache in a temporary directory, removed at
exit, so a test run leaves no .hypothesis/ directory behind.

Each test gets WALL_CAP_S seconds of wall time, so that a defect sending
a small input down an exhaustive path fails its test instead of hanging
the run.  The cap is a SIGALRM timer, set in the main thread only and
only where the platform has SIGALRM; on expiry the handler raises
pytest's Failed, a BaseException, so no `except Exception` in `src`
swallows it."""
import atexit
import shutil
import signal
import tempfile
import threading

import pytest
from hypothesis import configuration

_home = tempfile.mkdtemp(prefix="tverlab-hypothesis-")
configuration.set_hypothesis_home_dir(_home)
atexit.register(shutil.rmtree, _home, True)

WALL_CAP_S = 30  # over 10x the slowest test; below tests/mutants.py's CAP_S
_CAPPED = hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


def _expired(signum, frame):
    pytest.fail(f"test ran past its {WALL_CAP_S} s wall cap", pytrace=False)


if _CAPPED:
    signal.signal(signal.SIGALRM, _expired)


@pytest.fixture(autouse=True)
def _wall_cap():
    if _CAPPED:
        signal.setitimer(signal.ITIMER_REAL, WALL_CAP_S)
    yield
    if _CAPPED:
        signal.setitimer(signal.ITIMER_REAL, 0)
