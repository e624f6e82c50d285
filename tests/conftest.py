"""Hypothesis caches the constants it reads from local source files even
with database=None; keep that cache in a temporary directory, removed at
exit, so a test run leaves no .hypothesis/ directory behind."""
import atexit
import shutil
import tempfile

from hypothesis import configuration

_home = tempfile.mkdtemp(prefix="tverlab-hypothesis-")
configuration.set_hypothesis_home_dir(_home)
atexit.register(shutil.rmtree, _home, True)
