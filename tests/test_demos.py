"""Each demo script runs to the end in a fresh interpreter: exit 0 and
nothing on stderr.  The README's Quick look runs and gives the values its
comments state."""
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tverlab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    src = os.path.dirname(os.path.dirname(tverlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_the_readme_quick_look_runs():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    cert, depth = namespace["cert"], namespace["depth"]
    assert cert.blocks == ((0, 3), (1, 2))
    assert cert.point == (Fraction(1, 2), Fraction(1, 2))
    assert depth.depth == 2
