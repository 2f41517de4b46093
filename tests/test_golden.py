"""The demos' stdout, byte for byte, against the files in tests/golden/.

Each demo script `demos/X.py` is compared with `golden/X.py.stdout`, and
`functor-homology run demos/Y.wb` with `golden/Y.wb.stdout`.  To record a
new expected output after an intended change, run from the repository
root, with PYTHONPATH=src:

    python demos/X.py > tests/golden/X.py.stdout
    python -m functor_homology.cli run demos/Y.wb > tests/golden/Y.wb.stdout
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CASES = sorted(name for name in os.listdir(DEMOS)
               if name.endswith((".py", ".wb")))


def test_every_demo_has_a_golden_file():
    assert len(CASES) == 11
    assert sorted(name[:-len(".stdout")] for name in os.listdir(GOLDEN)) == CASES


@pytest.mark.parametrize("name", CASES)
def test_demo_stdout_matches_golden(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    path = os.path.join(DEMOS, name)
    if name.endswith(".py"):
        cmd = [sys.executable, path]
    else:
        cmd = [sys.executable, "-m", "functor_homology.cli", "run", path]
    out = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    with open(os.path.join(GOLDEN, name + ".stdout"), "rb") as f:
        assert out.stdout == f.read()
