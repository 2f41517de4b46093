"""The traced benchmark run can still see every function it counts, and
every workload's cases still produce their recorded output digests.

`perfbench/tracer.py` wraps its targets by replacing module attributes,
`from .x import f` aliases and class attributes.  A renamed target, or a
class attribute bound to a target function, would silently drop counts
from a traced run; this test installs the tracer in a fresh process, the
way `perfbench/run.py --trace 1` does, and checks for both.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

CONTRACT = """
import importlib
import inspect
import sys

import workloads  # noqa: F401  (loads the package as a run does)
from tracer import PACKAGE, TARGETS, Tracer

def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]

originals = {}
for modname, attr, prefix in TARGETS:
    owner = importlib.import_module(f"{PACKAGE}.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        attr = meth
    fn = vars(owner).get(attr)
    if fn is not None:
        originals[id(fn)] = prefix

tracer = Tracer(10).install()
problems = [f"missing target {p}" for p in tracer.missing]
problems += [f"unpatched reference {r}" for r in tracer.unpatched_references()]
for m in package_modules():
    for cname, cls in vars(m).items():
        if not inspect.isclass(cls) or cls.__module__ != m.__name__:
            continue
        for key, value in vars(cls).items():
            if id(value) in originals:
                problems.append(f"{cls.__qualname__}.{key} holds the original "
                                f"{originals[id(value)]}")
if problems:
    raise SystemExit("\\n".join(problems))
"""


# Every case of the workload named by the first argument through `run.py`'s
# own `run_case`, against the sha256 digests in `perfbench/digests.json`.
DIGEST_REPLAY = """
import sys

import run
from workloads import WORKLOADS

w = WORKLOADS[sys.argv[1]]
ctx = w.setup()
digests = run.load_digests(w)
if len(digests) != w.universe:
    raise SystemExit(f"{len(digests)} digests for {w.universe} cases")
failed = []
for key in range(w.universe):
    _, reason, _ = run.run_case(w, ctx, key, digests)
    if reason is not None:
        failed.append(f"case key {key}: {reason}")
if failed:
    raise SystemExit("\\n".join(failed))
"""


def _run_in_perfbench(script, *args):
    src = os.path.join(ROOT, "src")
    bench = os.path.join(ROOT, "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, bench] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=bench,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr


def test_tracer_sees_every_target():
    _run_in_perfbench(CONTRACT)


@pytest.mark.parametrize("workload", ["z_delta", "z_ladder", "fp_group_ss"])
def test_workload_digests_unchanged(workload):
    _run_in_perfbench(DIGEST_REPLAY, workload)
