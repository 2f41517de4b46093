import os
import subprocess
import sys

import pytest

from functor_homology.verification import SUITES, run_suite


def test_all_suites_pass_smoke():
    for name in sorted(SUITES):
        rep = run_suite(name, 1234, 4)
        assert rep.ok(), (name, rep.failures)
        assert rep.passed == 4


def test_ss_suite_fifty_cases():
    rep = run_suite("ss", 20260810, 50)
    assert rep.ok(), rep.failures
    assert rep.passed == 50


def test_suites_are_seed_deterministic():
    a = run_suite("les", 77, 6)
    b = run_suite("les", 77, 6)
    assert a.notes == b.notes and a.passed == b.passed


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", 1, 1)


PLANTED_VERDICTS = """
import dataclasses

from functor_homology import modules, verification

# a balance comparison that is never an isomorphism
true_balance = verification.balance_comparison
verification.balance_comparison = lambda A, B, n: dataclasses.replace(
    true_balance(A, B, n), iso=False)
rep = verification.run_suite("balance", 1, 3)
verification.balance_comparison = true_balance
if rep.ok() or rep.passed or [c for c, _ in rep.failures] != [0, 1, 2]:
    raise SystemExit(f"balance: {rep.passed} passed, failures {rep.failures}")

# a componentwise exactness verdict that contradicts the intrinsic one
true_exact = modules.is_exact_at
modules.is_exact_at = lambda f, g: not true_exact(f, g)
rep = verification.run_suite("les", 3, 6)
modules.is_exact_at = true_exact
cases = [c for c, _ in rep.failures]
if rep.ok() or rep.passed + len(cases) != 6 or cases != sorted(set(cases)):
    raise SystemExit(f"les: {rep.passed} passed, failures {rep.failures}")
if not all("verdicts disagree" in msg for _, msg in rep.failures):
    raise SystemExit(f"les: unexpected failures {rep.failures}")
"""


PLANTED_FIRST_CHECK = """
import dataclasses

from functor_homology import verification

# every diagram drawn, in order, as its components and structure matrices
true_diagram = verification.random_diagram
drawn = []


def recording(rng, index, ring):
    D = true_diagram(rng, index, ring)
    drawn.append((D.describe(),
                  [D.maps[m].matrix.data for m in D.index.mor_names]))
    return D


verification.random_diagram = recording


def run(name, attr=None, wrong=None):
    # run_suite(name, 5, 4), with `attr` answering `wrong` at its first call
    drawn.clear()
    true = getattr(verification, attr) if attr else None
    calls = []

    def planted(*args):
        calls.append(args)
        return wrong(true, *args) if len(calls) == 1 else true(*args)

    if attr:
        setattr(verification, attr, planted)
    try:
        rep = verification.run_suite(name, 5, 4)
    finally:
        if attr:
            setattr(verification, attr, true)
    return rep, list(drawn)


for name, attr, wrong in (
        ("iso", "comparison_iso",
         lambda true, F, A, n: dataclasses.replace(true(F, A, n), iso=False)),
        ("kernel", "require", lambda true, cond, msg: true(False, msg))):
    clean, want = run(name)
    if not clean.ok() or clean.passed != 4:
        raise SystemExit(f"{name}: unplanted run {clean.failures}")
    rep, got = run(name, attr, wrong)
    if [c for c, _ in rep.failures] != [0] or rep.passed != 3:
        raise SystemExit(f"{name}: {rep.passed} passed, failures {rep.failures}")
    if got != want:
        raise SystemExit(f"{name}: the planted run drew other diagrams "
                         f"({len(got)} against {len(want)})")
"""


def _run_under_both_interpreters(script):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", script],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, (flags, out.stdout + out.stderr)


def test_planted_wrong_verdicts_are_recorded_per_case():
    _run_under_both_interpreters(PLANTED_VERDICTS)


def test_failed_check_moves_no_later_fixture():
    """A check that fails at case 0 leaves every fixture of the run as it
    was: checks make no random call."""
    _run_under_both_interpreters(PLANTED_FIRST_CHECK)
