import os
import random
import subprocess
import sys
import time

import pytest

from functor_homology import cli, runner
from functor_homology.dsl import parse, print_doc

FIXTURE_TOR = """\
ring Z
module M over Z = coker [[2]]
module N over Z = coker [[4]]
morphism q : N -> M = [[1]]
task derive F=tensor(M) A=M n=1
"""

FIXTURE_GROUP = """\
ring R4 = group_algebra p=2 table [[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]]
ring R2 = group_algebra p=2 table [[0,1],[1,0]]
module T over R4 = trivial
functor F = base_change(R4 -> R2, images=[0,1,0,1])
functor G = coinvariants(R2)
task ss F=F G=G A=T n=2
"""

FIXTURE_DIAGRAM = """\
ring Z
module Z4 over Z = coker [[4]]
module Z2 over Z = coker [[2]]
morphism q : Z4 -> Z2 = [[1]]
category I = standard arrow
diagram D over I = { 0: Z4, 1: Z2; a: q }
task validate X=D
task homology f=q g=q
"""

FIXTURE_LES = """\
ring Z
module Zfree over Z = free 1
module Z2 over Z = coker [[2]]
morphism x2 : Zfree -> Zfree = [[2]]
morphism q : Zfree -> Z2 = [[1]]
ses S = (x2, q)
task les F=tensor(Z2) S=S n=2
"""

FIXTURE_CATS = """\
ring Z
module M over Z = coker [[2]]
morphism idm : M -> M = [[1]]
category A = standard arrow
category P = product(A, A)
category O = opposite(A)
category W = objects [x, y] arrows [f: x -> y, g: x -> y]
category Mo = monoid table [[0, 1], [1, 0]]
diagram D over W = { x: M, y: M; f: idm, g: idm }
task v = validate X=P
task w = validate X=D
"""


def _roundtrip(text):
    doc, diags = parse(text)
    assert not diags, diags
    printed = print_doc(doc)
    doc2, diags2 = parse(printed)
    assert not diags2, diags2
    assert doc2 == doc
    assert print_doc(doc2) == printed
    return doc


def test_round_trip_on_fixtures():
    for fixture in (FIXTURE_TOR, FIXTURE_GROUP, FIXTURE_DIAGRAM, FIXTURE_LES,
                    FIXTURE_CATS):
        _roundtrip(fixture)


def test_explicit_and_monoid_categories_build():
    doc, diags = parse(FIXTURE_CATS)
    assert not diags
    report = runner.run(doc)
    assert report.ok(), [(r.name, r.rows) for r in report.results]
    env, build_diags = runner.build_environment(doc)
    assert not build_diags
    assert len(env.categories["P"].mor_names) == 9
    assert len(env.categories["W"].mor_names) == 4
    assert len(env.categories["Mo"].mor_names) == 2


def test_three_declaration_example():
    doc, diags = parse(
        "ring Z; module M over Z = coker [[2]]; "
        "task derive F=tensor(M) A=M n=1")
    assert not diags and len(doc.decls) == 3


def test_empty_document():
    doc, diags = parse("")
    assert not diags and doc.decls == []


def test_unresolved_name_diagnostic():
    doc, diags = parse("module M over Nowhere = coker [[2]]")
    assert doc is None
    assert any("Nowhere" in d.message for d in diags)
    assert diags[0].line == 1 and diags[0].col >= 1


def test_duplicate_name_diagnostic():
    doc, diags = parse("ring Z\nring Z")
    assert doc is None and any("duplicate" in d.message for d in diags)


def test_syntax_error_has_position():
    doc, diags = parse("ring Z\nmodule M over Z = coker [[2")
    assert doc is None
    assert diags[0].line == 2


def test_fuzz_never_crashes_smoke():
    rng = random.Random(99)
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        doc, diags = parse(blob)
        assert doc is not None or diags


def test_run_tor_task():
    doc, _ = parse(FIXTURE_TOR)
    report = runner.run(doc)
    assert report.ok()
    rows = dict(report.results[0].rows)
    assert rows["n=1"] == "Z/2"


def test_run_les_task():
    doc, _ = parse(FIXTURE_LES)
    report = runner.run(doc)
    assert report.ok()
    rows = dict(report.results[0].rows)
    assert rows["exact"] == "yes"


def test_run_group_ss_task():
    doc, _ = parse(FIXTURE_GROUP)
    report = runner.run(doc)
    assert report.ok()
    rows = dict(report.results[0].rows)
    assert rows["E2 q=0"] == "1 1 1"
    assert rows["abutment"] == "1 1 1"


def test_emit_determinism():
    doc, _ = parse(FIXTURE_DIAGRAM)
    r1 = runner.emit(runner.run(doc), fmt="text")
    r2 = runner.emit(runner.run(doc), fmt="text")
    assert r1 == r2
    j1 = runner.emit(runner.run(doc), fmt="json")
    j2 = runner.emit(runner.run(doc), fmt="json")
    assert j1 == j2
    assert j1.startswith(b"{")


def test_verify_task_requires_seed():
    doc, _ = parse("ring Z\ntask verify suite=les cases=2")
    report = runner.run(doc)
    assert not report.ok()
    assert "seed" in dict(report.results[0].rows)["error"]
    report2 = runner.run(doc, seed=5)
    assert report2.ok()


def test_invariant_factor_rendering():
    doc, _ = parse("ring Z\nmodule M over Z = coker [[2,0],[0,6]]\n"
                   "task validate X=M")
    report = runner.run(doc)
    assert dict(report.results[0].rows)["module"] == "Z/2 ⊕ Z/6"


def test_cli_subprocess(tmp_path):
    f = tmp_path / "doc.wb"
    f.write_text(FIXTURE_TOR)
    out1 = subprocess.run(
        [sys.executable, "-m", "functor_homology.cli", "run", str(f)],
        capture_output=True)
    assert out1.returncode == 0
    out2 = subprocess.run(
        [sys.executable, "-m", "functor_homology.cli", "run", str(f)],
        capture_output=True)
    assert out1.stdout == out2.stdout  # byte-identical reports
    chk = subprocess.run(
        [sys.executable, "-m", "functor_homology.cli", "check", str(f)],
        capture_output=True)
    assert chk.returncode == 0
    vp = subprocess.run(
        [sys.executable, "-m", "functor_homology.cli", "verify-paper", str(f),
         "--suite", "kernel", "--seed", "3", "--cases", "3"],
        capture_output=True)
    assert vp.returncode == 0 and b"3/3 pass" in vp.stdout


def test_cli_reports_failure_exit_code(tmp_path):
    f = tmp_path / "bad.wb"
    f.write_text("module M over Zoo = coker [[2]]\n")
    out = subprocess.run(
        [sys.executable, "-m", "functor_homology.cli", "check", str(f)],
        capture_output=True)
    assert out.returncode == 1
    assert b"Zoo" in out.stdout


BAD_ROW_DOCS = {
    "module 'A': ": """\
ring R = group_algebra p=2 table [[0,1],[1,0]]
module A over R = fp dim 2 actions [[[1,0],[0,1]],[[0,1],[1]]]
""",
    "morphism 'f': ": """\
ring Z
module Z4 over Z = coker [[4]]
module Z2 over Z = coker [[2]]
morphism f : Z4 -> Z2 = [[1],[1,2]]
""",
}


def test_ragged_matrix_diagnostic_survives_optimize(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for k, (prefix, text) in enumerate(BAD_ROW_DOCS.items()):
        f = tmp_path / f"bad{k}.wb"
        f.write_text(text)
        outs = []
        for flags in ([], ["-O"]):
            out = subprocess.run(
                [sys.executable, *flags, "-m", "functor_homology.cli", "run",
                 str(f)], env=env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 1
            assert "Traceback" not in out.stdout + out.stderr
            message = out.stdout.split(prefix, 1)[1].splitlines()[0]
            assert message.strip()
            outs.append(out.stdout)
        assert outs[0] == outs[1]


def test_negative_degree_is_an_error_row():
    cases = [(FIXTURE_GROUP.replace("n=2", "n=-1"), None),
             (FIXTURE_TOR.replace("n=1", "n=-1"), None),
             (FIXTURE_GROUP, -1), (FIXTURE_LES, -1)]
    for text, max_degree in cases:
        doc, diags = parse(text)
        assert not diags, diags
        report = runner.run(doc, max_degree=max_degree)
        result = report.results[-1]
        assert result.status == "error", (text, result.rows)
        assert "nonnegative" in dict(result.rows)["error"]
        assert not report.ok()


FIXTURE_LADDER = FIXTURE_LES + """\
morphism one : Zfree -> Zfree = [[1]]
morphism id2 : Z2 -> Z2 = [[1]]
task lad = ladder S1=S S2=S uL=one uM=one uN=id2 g=id2 n=2
"""


@pytest.mark.parametrize("text", [FIXTURE_TOR, FIXTURE_LES, FIXTURE_LADDER, FIXTURE_GROUP],
                         ids=["derive", "les", "ladder", "ss"])
def test_degree_above_the_ceiling_is_an_error_row(text):
    # one past the ceiling fails before any work; --max-degree still lowers it
    assert runner.MAX_DEGREE == 16
    over = text.replace("n=1", "n=17").replace("n=2", "n=17")
    doc, diags = parse(over)
    assert not diags, diags
    t0 = time.perf_counter()
    report = runner.run(doc)
    assert time.perf_counter() - t0 < 2.0
    result = report.results[-1]
    assert result.status == "error", result.rows
    assert dict(result.rows)["error"] == "degree n must be at most 16, not 17"
    assert not report.ok()
    lowered = runner.run(doc, task=result.name, max_degree=1).results[-1]
    assert lowered.status == "pass", lowered.rows


def test_degree_over_the_ceiling_names_the_task_on_the_cli(tmp_path, capsys):
    f = tmp_path / "big.wb"
    f.write_text(FIXTURE_TOR.replace("task derive", "task t1 = derive").replace("n=1", "n=17"))
    assert cli.main(["run", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == "task t1 (derive): error\n  error  degree n must be at most 16, not 17\n"
    assert err == ""


def test_assertion_error_is_not_a_diagnostic(monkeypatch):
    # an AssertionError is an internal bug, not bad input: it leaves the
    # builder and a task instead of becoming a diagnostic or an error row
    def broken(*args, **kwargs):
        raise AssertionError("internal bug")

    doc, diags = parse(FIXTURE_LES + "task h = homology f=x2 g=q\n")
    assert not diags, diags
    assert runner.run(doc).ok()
    monkeypatch.setattr(runner, "homology_at", broken)
    with pytest.raises(AssertionError, match="internal bug"):
        runner.run(doc, task="h")
    monkeypatch.setattr(runner, "SES", broken)
    with pytest.raises(AssertionError, match="internal bug"):
        runner.build_environment(doc)
