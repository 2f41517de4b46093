import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
from functor_homology import cli, runner
from functor_homology.dsl import Diagnostic, parse, print_doc

DEMOS = Path(__file__).resolve().parent.parent / "demos"

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


# the forms and slot types the fixtures above and the demos leave out, for
# the comparison with the reference parser; `tensor(Z)` names a ring, which
# only the runner rejects, and the diagmor's bindings after ';' are dropped
FIXTURE_FORMS = """\
ring Z = integers
ring F3 = fp p=3
ring A = fp_algebra p=2 unit [1, 0] table [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
ring R2 = group_algebra p=2 table [[0, 1], [1, 0]]
module M over R2 = fp dim 1 actions [[[1]], [[1]]]
module N over Z = free 2
morphism f : N -> N = [[1, 0], [0, 1]]
category C = objects [0, 1] arrows [a: 0 -> 1, b: 1 -> 1] compose [b.b = b, b.a = a]
diagram D over C = { 0: N, 1: N; a: f, b: f }
diagmor u : D -> D = { 0: f; 1: f }
functor E = exponent(compose(tensor(N), base_change(R2 -> F3)), C)
functor W = tensor(Z)
task t = ladder S1=E switched=true n=2
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


def test_a_digit_that_is_no_decimal_is_a_diagnostic():
    # '²' is a digit to str.isdigit, but no integer literal
    assert parse("ring R = fp p=²") == (None, [Diagnostic(1, 15, "unexpected character '²'")])
    doc, diags = parse("ring R = fp p=٣")  # an Arabic-Indic 3
    assert not diags and doc.decls[0].payload == {"form": "fp", "p": 3}


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


# each document's one declaration, and the diagnostic `check` gives on it
CHECK_REJECTS = {
    "category Mo = monoid table [[0, 1], [1, 7]]": "monoid table entries must lie in 0..1",
    "category Mo = monoid table [[0, 1], [1]]": "matrix row 1 must have 2 entries, got 1",
    "category Mo = monoid table [[0, 1], [1, -1]]": "monoid table entries must lie in 0..1",
    # just over the ceiling (the least prime above 2^31), and far over it
    "ring R = fp p=2147483659": "p must be below 2^31 = 2147483648, not 2147483659",
    "ring R = fp p=1000000000000000000000000000057":
        "p must be below 2^31 = 2147483648, not 1000000000000000000000000000057",
}


@pytest.mark.parametrize("text", list(CHECK_REJECTS))
def test_check_rejects_bad_monoid_tables_and_primes_over_the_ceiling(text, tmp_path, capsys):
    f = tmp_path / "bad.wb"
    f.write_text(text + "\n")
    t0 = time.perf_counter()
    assert cli.main(["check", str(f)]) == 1
    assert time.perf_counter() - t0 < 1.0
    kind, name = text.split()[:2]
    assert capsys.readouterr() == (f"{f}:1:1: {kind} {name!r}: {CHECK_REJECTS[text]}\n", "")


def test_check_rejections_survive_optimize(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    f = tmp_path / "bad.wb"
    # one document: each declaration's name made unique
    f.write_text("".join(text.replace(" = ", f"{k} = ", 1) + "\n"
                         for k, text in enumerate(CHECK_REJECTS)))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-m", "functor_homology.cli", "check",
                              str(f)], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert "Traceback" not in out.stdout + out.stderr
        assert [line.split(": ", 2)[2] for line in out.stdout.splitlines()] == list(
            CHECK_REJECTS.values())


def test_largest_prime_below_the_ceiling_is_a_ring(tmp_path, capsys):
    f = tmp_path / "big.wb"
    f.write_text("ring R = fp p=2147483647\nmodule M over R = free 1\n")
    assert cli.main(["check", str(f)]) == 0
    assert capsys.readouterr().out == f"{f}: 2 declarations ok\n"


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


def _mutants(text):
    """Five mutants per token of text: the token deleted, doubled, replaced
    by `bogus` and by `7`, and the text cut after it."""
    for m in re.finditer(r"->|\w+|\S", text):
        s, e = m.span()
        yield text[:s] + text[e:]
        yield text[:e] + " " + text[s:]
        yield text[:s] + "bogus" + text[e:]
        yield text[:s] + "7" + text[e:]
        yield text[:e]


def test_parser_and_printer_match_the_reference_on_mutants():
    # the table-driven parser and printer against the hand-written ones in
    # oracle.py, on every demo document, every fixture above and their
    # mutants: the same diagnostics, the same declarations (repr tells a
    # tuple from a list, and shows each position) and the same printed text
    corpus = [path.read_text(encoding="utf-8") for path in sorted(DEMOS.glob("*.wb"))]
    corpus += [FIXTURE_TOR, FIXTURE_GROUP, FIXTURE_DIAGRAM, FIXTURE_LES, FIXTURE_CATS,
               FIXTURE_FORMS, FIXTURE_LADDER, *BAD_ROW_DOCS.values()]
    mutants = sorted({m for text in corpus for m in (text, *_mutants(text))})
    assert len(mutants) > 6000
    parsed = 0
    for text in mutants:
        doc, diags = parse(text)
        ref, ref_diags = oracle.reference_parse(text)
        assert [str(d) for d in diags] == [str(d) for d in ref_diags], text
        assert doc == ref and repr(doc) == repr(ref), text
        if doc is not None:
            parsed += 1
            assert print_doc(doc) == oracle.reference_print_doc(ref), text
    assert parsed > 500
