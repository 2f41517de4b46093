"""Command-line diagnostics: unreadable paths, case counts below 1 and
unknown task names give a one-line message and a nonzero exit, never a
traceback."""

import pytest

from functor_homology import cli

DOC = """\
ring Z
module M over Z = coker [[2]]
task t1 = derive F=tensor(M) A=M n=1
"""

VERBS = (["check"], ["run"], ["verify-paper", "--suite", "kernel", "--seed", "1"])


@pytest.mark.parametrize("verb", VERBS, ids=lambda v: v[0])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_path_is_a_diagnostic(tmp_path, capsys, verb, kind):
    path = tmp_path / "absent.wb" if kind == "missing" else tmp_path
    reason = {"missing": "No such file or directory", "directory": "Is a directory"}[kind]
    assert cli.main([verb[0], str(path), *verb[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path}: cannot read: {reason}\n"


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_paper_rejects_cases_below_one(tmp_path, capsys, cases):
    f = tmp_path / "doc.wb"
    f.write_text(DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-paper", str(f), "--suite", "kernel", "--seed", "1",
                  "--cases", cases])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --cases: must be at least 1, not {cases}" in err


def test_run_names_an_unknown_task(tmp_path, capsys):
    f = tmp_path / "doc.wb"
    f.write_text(DOC)
    assert cli.main(["run", str(f), "--task", "t2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{f}: no task named 't2'\n"


def test_run_of_a_known_task_prints_its_report(tmp_path, capsysbinary):
    f = tmp_path / "doc.wb"
    f.write_text(DOC)
    assert cli.main(["run", str(f), "--task", "t1"]) == 0
    out, err = capsysbinary.readouterr()
    assert out == b"task t1 (derive): pass\n  n=0  Z/2\n  n=1  Z/2\n" and err == b""


def test_check_reports_a_task_degree_that_run_rejects(tmp_path, capsys):
    # each derive, les, ladder or ss task with n above runner.MAX_DEGREE or
    # negative is a diagnostic at its line; the ceiling itself passes
    f = tmp_path / "big.wb"
    f.write_text(DOC.replace("n=1", "n=17") + "  task t2 = derive F=tensor(M) A=M n=-1\n"
                 + "task t3 = derive F=tensor(M) A=M n=16\n")
    assert cli.main(["check", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == (f"{f}:3:1: task 't1': degree n must be at most 16, not 17\n"
                   f"{f}:4:3: task 't2': degree n must be a nonnegative integer, not -1\n")
    assert err == ""
    f.write_text(DOC.replace("n=1", "n=16"))
    assert cli.main(["check", str(f)]) == 0
    assert capsys.readouterr().out == f"{f}: 3 declarations ok\n"


NON_INTEGER_DEGREE = """\
ring Z = integers
module Z2 over Z = coker [[2]]
task d = derive F=tensor(Z2) A=Z2 n=Z2
"""


@pytest.mark.parametrize("args", [["check"], ["run"], ["run", "--max-degree", "2"]],
                         ids=["check", "run", "run-max-degree"])
def test_a_degree_that_is_not_an_integer_is_rejected(tmp_path, capsys, args):
    # the degree is validated before --max-degree caps it, so the cap
    # never stands in for a degree that is not an integer
    f = tmp_path / "name.wb"
    f.write_text(NON_INTEGER_DEGREE)
    assert cli.main([args[0], str(f), *args[1:]]) == 1
    out, err = capsys.readouterr()
    assert "degree n must be a nonnegative integer, not Z2\n" in out
    assert "n=0" not in out and err == ""
    if args[0] == "check":
        assert out.startswith(f"{f}:3:1: task 'd': ")
    else:
        assert out.startswith("task d (derive): error\n")


@pytest.mark.parametrize("args", [["check"], ["run"], ["run", "--max-degree", "2"]],
                         ids=["check", "run", "run-max-degree"])
def test_a_boolean_degree_is_rejected(tmp_path, capsys, args):
    # `true` parses to a Python bool, which isinstance counts as an int;
    # it is no degree, and the message writes it as it was written
    f = tmp_path / "bool.wb"
    f.write_text(NON_INTEGER_DEGREE.replace("n=Z2", "n=true"))
    assert cli.main([args[0], str(f), *args[1:]]) == 1
    out, err = capsys.readouterr()
    assert "degree n must be a nonnegative integer, not true\n" in out
    assert "n=0" not in out and "n=1" not in out and err == ""
    if args[0] == "check":
        assert out.startswith(f"{f}:3:1: task 'd': ")
    else:
        assert out.startswith("task d (derive): error\n")


EMPTY_INDEX = """\
ring Z
module Z2 over Z = coker [[2]]
category E = objects [] arrows []
diagram D over E = { }
task d = derive F=exponent(tensor(Z2), E) A=D n=2
"""


@pytest.mark.parametrize("verb", ["check", "run"])
def test_diagram_over_an_empty_index_is_a_diagnostic(tmp_path, capsys, verb):
    # C^I for an index with no object has no ring to build a zero diagram
    # over; the diagram declaration is rejected by name
    f = tmp_path / "empty.wb"
    f.write_text(EMPTY_INDEX)
    assert cli.main([verb, str(f)]) == 1
    out, err = capsys.readouterr()
    assert "4:1: diagram 'D': a diagram needs an index category with an object" in out + err
    assert "Traceback" not in out + err
