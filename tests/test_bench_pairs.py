"""`bench/pairs.py`: per-metric medians, the parent's spread and the
per-pair ratios (`summarise`), and the rounds of the bench/ scripts, the
side that runs first alternating, each row merged by its median and each
timing paired round by round (`rounds`), and the Tier-1 rounds of
`end_to_end`, which alternate the same way, so a drift of the machine
during the runs does not count as a difference or spread of the change
against its parent."""

import importlib.util
import os
import types

import pytest

PAIRS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "pairs.py")
METRICS = [{"name": "cases_per_s", "better": "higher"},
           {"name": "case_ms_tail", "better": "lower"}]


def load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(rate, tail):
    return {"cases_per_s": rate, "case_ms_tail": tail, "failed": 0}


def test_ratios_do_not_count_drift_as_spread():
    # the machine slows down run by run; every pair has the change 20% faster
    parent = [36.0, 34.0, 32.0, 30.0, 28.0, 26.0, 24.0, 22.0]
    runs = {"parent": [run(x, 100.0) for x in parent],
            "change": [run(1.2 * x, 0.0) for x in parent]}
    out = load_pairs().summarise(runs, METRICS)
    rate = out["cases_per_s"]
    assert rate["change_ahead"] == 8 and rate["parent_iqr"] == pytest.approx(7.0)
    assert rate["ratio_median"] == pytest.approx(1.2)
    assert rate["ratio_iqr"] == pytest.approx(0.0)
    assert out["case_ms_tail"]["ratio_median"] == 0.0
    for name in ("parent_median", "change_median", "parent_iqr", "change_ahead"):
        assert name in rate
    # a parent run that reads 0 has no ratio
    runs["parent"][0]["case_ms_tail"] = 0.0
    tail = load_pairs().summarise(runs, METRICS)["case_ms_tail"]
    assert tail["ratio_median"] is None and tail["ratio_iqr"] is None


def _stub_output(k, failed, ok=True):
    """What a bench/ script might print on its k-th call."""
    return {"src_lines": 7000,
            "results": [{"fixture": "C4", "n_max": 3, "tot_dims": [1, 2],
                         "ss_pages_s": float(k), "ss_pages_runs_s": [float(k), k + 0.5]},
                        {"fixture": "C4", "n_max": 4, "tot_dims": [1, 2, 3],
                         "ss_pages_s": 10.0 * k, "ss_pages_runs_s": [10.0 * k]}],
            "suites": {"les": {"median_s": 100.0 * k, "passed": [200], "failed": [failed]}},
            "acceptance_ok": ok}


def test_rounds_alternate_the_first_side_and_take_row_medians(monkeypatch):
    pairs = load_pairs()
    assert pairs.ROUNDS >= 3
    monkeypatch.setattr(pairs, "ROUNDS", 3)
    calls = []

    def stub(name, root):
        calls.append((name, root))
        k = len(calls)
        return _stub_output(k, failed=int(k == 6), ok=k != 3)

    monkeypatch.setattr(pairs, "this_script", stub)
    out = pairs.rounds("ss_scaling.py", (("parent", "P"), ("change", "C")))
    assert calls == [("ss_scaling.py", root) for root in "PCCPPC"]
    # the parent ran on calls 1, 4 and 5, the change on 2, 3 and 6
    parent, change = out["parent"], out["change"]
    assert [r["ss_pages_s"] for r in parent["results"]] == [4.0, 40.0]
    assert [r["ss_pages_s"] for r in change["results"]] == [3.0, 30.0]
    assert parent["results"][0]["ss_pages_runs_s"] == [1.0, 1.5, 4.0, 4.5, 5.0, 5.5]
    assert change["results"][1]["ss_pages_runs_s"] == [20.0, 30.0, 60.0]
    assert parent["suites"]["les"]["median_s"] == 400.0
    # what every round agrees on is kept once, under its own name
    assert parent["results"][1]["tot_dims"] == [1, 2, 3]
    assert parent["src_lines"] == 7000 and parent["acceptance_ok"] is True
    assert parent["suites"]["les"]["passed"] == [200]
    assert parent["disagreements"] == {}
    # what the rounds disagree on keeps the first round's value and type,
    # and every round's value is listed under its path
    assert change["suites"]["les"]["failed"] == [0]
    assert change["acceptance_ok"] is True
    assert change["disagreements"] == {"suites.les.failed": [[0], [0], [1]],
                                       "acceptance_ok": [True, False, True]}
    assert set(parent) == set(_stub_output(1, 0)) | {"disagreements"}


def test_rounds_pair_each_timing_by_round(monkeypatch):
    pairs = load_pairs()
    monkeypatch.setattr(pairs, "ROUNDS", 3)
    calls = []

    def stub(name, root):
        calls.append(root)
        out = _stub_output(len(calls), failed=0)
        if len(calls) == 4:  # the parent's second round reads 0 on one row
            out["results"][1]["ss_pages_s"] = 0.0
        return out

    monkeypatch.setattr(pairs, "this_script", stub)
    ratios = pairs.rounds("ss_scaling.py", (("parent", "P"), ("change", "C")))["ratios"]
    assert calls == list("PCCPPC")
    # round by round the parent ran on calls 1, 4 and 5, the change on 2, 3
    # and 6; only the timings (floats) are paired, not the runs or counts
    assert set(ratios) == {"results[0].ss_pages_s", "results[1].ss_pages_s",
                           "suites.les.median_s"}
    for path in ("results[0].ss_pages_s", "suites.les.median_s"):
        assert ratios[path]["ratios"] == pytest.approx([2.0, 0.75, 1.2])
        assert ratios[path]["median"] == pytest.approx(1.2)
    assert ratios["results[1].ss_pages_s"] == {"ratios": None, "median": None}


def test_tier1_rounds_alternate_the_first_side_and_take_the_median(monkeypatch, tmp_path):
    pairs = load_pairs()
    monkeypatch.setattr(pairs, "ROUNDS", 3)
    monkeypatch.setattr(pairs, "HERE", tmp_path)  # a checkout with no demos
    calls = []

    def stub(root, args):
        calls.append((root, args))
        k = len(calls)
        out = types.SimpleNamespace(stdout=f"...\n{500 + k} passed in {k}.0s\n".encode(),
                                    returncode=int(k == 2))
        return float(k), out

    monkeypatch.setattr(pairs, "timed_command", stub)
    out = pairs.end_to_end((("parent", "P"), ("change", "C")))
    assert calls == [(root, pairs.TIER1) for root in "PCCPPC"]
    # the parent ran on calls 1, 4 and 5, the change on 2, 3 and 6
    parent, change = out["parent"]["tier1"], out["change"]["tier1"]
    assert parent["median_s"] == 4.0 and change["median_s"] == 3.0
    assert [r["seconds"] for r in parent["runs"]] == [1.0, 4.0, 5.0]
    assert [r["returncode"] for r in change["runs"]] == [1, 0, 0]
    assert [r["summary"] for r in change["runs"]] == [
        "502 passed in 2.0s", "503 passed in 3.0s", "506 passed in 6.0s"]
    assert out["parent"]["demos"] == {} and out["change"]["demos"] == {}
