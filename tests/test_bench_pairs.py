"""`bench/pairs.py summarise`: per-metric medians, the parent's spread and
the per-pair ratios, so a drift of the machine during the runs does not
count as spread of the change against its parent."""

import importlib.util
import os

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
