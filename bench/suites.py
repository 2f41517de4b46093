#!/usr/bin/env python3
"""Wall time of each verification suite at its acceptance size.

Run from any directory:

    python3 bench/suites.py [--root DIR]

It times `verification.run_suite(name, 20260810, cases)` for every suite
that tests/test_acceptance.py runs, at the case count used there: les 200,
kernel 100, delta 100, iso 100, ladder 60 and balance 100 (acceptance
criteria 2, 3, 5, 6, 7 and 8).  The `ss` suite has no acceptance size
and is not timed.  Each run is a fresh process that imports the package
from DIR/src (default: this checkout), so no memo is shared between runs;
only the `run_suite` call is timed, not the import.  Runs go in rounds,
one run of every suite per round, so a drift of the machine's speed falls
on every suite alike.  Each figure is the median of 3 runs.

The result is one JSON object on stdout: per suite, its case count, the
median seconds, every run's seconds and the passed and failed case counts
of every run; `total_median_s` sums the medians.  Only the standard
library is used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 20260810
RUNS = 3
SIZES = {"les": 200, "kernel": 100, "delta": 100, "iso": 100, "ladder": 60,
         "balance": 100}

# one timed run_suite call: argv is src dir, suite, seed, cases
CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from functor_homology.verification import run_suite
t0 = time.perf_counter()
rep = run_suite(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
print(json.dumps({"seconds": time.perf_counter() - t0, "passed": rep.passed,
                  "failed": len(rep.failures)}))
"""


def time_suite(root, name):
    src = str(Path(root).resolve() / "src")
    out = subprocess.run([sys.executable, "-c", CHILD, src, name, str(SEED),
                          str(SIZES[name])], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE,
                    help="checkout whose src/ is timed (default: this one)")
    args = ap.parse_args()
    runs = {name: [] for name in SIZES}
    for _ in range(RUNS):
        for name in SIZES:
            runs[name].append(time_suite(args.root, name))
    suites = {name: {"cases": SIZES[name],
                     "median_s": statistics.median(r["seconds"] for r in rs),
                     "runs_s": [r["seconds"] for r in rs],
                     "passed": [r["passed"] for r in rs],
                     "failed": [r["failed"] for r in rs]}
              for name, rs in runs.items()}
    result = {"env": {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "seed": SEED, "runs": RUNS},
              "suites": suites,
              "total_median_s": sum(s["median_s"] for s in suites.values())}
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
