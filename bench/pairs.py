#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against this one.

Run from any directory:

    python3 bench/pairs.py --parent DIR --run fp_group_ss:10 --run z_delta:3

DIR is a checkout of the parent commit, for example made with
`git worktree add DIR <parent>` or `git archive <parent> | tar -x -C DIR`.
Each `--run W:N` runs N pairs of

    python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0

once in DIR and once in this checkout, one right after the other, with S
the `run_seconds` of BENCHMARK.json.  The side that runs first alternates
from pair to pair, so a drift of the machine's speed during the runs falls
on both sides alike.

The result is one JSON object on stdout.  For each workload, `timed` lists
every run's end-to-end metrics with its `failed`, `attempted`, `correct`
and `first` fields, and its `summary` gives, per metric of BENCHMARK.json,
the median of each side, the parent's interquartile range and the number
of pairs in which this checkout was ahead (by the metric's `better`), and
the median and interquartile range of the per-pair ratios change/parent
(`ratio_median`, `ratio_iqr`; both null when a parent run reads 0).  A
drift of the machine's speed during the runs moves both runs of a pair
alike, so it widens the parent's interquartile range but hardly the spread
of the ratios.
`trace` holds one traced pass (`--trace 1 --seed 1`) of every workload on
each side, with every count (.calls, .builds, .cells, .max_bits,
.hit_ratio) as [parent, change].  `ss_scaling`, `suites` and `layers`
hold, per side, the output of this checkout's `bench/ss_scaling.py`,
`bench/suites.py` and `bench/layers.py` run on that side's src/
(`--root`), so a parent without a script, or with an older one, is timed
by the same code: the spectral sequence as total degree grows, every
verification suite at its acceptance size, and the per-call time of the
F_p leaf operations at the shapes of fp_group_ss and of the checked
diagram constructions at the shapes of z_delta.  Each script runs in
ROUNDS rounds, one run per side in each, and the side that runs first
alternates from round to round, so a drift of the machine's speed falls
on both sides alike.  The rounds of a side are merged into one output
with the script's own field names (`median_rows`): each timing is the
median over the rounds, each list of run timings holds the runs of
every round, and any other field keeps the first round's value, with
`disagreements` naming each field on which the rounds differ.  Beside
the two sides, `ratios` pairs the runs of each round, as the timed pairs
do: per timing, the ratio change/parent of every round and their median,
which a drift of the machine's speed between rounds hardly moves.  `code`
repeats the counts of src/ lines and of the lines containing
`is_integers` and `isinstance` for each side.  `end_to_end` holds, per
side, the wall time of the Tier-1 suite (the ROADMAP's command, in that
checkout): the median of ROUNDS runs that alternate the side that runs
first, as the scripts do, with every run's time, exit code and summary
line.  It also holds the wall time of `functor-homology run` on each of
its demos/*.wb: the median of 5 runs, with every run, the exit code and
the SHA-256 of stdout, so equal digests show byte-identical reports.
Only the standard library is used.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".builds", ".cells", ".max_bits", ".hit_ratio")
SEED = 0  # timed runs
TRACE_SEED = 1  # traced passes
CODE_COUNTS = ("src_lines", "src_is_integers_lines", "src_isinstance_lines")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
DEMO_RUNS = 5
ROUNDS = 3  # runs per side of each bench/ script


def last_json(text):
    """The JSON object on the last non-empty line of a run's stdout."""
    return json.loads([line for line in text.splitlines() if line.strip()][-1])


def bench(root, args):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                         capture_output=True, text=True, check=True)
    return last_json(out.stdout)


def timed_run(root, workload, seed, seconds, first):
    res = bench(root, ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"])
    row = {name: m["value"] for name, m in res["metrics"].items()}
    row.update(failed=res["failed"], attempted=res["attempted"],
               correct=res["correct"], first=first)
    return row


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarise(runs, metrics):
    parent, change = runs["parent"], runs["change"]
    out = {"pairs": len(parent)}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        ahead = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        ratios = [b / a for a, b in zip(p, c)] if all(p) else None
        out[name] = {"parent_median": statistics.median(p),
                     "change_median": statistics.median(c),
                     "parent_iqr": iqr(p), "change_ahead": ahead,
                     "ratio_median": statistics.median(ratios) if ratios else None,
                     "ratio_iqr": iqr(ratios) if ratios else None}
    out["failed"] = {"parent": sum(r["failed"] for r in parent),
                     "change": sum(r["failed"] for r in change)}
    return out


def pairs(parent_root, workload, n, seed, seconds, metrics):
    runs = {"parent": [], "change": []}
    for k in range(n):
        order = [("parent", parent_root), ("change", HERE)]
        if k % 2:
            order.reverse()
        for pos, (side, root) in enumerate(order):
            runs[side].append(timed_run(root, workload, seed, seconds, pos == 0))
            print(f"{workload} pair {k} {side}: cases_per_s "
                  f"{runs[side][-1]['cases_per_s']:.3f}", file=sys.stderr)
    return {"summary": summarise(runs, metrics), "runs": runs}


def trace_counts(parent_root, workload, seed):
    sides = [bench(root, ["--workload", workload, "--seed", str(seed), "--trace", "1"])
             for root in (parent_root, HERE)]
    counts = {name: [s["metrics"][name]["value"] for s in sides]
              for name in sides[0]["metrics"] if name.endswith(COUNT_SUFFIXES)}
    return {"failed": [s["failed"] for s in sides],
            "correct": [s["correct"] for s in sides],
            "counts": counts,
            "counts_differing": {k: v for k, v in counts.items() if v[0] != v[1]}}


def this_script(name, root):
    """The JSON output of this checkout's bench/<name> timing root's src/."""
    out = subprocess.run([sys.executable, str(HERE / "bench" / name), "--root", str(root)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def median_rows(outs):
    """The outputs of one script from several rounds, of one shape, merged
    into one: each float is the median over the rounds, a list of rows is
    merged row by row, and each list of floats (the runs of a row) holds
    the values of every round in turn.  Anything else (counts, verdicts,
    labels) keeps the first round's value, so every field keeps its type;
    where the rounds differ on it, `disagreements` maps its path to the
    value of every round."""
    disagreements = {}

    def merge(values, path):
        first = values[0]
        if isinstance(first, dict):
            return {k: merge([v[k] for v in values], f"{path}.{k}".lstrip("."))
                    for k in first}
        if isinstance(first, float):
            return statistics.median(values)
        if isinstance(first, list) and first and all(isinstance(x, dict) for x in first):
            return [merge(list(rows), f"{path}[{i}]") for i, rows in enumerate(zip(*values))]
        if isinstance(first, list) and first and all(isinstance(x, float) for x in first):
            return [x for v in values for x in v]
        if any(v != first for v in values):
            disagreements[path] = values
        return first

    return {**merge(outs, ""), "disagreements": disagreements}


def round_ratios(parents, changes):
    """The outputs of one script from the same rounds on each side, paired
    round by round: for each timing (each float, under the path that
    `median_rows` would name it by), the ratio change/parent of every
    round (`ratios`) and their median (`median`); both null when a parent
    round reads 0."""
    out = {}

    def walk(ps, cs, path):
        first = ps[0]
        if isinstance(first, dict):
            for k in first:
                walk([p[k] for p in ps], [c[k] for c in cs], f"{path}.{k}".lstrip("."))
        elif isinstance(first, float):
            ratios = [c / p for p, c in zip(ps, cs)] if all(ps) else None
            out[path] = {"ratios": ratios,
                         "median": statistics.median(ratios) if ratios else None}
        elif isinstance(first, list) and first and all(isinstance(x, dict) for x in first):
            for i in range(len(first)):
                walk([p[i] for p in ps], [c[i] for c in cs], f"{path}[{i}]")

    walk(parents, changes, "")
    return out


def rounds(name, sides):
    """Per side, `median_rows` of ROUNDS runs of this checkout's
    bench/<name> on that side's src/, the side that runs first
    alternating by round, and under `ratios` the `round_ratios` of the
    second side (the change) to the first (the parent)."""
    outs = {side: [] for side, _ in sides}
    for k in range(ROUNDS):
        for side, root in (sides if k % 2 == 0 else sides[::-1]):
            outs[side].append(this_script(name, root))
    (parent, _), (change, _) = sides
    return {**{side: median_rows(o) for side, o in outs.items()},
            "ratios": round_ratios(outs[parent], outs[change])}


def timed_command(root, args):
    """(seconds, completed process) of `python args` run in root with
    root/src first on PYTHONPATH."""
    path = [str(Path(root).resolve() / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    t0 = perf_counter()
    out = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True)
    return perf_counter() - t0, out


def tier1(sides):
    """Per side, ROUNDS Tier-1 runs, the side that runs first alternating
    by round: the median wall time and every run with its exit code and
    summary line."""
    runs = {side: [] for side, _ in sides}
    for k in range(ROUNDS):
        for side, root in (sides if k % 2 == 0 else sides[::-1]):
            seconds, out = timed_command(root, TIER1)
            lines = out.stdout.decode(errors="replace").strip().splitlines()
            runs[side].append({"seconds": seconds, "returncode": out.returncode,
                               "summary": lines[-1] if lines else ""})
    return {side: {"median_s": statistics.median(r["seconds"] for r in rs), "runs": rs}
            for side, rs in runs.items()}


def end_to_end(sides):
    """Tier-1 wall time (`tier1`) and the `run` wall time of every demo
    .wb, per side; the side that runs first alternates from round to
    round."""
    result = {side: {"tier1": t, "demos": {}} for side, t in tier1(sides).items()}
    demos = sorted(path.name for path in (HERE / "demos").glob("*.wb"))
    runs = {side: {d: [] for d in demos} for side, _ in sides}
    for k in range(DEMO_RUNS):
        for side, root in (sides if k % 2 == 0 else sides[::-1]):
            for d in demos:
                seconds, out = timed_command(
                    root, ["-m", "functor_homology.cli", "run", f"demos/{d}"])
                runs[side][d].append((seconds, out.returncode,
                                      hashlib.sha256(out.stdout).hexdigest()))
    for side, _ in sides:
        for d, rs in runs[side].items():
            result[side]["demos"][d] = {
                "median_s": statistics.median(r[0] for r in rs),
                "runs_s": [r[0] for r in rs],
                "returncodes": sorted({r[1] for r in rs}),
                "stdout_sha256": sorted({r[2] for r in rs})}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--run", action="append", required=True, metavar="W:N",
                    help="workload and number of pairs; may be repeated")
    args = ap.parse_args()
    config = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    runs = [(w, int(n)) for w, n in (r.split(":") for r in args.run)]
    sides = (("parent", args.parent), ("change", HERE))
    scaling = rounds("ss_scaling.py", sides)
    suites = rounds("suites.py", sides)
    layers = rounds("layers.py", sides)
    e2e = end_to_end(sides)
    result = {"env": {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "seconds": seconds, "seed": SEED,
                      "trace_seed": TRACE_SEED, "rounds": ROUNDS},
              "timed": {w: pairs(args.parent, w, n, SEED, seconds, config["end_to_end"])
                        for w, n in runs},
              "trace": {w: trace_counts(args.parent, w, TRACE_SEED) for w, _ in runs},
              "ss_scaling": scaling,
              "suites": suites,
              "layers": layers,
              "end_to_end": e2e,
              "code": {side: {k: scaling[side][k] for k in CODE_COUNTS} for side, _ in sides}}
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
