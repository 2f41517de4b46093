#!/usr/bin/env python3
"""Benchmark for the functor-homology workbench.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload W --seed N --trace 1
    python3 perfbench/run.py --workload W --seed N --case K
    python3 perfbench/run.py --workload W --seed N --selfcheck
    python3 perfbench/run.py --workload W --record-digests

Workloads (see `workloads.py` and BENCHMARK.json): z_delta, z_ladder,
fp_group_ss.  One process, one thread, closed loop: the next case starts
only after the previous one returned.  Inputs come from the seed and are
built outside the timed region; the package sees only those inputs.

`--trace 0` runs cases for `--seconds` and prints the end-to-end metrics.
`setup_s` is the median over fresh processes of the time from process
start to the first timed case (import, set-up, first inputs).

`--trace 1` runs one traced pass over the workload's universe of cases, so
that its counts repeat exactly, and prints the per-layer metrics.  Then a fresh
process runs the same cases untraced, which gives `trace.overhead_frac`.
The span log goes to `.bench_out/`.

A case fails when its verdict is not a pass, when it raises, or when the
sha256 of its output differs from the one in `perfbench/digests.json`.
Each failure names the workload, seed and case index; `--case K` replays
the K-th case of a run alone.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 7
MAX_SPANS = 200_000
PROBE_TIMEOUT_S = 120

# Wrapped functions that must record calls on a workload, and those that
# must record none (fp_group_ss makes no integer and no diagram calls).
EXPECT_CALLS = {
    "z_delta": ["intlinalg.snf", "intlinalg.kernel_basis", "intlinalg.solve",
                "modules.ModMor.init", "modules.ModMor.eq",
                "modules.ModuleObj.eq", "modules.kernel", "modules.cokernel",
                "modules.simplify", "modules.free_cover",
                "diagrams.check_diagram", "diagrams.Diagram.init",
                "diagrams.d_kernel", "diagrams.d_cokernel",
                "diagrams.d_exactness_report", "functors.exponent_apply",
                "tensorops.base_change_data", "complexes.homology_at",
                "derived.resolve", "derived.les_data", "derived.horseshoe"],
    "z_ladder": ["intlinalg.snf", "intlinalg.kernel_basis", "intlinalg.solve",
                 "modules.ModMor.init", "modules.ModMor.eq",
                 "modules.ModuleObj.eq", "modules.kernel", "modules.cokernel",
                 "modules.free_cover", "diagrams.check_diagram",
                 "diagrams.Diagram.init", "complexes.homology_at",
                 "derived.resolve", "derived.les_data", "derived.horseshoe",
                 "bifunctor.switched_row", "bifunctor.diagram_ladder",
                 "bifunctor.diagram_ladder_switched"],
    "fp_group_ss": ["fplinalg.rref", "fplinalg.solve", "fplinalg.solve_matrix",
                    "fplinalg.kernel_basis", "fplinalg.mul_vec",
                    "modules.ModMor.init", "modules.kernel",
                    "modules.cokernel", "modules.free_cover",
                    "tensorops.base_change_data", "complexes.homology_at",
                    "derived.resolve", "spectral.ss_pages", "spectral.ce_grid",
                    "spectral.grothendieck_ss", "dsl.parse", "runner.run",
                    "runner.emit"],
}
EXPECT_NO_CALLS = {
    "fp_group_ss": ["intlinalg.snf", "intlinalg.kernel_basis",
                    "intlinalg.solve", "diagrams.check_diagram",
                    "diagrams.Diagram.init"],
}
EXACT_SUFFIXES = (".calls", ".builds", ".max_bits", ".cells")
NO_DIGEST = "no output digest recorded for this case"


def load_package():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import functor_homology
    except ImportError as exc:
        sys.exit(f"cannot import functor_homology from {SRC}: {exc}")
    where = Path(functor_homology.__file__).resolve().parent
    if where != SRC / "functor_homology":
        sys.exit(f"functor_homology was imported from {where}, not {SRC}")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_digests(w):
    """Recorded sha256 per case key; empty if none match this universe."""
    if not DIGESTS.exists():
        return []
    with open(DIGESTS, encoding="utf-8") as fh:
        entry = json.load(fh).get(w.name, {})
    return entry["digests"] if entry.get("universe") == w.universe else []


def environment(args, mode):
    return {"workload": args.workload, "seed": args.seed, "mode": mode,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_case(w, ctx, key, digests, tracer=None, case_id=0):
    """Build, run and check the case with this key.

    Returns (seconds or None, failure reason or None, digest).  Only the
    call into the package is timed (and traced, under `case_id`).
    """
    dt = None
    try:
        inputs = w.make_inputs(ctx, key)
        if tracer is not None:
            tracer.case = case_id
            tracer.active = True
        t0 = perf_counter()
        try:
            result = w.run_case(ctx, inputs)
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        ok = w.verdict(result)
        digest = hashlib.sha256(w.digest_payload(inputs, result)).hexdigest()
    except Exception as exc:  # a raising case is a failed case, not a crash
        traceback.print_exc(file=sys.stderr)
        return dt, f"raised {type(exc).__name__}: {exc}", None
    if not ok:
        return dt, "verdict is not a pass", digest
    if key >= len(digests):
        return dt, NO_DIGEST, digest
    if digest != digests[key]:
        return dt, "output digest differs from the recorded one", digest
    return dt, None, digest


def case_key(seed, case_index, universe):
    """Key of the `case_index`-th case of a run with `seed`: runs walk the
    workload's universe of cases from an offset drawn from the seed."""
    offset = random.Random(seed).randrange(universe)
    return (offset + case_index) % universe


def report_failure(args, k, key, reason):
    print(f"FAILED workload={args.workload} seed={args.seed} case={k} "
          f"(key {key}): {reason}; replay with: python3 perfbench/run.py "
          f"--workload {args.workload} --seed {args.seed} --case {k}",
          file=sys.stderr)


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    rank = n - 10
    return s[rank - 1], 100.0 * rank / n, n - rank


def setup_probe_seconds(args):
    """Process start to first timed case, measured in a fresh process.

    perf_counter is CLOCK_MONOTONIC on Linux, shared between processes,
    so the child's reading is comparable with the parent's.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def write_out(name, payload):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def print_result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def mode_timed(w, args, spec):
    ctx = w.setup()
    digests = load_digests(w)
    latencies = []
    setups = []
    timed_s = 0.0
    attempted = failed = 0
    peak_rss_mb = None
    start = perf_counter()
    deadline = start + args.seconds
    k = 0
    # Start cases until --seconds have passed, then finish the pass over the
    # universe: every run measures whole passes, so all runs do the same
    # work in a different order.
    while k % w.universe or perf_counter() < deadline:
        # Set-up probes are spread over the run, between cases, so that they
        # sample the machine's speed at different moments; the time they
        # take is added to the deadline.
        if (len(setups) < SETUP_PROBES and perf_counter() - start
                >= len(setups) * args.seconds / SETUP_PROBES):
            t0 = perf_counter()
            setups.append(setup_probe_seconds(args))
            deadline += perf_counter() - t0
        key = case_key(args.seed, k, w.universe)
        dt, reason, _ = run_case(w, ctx, key, digests)
        attempted += 1
        timed_s += dt or 0.0
        if reason is None:
            latencies.append(dt)
        else:
            failed += 1
            report_failure(args, k, key, reason)
        k += 1
        if k == w.universe:
            # Memory grows with the cases run (the package keeps global
            # caches), so read it after a fixed amount of work: one pass.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe_seconds(args))
    if latencies:
        tail_ms, tail_pct, beyond = tail(latencies)
        values = {"cases_per_s": len(latencies) / timed_s,
                  "case_ms_p50": statistics.median(latencies) * 1000,
                  "case_ms_tail": tail_ms * 1000}
    else:
        tail_pct, beyond = 0.0, 0
        values = {"cases_per_s": 0.0, "case_ms_p50": 0.0, "case_ms_tail": 0.0}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb
    fail_frac = failed / attempted
    notes = {"case_ms_tail": f"p{tail_pct:.1f} of {len(latencies)} samples, "
                             f"{beyond} beyond",
             "setup_s": f"median of {SETUP_PROBES} fresh processes",
             "peak_rss_mb": f"after the first {w.universe} cases",
             "cases_per_s": f"{len(latencies)} cases in {timed_s:.3f} s timed"}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    env = environment(args, "timed")
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<14} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_frac':<14} {fail_frac:.6g} ratio  ({failed} of {attempted} cases)")
    write_out(f"{w.name}-seed{args.seed}-timed.json",
              {**env, "seconds": args.seconds, "metrics": metrics,
               "fail_frac": fail_frac, "attempted": attempted,
               "failed": failed, "notes": notes,
               "tail_percentile": tail_pct, "tail_beyond": beyond,
               "setup_samples_s": setups, "latencies_s": latencies})
    print_result(failed == 0, attempted, failed, metrics)


def traced_cases(w, args, tracer=None):
    ctx = w.setup()
    digests = load_digests(w)
    total = 0.0
    failed = 0
    for k in range(w.universe):
        key = case_key(args.seed, k, w.universe)
        dt, reason, _ = run_case(w, ctx, key, digests, tracer, k)
        total += dt or 0.0
        if reason is not None:
            failed += 1
            report_failure(args, k, key, reason)
    return total, failed


def coverage_gaps(name, stats, tracer):
    gaps = [f"{p} no longer exists" for p in tracer.missing]
    gaps += [f"{p} recorded no call" for p in EXPECT_CALLS.get(name, [])
             if stats.get(f"{p}.calls", 0) == 0]
    gaps += [f"{p} recorded {stats[f'{p}.calls']} calls, expected none"
             for p in EXPECT_NO_CALLS.get(name, [])
             if stats.get(f"{p}.calls", 0) != 0]
    gaps += [f"unwrapped reference {r}" for r in tracer.unpatched_references()]
    return gaps


def mode_trace(w, args, spec):
    from tracer import Tracer
    tracer = Tracer(MAX_SPANS).install()
    traced_s, failed = traced_cases(w, args, tracer)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--reference"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=600)
    untraced_s = json.loads(done.stdout.strip().splitlines()[-1])["case_s"]
    stats = tracer.stats()
    stats["trace.overhead_frac"] = traced_s / untraced_s - 1
    gaps = coverage_gaps(w.name, stats, tracer)
    for gap in gaps:
        print(f"COVERAGE {w.name}: {gap}", file=sys.stderr)
    env = environment(args, "traced")
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:.6g} {m['unit']}")
    spans = write_out(f"{w.name}-seed{args.seed}-spans.json", tracer.spans())
    write_out(f"{w.name}-seed{args.seed}-traced.json",
              {**env, "cases": w.universe, "traced_case_s": traced_s,
               "untraced_case_s": untraced_s, "failed": failed,
               "coverage_gaps": gaps, "bindings": tracer.bindings,
               "spans_file": spans.name,
               "stats": dict(sorted(stats.items()))})
    print_result(failed == 0, w.universe, failed, metrics)


def mode_selfcheck(w, args):
    """Two traced runs of one seed: exact counts must agree, and coverage
    must be complete."""
    runs = []
    for _ in range(2):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--trace", "1"]
        subprocess.run(cmd, check=True, timeout=900, stdout=subprocess.DEVNULL)
        with open(OUT / f"{w.name}-seed{args.seed}-traced.json",
                  encoding="utf-8") as fh:
            runs.append(json.load(fh))
    problems = list(runs[0]["coverage_gaps"])
    first, second = (r["stats"] for r in runs)
    exact = sorted(k for k in first if k.endswith(EXACT_SUFFIXES))
    for k in exact:
        if first[k] != second[k]:
            problems.append(f"{k} differs: {first[k]} vs {second[k]}")
    for p in problems:
        print(f"SELFCHECK {w.name}: {p}")
    print(f"selfcheck {w.name} seed {args.seed}: {len(exact)} exact counts "
          f"compared, {len(problems)} problems")
    return 0 if not problems else 1


def mode_case(w, args):
    ctx = w.setup()
    key = case_key(args.seed, args.case, w.universe)
    dt, reason, digest = run_case(w, ctx, key, load_digests(w))
    status = "pass" if reason is None else f"FAIL: {reason}"
    ms = "-" if dt is None else f"{dt * 1000:.1f} ms"
    print(f"workload={w.name} seed={args.seed} case={args.case} key={key} "
          f"{ms} digest={digest} {status}")
    return 0 if reason is None else 1


def mode_record_digests(w):
    ctx = w.setup()
    digests = []
    for key in range(w.universe):
        _, reason, digest = run_case(w, ctx, key, [])
        if reason != NO_DIGEST:
            sys.exit(f"case key {key} failed: {reason}; nothing recorded")
        digests.append(digest)
    table = {}
    if DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[w.name] = {"universe": w.universe, "digests": digests}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests for {w.name}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case", type=int, default=None,
                    help="replay the case with this index alone")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    if args.setup_probe:
        ctx = w.setup()
        w.make_inputs(ctx, case_key(args.seed, 0, w.universe))
        print(repr(perf_counter()))
        return 0
    if args.reference:
        total, _ = traced_cases(w, args)
        print(json.dumps({"case_s": total}))
        return 0
    if args.record_digests:
        return mode_record_digests(w)
    if args.selfcheck:
        return mode_selfcheck(w, args)
    if args.case is not None:
        return mode_case(w, args)
    if args.trace:
        mode_trace(w, args, spec)
    else:
        mode_timed(w, args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
