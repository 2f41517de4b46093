#!/usr/bin/env python3
"""Per-call time of the F_p leaf operations at the shapes of fp_group_ss,
and of the checked diagram constructions at the shapes of z_delta.

Run from any directory:

    python3 bench/layers.py [--root DIR]

It imports the package from DIR/src (default: this checkout) and times
`FpMatrix.mul` at the shapes 16x16.16x8, 16x10.10x16, 29x26.26x26 and
8x32.32x40; `rref` and `kernel_basis` on a 29x26 matrix; and `Span.coords`
at dim 16 and dim 26, on a span of 3/4 dim random vectors, for vectors
inside it.  Matrices and vectors are 20% dense, as in the workload, and
are drawn from `random.Random(SEED)` for p = 2 and p = 3 alike (nonzero
entries are 1 over F_2 and 1 or 2 over F_3), so both sides of a
comparison get the same inputs.  The diagram rows time a checked
`Diagram` (identities and composites) and a checked `DiagMor` (naturality
squares, here 3 times the identity) over the square index over Z, with
Z/4 + Z/2 at every object ("full"), or at 00 and 11 with no generators
at 01 and 10 ("half zero").  Operands are built before the clock
starts.  Each operation runs in a loop of CALLS calls, and rounds go over
every operation in turn, so a drift of the machine's speed falls on all
of them alike.  The figure is the median of 3 rounds, in microseconds
per call.

The result is one JSON object on stdout: per prime (and for the
diagram rows), per operation, the median and every round.  Only the
standard library is used.
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
SEED = 20261019
ROUNDS = 3
CALLS = 400
PRIMES = (2, 3)
DENSITY = 0.2
MUL_SHAPES = ((16, 16, 8), (16, 10, 16), (29, 26, 26), (8, 32, 40))
ELIM_SHAPE = (29, 26)
SPAN_DIMS = (16, 26)


def entries(rng, p, n):
    return [rng.randint(1, p - 1) if rng.random() < DENSITY else 0 for _ in range(n)]


def operations(fpl, p):
    """[(name, zero-argument call, operations per call)], every operand
    already built."""
    rng = random.Random(SEED)

    def matrix(rows, cols):
        return fpl.FpMatrix(p, rows, cols, [entries(rng, p, cols) for _ in range(rows)])

    ops = []
    for m, k, n in MUL_SHAPES:
        a, b = matrix(m, k), matrix(k, n)
        ops.append((f"mul {m}x{k}.{k}x{n}", lambda a=a, b=b: a.mul(b), 1))
    a = matrix(*ELIM_SHAPE)
    shape = "x".join(map(str, ELIM_SHAPE))
    ops.append((f"rref {shape}", lambda a=a: fpl.rref(a), 1))
    ops.append((f"kernel_basis {shape}", lambda a=a: fpl.kernel_basis(a), 1))
    for dim in SPAN_DIMS:
        vectors = [entries(rng, p, dim) for _ in range(3 * dim // 4)]
        span = fpl.Span(p, dim, vectors)
        probes = [[sum(rng.randrange(p) * v[i] for v in vectors) % p for i in range(dim)]
                  for _ in range(8)]

        def coords(span=span, probes=probes):
            for w in probes:
                span.coords(w)
        ops.append((f"Span.coords dim {dim}", coords, len(probes)))
    return ops


def diagram_operations():
    """[(name, zero-argument call, 1)]: checked square diagrams over Z and
    checked maps of them."""
    from functor_homology.diagrams import DiagMor, Diagram
    from functor_homology.fincat import standard
    from functor_homology.modules import ModMor, ModuleObj
    from functor_homology.rings import ZZ

    square = standard("square")
    M = ModuleObj(ZZ, 2, rels=[[4, 0], [0, 2]])
    O = ModuleObj(ZZ, 0)
    a, c = [[1, 2], [0, 1]], [[1, 0], [1, 1]]
    e = [[sum(c[i][k] * a[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    ops = []
    for label, zero_at in (("full", ()), ("half zero", ("01", "10"))):
        comps = {o: O if o in zero_at else M for o in square.objects}

        def mor(s, t, data, comps=comps):
            S, T = comps[s], comps[t]
            return ModMor(S, T, data if S.gens and T.gens else S.ops.zeros(T.gens, S.gens))

        # through a corner with no generators the composite e is zero
        mats = {"a": a, "b": a, "c": c, "d": c, "e": [[0, 0], [0, 0]] if zero_at else e}
        maps = {m: mor(square.src(m), square.tgt(m),
                       mats.get(m, [[1, 0], [0, 1]])) for m in square.mor_names}
        D = Diagram(square, comps, maps)
        three = {o: mor(o, o, [[3, 0], [0, 3]]) for o in square.objects}
        ops.append((f"Diagram square {label}",
                    lambda comps=comps, maps=maps: Diagram(square, comps, maps), 1))
        ops.append((f"DiagMor square {label}",
                    lambda D=D, three=three: DiagMor(D, D, three), 1))
    return ops


def time_once(fn, per_call):
    t0 = perf_counter()
    for _ in range(CALLS):
        fn()
    return (perf_counter() - t0) / (CALLS * per_call) * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE,
                    help="checkout whose src/ is timed (default: this one)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from functor_homology import fplinalg

    ops = {f"p{p}": operations(fplinalg, p) for p in PRIMES}
    ops["diagrams Z"] = diagram_operations()
    runs = {k: {name: [] for name, _, _ in group} for k, group in ops.items()}
    for _ in range(ROUNDS):
        for k, group in ops.items():
            for name, fn, per_call in group:
                runs[k][name].append(time_once(fn, per_call))
    layers = {k: {name: {"median_us": round(statistics.median(rs), 3),
                         "rounds_us": [round(x, 3) for x in rs]}
                  for name, rs in group.items()}
              for k, group in runs.items()}
    result = {"env": {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "seed": SEED, "rounds": ROUNDS,
                      "calls": CALLS, "density": DENSITY},
              "layers": layers}
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
