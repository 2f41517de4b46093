#!/usr/bin/env python3
"""Scaling of the composite-functor spectral sequence with total degree.

Run from any directory, with no arguments:

    python3 bench/ss_scaling.py

It imports the package from this checkout's src/ and times `ss_pages` and
`grothendieck_ss` on the F_2 group-homology fixtures of the test suite:
F = base change along C4 -> C2 (or C2xC2 -> C2), G = C2-coinvariants, on
the trivial module, for n_max = 3..8, 12 and 16.  The componentwise
section times `ss_componentwise` with the same functors on diagrams:
acceptance criterion 10's arrow diagram over F2[C4] at n_max = 3, and two
square diagrams over F2[C2xC2] at n_max = 2 and 3, each the first draw of
`verification.random_diagram` with a nonzero structure map at a fixed
seed (the n_max = 2 rows are those of earlier versions of this script).
Every figure is the median of 3 runs, each on freshly built rings and
modules so that no memo is shared between runs.  `ss_pages` is timed
on the double complex of a first, untimed `grothendieck_ss` call.  It
also counts the lines of src/ and of src/functor_homology/spectral.py,
and the lines of src/ that contain `is_integers` or `isinstance` (the
base-ring and type dispatch points).  The result is one JSON object on
stdout.
"""

import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import random  # noqa: E402

from functor_homology.diagrams import Diagram  # noqa: E402
from functor_homology.fincat import standard  # noqa: E402
from functor_homology.fplinalg import FpMatrix  # noqa: E402
from functor_homology.functors import base_change  # noqa: E402
from functor_homology.modules import (ModMor, ModuleObj, identity_mor,  # noqa: E402
                                      trivial_module)
from functor_homology.rings import (augmentation_map, cyclic_group_table,  # noqa: E402
                                    group_algebra, group_ring_map,
                                    product_group_table)
from functor_homology.spectral import (grothendieck_ss, ss_componentwise,  # noqa: E402
                                       ss_pages)
from functor_homology.verification import random_diagram  # noqa: E402

RUNS = 3
DEGREES = (3, 4, 5, 6, 7, 8, 12, 16)
SQUARE_SEEDS = (1, 20261019)
SQUARE_DEGREES = (2, 3)


def fixture(name):
    """(F, G, A) built from scratch."""
    r2 = group_algebra(2, cyclic_group_table(2), label="F2[C2]")
    if name == "C4":
        big = group_algebra(2, cyclic_group_table(4), label="F2[C4]")
    else:
        big = group_algebra(2, product_group_table(cyclic_group_table(2),
                                                   cyclic_group_table(2)),
                            label="F2[C2xC2]")
    F = base_change(group_ring_map(big, r2, [0, 1, 0, 1]))
    G = base_change(augmentation_map(r2))
    return F, G, trivial_module(big)


def timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def measure(name, n_max):
    ss_s = []
    gss_s = []
    for _ in range(RUNS):
        F, G, A = fixture(name)
        dt, gd = timed(lambda: grothendieck_ss(F, G, A, n_max, with_data=True))
        gss_s.append(dt)
        dt, _ = timed(lambda: ss_pages(gd.dc, n_valid=n_max))
        ss_s.append(dt)
    ss = gd.ss
    return {
        "fixture": name,
        "n_max": n_max,
        "tot_dims": [ss.internal.tot.dims[n] for n in sorted(ss.internal.tot.dims)],
        "abutment": [ss.abutment[n] for n in range(n_max + 1)],
        "ss_pages_s": round(statistics.median(ss_s), 4),
        "grothendieck_ss_s": round(statistics.median(gss_s), 4),
        "ss_pages_runs_s": [round(x, 4) for x in ss_s],
        "grothendieck_ss_runs_s": [round(x, 4) for x in gss_s],
    }


def diagram_fixture(name):
    """(F, G, A) built from scratch: criterion 10's arrow diagram (F2[C4]
    modulo C2 onto the trivial module), or a random square."""
    F, G, A = fixture("C4" if name == "criterion10" else "C2xC2")
    ring = A.ring
    if name == "criterion10":
        swap = FpMatrix(2, 2, 2, [[0, 1], [1, 0]])
        ident = FpMatrix.identity(2, 2)
        quot = ModuleObj(ring, gens=2, actions=[ident, swap, ident, swap])
        return F, G, Diagram(standard("arrow"), {"0": quot, "1": A},
                             {"id_0": identity_mor(quot), "id_1": identity_mor(A),
                              "a": ModMor(quot, A, FpMatrix(2, 1, 2, [[1, 1]]))})
    rng = random.Random(int(name.split("_seed")[1]))
    while True:
        D = random_diagram(rng, standard("square"), ring)
        if any(not D.maps[m].is_zero() for m in D.index.nonidentity_morphisms()):
            return F, G, D


def measure_componentwise(name, n_max):
    runs = []
    for _ in range(RUNS):
        F, G, A = diagram_fixture(name)
        dt, res = timed(lambda: ss_componentwise(F, G, A, n_max))
        runs.append(dt)
    return {
        "fixture": name,
        "n_max": n_max,
        "component_gens": [A.components[o].gens for o in A.index.objects],
        "acceptance_ok": res.acceptance_ok(),
        "ss_componentwise_s": round(statistics.median(runs), 4),
        "ss_componentwise_runs_s": [round(x, 4) for x in runs],
    }


def src_lines(token=""):
    """Lines of src/ (containing `token`, when given)."""
    return sum(token in line
               for p in sorted((SRC / "functor_homology").glob("*.py"))
               for line in p.read_text(encoding="utf-8").splitlines())


def main():
    results = [measure(name, n) for name in ("C4", "C2xC2") for n in DEGREES]
    componentwise = [measure_componentwise("criterion10", 3)]
    componentwise += [measure_componentwise(f"C2xC2_square_seed{s}", n)
                      for s in SQUARE_SEEDS for n in SQUARE_DEGREES]
    print(json.dumps({
        "benchmark": "bench/ss_scaling.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "runs": RUNS,
        "src_lines": src_lines(),
        "spectral_py_lines": len((SRC / "functor_homology" / "spectral.py")
                                 .read_text(encoding="utf-8").splitlines()),
        "src_is_integers_lines": src_lines("is_integers"),
        "src_isinstance_lines": src_lines("isinstance"),
        "results": results,
        "componentwise": componentwise,
    }, indent=1))


if __name__ == "__main__":
    main()
