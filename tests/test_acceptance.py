"""Acceptance gate: every criterion at its stated size and tolerance,
one pass/fail line each (run with -s to watch them stream)."""

import glob
import os
import random
import time
from math import gcd

from functor_homology.bifunctor import tor_first
from functor_homology.diagrams import Diagram
from functor_homology.dsl import parse, print_doc
from functor_homology.fplinalg import FpMatrix
from functor_homology.functors import base_change
from functor_homology.intlinalg import IntMatrix, snf
from functor_homology.modules import (ModMor, ModuleObj, cyclic, identity_mor,
                                      trivial_module)
from functor_homology.rings import (augmentation_map, cyclic_group_table,
                                    group_algebra, group_ring_map,
                                    product_group_table)
from functor_homology.spectral import grothendieck_ss, ss_componentwise
from functor_homology.verification import run_suite
from functor_homology import runner
from oracle import (cyclic_group_homology_dims, det_sign_of_unimodular,
                    product_c2_homology_dims)

DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def _report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_snf_contract():
    t0 = time.time()
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = IntMatrix(m, n, [[rng.randint(-10, 10) for _ in range(n)]
                             for _ in range(m)])
        res = snf(A)
        if res.U.mul(A).mul(res.V) != res.D:
            ok = False
            break
        if det_sign_of_unimodular(res.U) not in (1, -1):
            ok = False
            break
        if det_sign_of_unimodular(res.V) not in (1, -1):
            ok = False
            break
        diag = res.diagonal()
        nz = [d for d in diag if d]
        if any(d <= 0 for d in nz) or any(b % a for a, b in zip(nz, nz[1:])):
            ok = False
            break
        if diag[:len(nz)] != nz:
            ok = False
            break
    elapsed = time.time() - t0
    _report("1. SNF contract on 1000 random matrices",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_02_componentwise_exactness():
    t0 = time.time()
    rep = run_suite("les", 20260810, 200)
    elapsed = time.time() - t0
    _report("2. componentwise = intrinsic exactness on 200 diagram pairs",
            rep.ok() and rep.cases == rep.passed and elapsed < 30.0,
            f"{rep.summary()}, {elapsed:.2f}s")


def test_criterion_03_kernel_lemma():
    t0 = time.time()
    rep = run_suite("kernel", 20260810, 100)
    elapsed = time.time() - t0
    _report("3. kernel lemma (induced maps + unique factorization), 100 cases",
            rep.ok() and rep.passed == 100, f"{rep.summary()}, {elapsed:.2f}s")


def test_criterion_04_tor_table():
    t0 = time.time()
    ok = True
    for m in range(2, 13):
        for n in range(2, 13):
            # hand-coded oracle: tensoring 0 -> Z --m--> Z with Z/n leaves
            # multiplication by m on Z/n, whose kernel is cyclic of order
            # gcd(m, n)
            g = gcd(m, n)
            want = ([g], 0) if g > 1 else ([], 0)
            if tor_first(cyclic(m), cyclic(n), 1).invariant_factors() != want:
                ok = False
            if not tor_first(cyclic(m), cyclic(n), 2).is_zero():
                ok = False
            if not tor_first(cyclic(m), cyclic(n), 3).is_zero():
                ok = False
    elapsed = time.time() - t0
    _report("4. Tor table 2 <= m, n <= 12 against the gcd oracle",
            ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_05_delta_functor_axioms():
    t0 = time.time()
    rep = run_suite("delta", 20260810, 100)
    elapsed = time.time() - t0
    _report("5. delta-functor axioms on 100 randomized SES fixtures",
            rep.ok() and rep.passed == 100, f"{rep.summary()}, {elapsed:.1f}s")


def test_criterion_06_comparison_iso():
    t0 = time.time()
    rep = run_suite("iso", 20260810, 100)
    elapsed = time.time() - t0
    _report("6. comparison iso + naturality on 100 random diagrams, n <= 3",
            rep.ok() and rep.passed == 100, f"{rep.summary()}, {elapsed:.1f}s")


def test_criterion_07_bifunctor_ladders():
    t0 = time.time()
    rep = run_suite("ladder", 20260810, 60)
    elapsed = time.time() - t0
    _report("7. bifunctor ladders, both orders, base + diagram + routes",
            rep.ok() and rep.passed == 60, f"{rep.summary()}, {elapsed:.1f}s")


def test_criterion_08_balance():
    t0 = time.time()
    rep = run_suite("balance", 20260810, 100)
    elapsed = time.time() - t0
    _report("8. tor_first = tor_second on 100 random pairs (Z and F2[C2])",
            rep.ok() and rep.passed == 100, f"{rep.summary()}, {elapsed:.1f}s")


def _group_functors():
    r4 = group_algebra(2, cyclic_group_table(4), label="F2[C4]")
    r2 = group_algebra(2, cyclic_group_table(2), label="F2[C2]")
    rv = group_algebra(2, product_group_table(cyclic_group_table(2),
                                              cyclic_group_table(2)),
                       label="F2[C2xC2]")
    F4 = base_change(group_ring_map(r4, r2, [0, 1, 0, 1]))
    FV = base_change(group_ring_map(rv, r2, [0, 1, 0, 1]))
    G = base_change(augmentation_map(r2))
    return r4, r2, rv, F4, FV, G


def test_criterion_09_grothendieck_desk_check():
    r4, r2, rv, F4, FV, G = _group_functors()
    for n_max in (4, 8):
        t0 = time.time()
        cells = [(p, q) for p in range(n_max + 1) for q in range(n_max + 1)]
        ok = True
        ss = grothendieck_ss(F4, G, trivial_module(r4), n_max)
        # oracle: explicit periodic resolutions
        inner = cyclic_group_homology_dims(2, 2, n_max)
        outer = cyclic_group_homology_dims(2, 4, n_max)
        if any(ss.pages[2].get((p, q), 0) != inner[q] * inner[p] for p, q in cells):
            ok = False
        if any(ss.abutment.get(n, 0) != outer[n] for n in range(n_max + 1)):
            ok = False
        if not any(not m.is_zero() for (s, t), m in ss.diffs[2].items()
                   if s + t <= n_max + 1):
            ok = False  # a nonzero d2 is forced
        if not (ss.hypothesis_ok and ss.e2_matches and ss.abutment_matches
                and ss.converged()):
            ok = False
        ssv = grothendieck_ss(FV, G, trivial_module(rv), n_max)
        wantv = product_c2_homology_dims(2, n_max)
        if any(ssv.pages[2].get(c, 0) != 1 for c in cells):
            ok = False
        if any(ssv.abutment.get(n, 0) != wantv[n] for n in range(n_max + 1)):
            ok = False
        if not ssv.degenerates_at_2:
            ok = False
        if not (ssv.hypothesis_ok and ssv.e2_matches and ssv.abutment_matches
                and ssv.converged()):
            ok = False
        elapsed = time.time() - t0
        _report(f"9. composite-functor SS desk check (C2 in C4; C2 x C2), n <= {n_max}",
                ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_10_componentwise_naturality():
    t0 = time.time()
    r4, r2, rv, F4, FV, G = _group_functors()
    arrow = __import__("functor_homology.fincat", fromlist=["standard"]).standard("arrow")
    swap = FpMatrix(2, 2, 2, [[0, 1], [1, 0]])
    ident = FpMatrix.identity(2, 2)
    quot_mod = ModuleObj(r4, gens=2, actions=[ident, swap, ident, swap])
    T = trivial_module(r4)
    aug01 = ModMor(quot_mod, T, FpMatrix(2, 1, 2, [[1, 1]]))
    A = Diagram(arrow, {"0": quot_mod, "1": T},
                {"id_0": identity_mor(quot_mod), "id_1": identity_mor(T),
                 "a": aug01})
    res = ss_componentwise(F4, G, A, 3)
    ok = (res.acceptance_ok()
          and len(res.page_squares) >= 1
          and all(res.ident_ok.values())
          and all(res.e2_squares.values())
          and all(res.abutment_filtration_ok.values())
          and all(res.gr_matches_einf.values()))
    elapsed = time.time() - t0
    _report("10. componentwise SS naturality (E2 squares + filtered abutment)",
            ok, f"{len(res.e2_squares)} E2 squares, "
                f"{len(res.page_squares)} d_r squares (r >= 3), "
                f"{len(res.gr_matches_einf)} graded checks, {elapsed:.1f}s")


def test_criterion_11_dsl_round_trip_fuzz_determinism():
    t0 = time.time()
    ok = True
    fixtures = sorted(glob.glob(os.path.join(DEMO_DIR, "*.wb")))
    if not fixtures:
        ok = False
    for path in fixtures:
        with open(path, "rb") as fh:
            text = fh.read()
        doc, diags = parse(text)
        if doc is None:
            ok = False
            continue
        doc2, diags2 = parse(print_doc(doc))
        if doc2 != doc or diags2:
            ok = False
    rng = random.Random(20260810)
    crashes = 0
    for _ in range(10000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            doc, diags = parse(blob)
            if doc is None and not diags:
                crashes += 1
        except Exception:
            crashes += 1
    if crashes:
        ok = False
    # byte-identical reports for fixed (input, seed)
    for path in fixtures:
        with open(path, "rb") as fh:
            doc, _ = parse(fh.read())
        if doc is None or not doc.tasks():
            continue
        b1 = runner.emit(runner.run(doc, seed=7), fmt="json")
        b2 = runner.emit(runner.run(doc, seed=7), fmt="json")
        t1 = runner.emit(runner.run(doc, seed=7), fmt="text")
        t2 = runner.emit(runner.run(doc, seed=7), fmt="text")
        if b1 != b2 or t1 != t2:
            ok = False
    elapsed = time.time() - t0
    _report("11. DSL round trip, 10k-input fuzz, byte-identical reports",
            ok, f"{len(fixtures)} fixtures, {elapsed:.1f}s")
