"""The one hom-space solver (`modules.hom_space`), for modules and diagrams.

Over F_2[C2] every hom space is a finite vector space, so the number of
matrix tuples that pass `ModMor`/`DiagMor` validation must be
p ** rank(span of the returned basis).  Components are kept at dimension
at most 2 so the enumeration stays small.  A module is a diagram over the
one-object category, so modules and their point diagrams must get the
same spaces, matrix for matrix, and the rows of a diagram system must
come in the documented order.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

from functor_homology import verification
from functor_homology.complexes import SES, MorphismOfSES
from functor_homology.diagrams import DiagMor, Diagram
from functor_homology.errors import MorphismError
from functor_homology.fincat import standard
from functor_homology.fplinalg import FpMatrix, rank
from functor_homology.modules import (HomSystem, ModMor, cyclic, free_module, hom_basis,
                                      trivial_module, zero_module)
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra

P = 2
R = group_algebra(P, cyclic_group_table(2))
ARROW = standard("arrow")
POINT = standard("point")
T = trivial_module(R)
SMALL = [zero_module(R), T, free_module(R, 1), T.biproduct(T).obj]


def random_hom(rng, A, B):
    out = A.zero_to(B)
    for b in hom_basis(A, B):
        if rng.randint(0, 1):
            out = out + b
    return out


def arrow_diagram(A, B, f):
    return Diagram(ARROW, {"0": A, "1": B},
                   {"id_0": A.identity(), "id_1": B.identity(), "a": f})


def random_arrow_diagram(rng, mods=SMALL):
    A, B = rng.choice(mods), rng.choice(mods)
    return arrow_diagram(A, B, random_hom(rng, A, B))


def all_matrices(rows, cols):
    for entries in itertools.product(range(P), repeat=rows * cols):
        yield FpMatrix(P, rows, cols,
                       [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)])


def valid_module_homs(A, B):
    out = []
    for m in all_matrices(B.dim, A.dim):
        try:
            out.append(ModMor(A, B, m))
        except MorphismError:
            pass
    return out


def valid_diagram_homs(D, E):
    objs = list(D.index.objects)
    per = [valid_module_homs(D.components[o], E.components[o]) for o in objs]
    out = []
    for comps in itertools.product(*per):
        try:
            out.append(DiagMor(D, E, dict(zip(objs, comps))))
        except MorphismError:
            pass
    return out


def flatten(mors):
    """Coordinates of a tuple of module and diagram morphisms."""
    return [x for f in mors for m in f.matrices() for row in m.data for x in row]


def span_rank(vectors):
    if not vectors or not vectors[0]:
        return 0
    return rank(FpMatrix(P, len(vectors), len(vectors[0]), vectors))


def test_module_hom_basis_fp_matches_bruteforce():
    for A in SMALL:
        for B in SMALL:
            basis = hom_basis(A, B)
            assert len(valid_module_homs(A, B)) == P ** span_rank(
                [flatten([b]) for b in basis])


def test_d_hom_basis_fp_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(12):
        D, E = random_arrow_diagram(rng), random_arrow_diagram(rng)
        basis = hom_basis(D, E)
        assert all(not b.is_zero() for b in basis)
        count = len(valid_diagram_homs(D, E))
        assert count == P ** span_rank([flatten([b]) for b in basis])


def point(A):
    return Diagram(POINT, {"0": A}, {"id_0": A.identity()})


def point_mor(f):
    return DiagMor(point(f.source), point(f.target), {"0": f})


def test_d_hom_basis_on_point_matches_hom_basis():
    """On a one-object index modules and diagrams see the same system and
    drop the same zero maps, so the bases agree matrix for matrix."""
    rng = random.Random(8)
    for make in (verification.random_z_module, lambda r: r.choice(SMALL)):
        for _ in range(10):
            A, B = make(rng), make(rng)
            mods = [f.matrix for f in hom_basis(A, B)]
            diags = [f.comps["0"].matrix for f in hom_basis(point(A), point(B))]
            assert diags == mods


@pytest.mark.parametrize("m, n", [(3, 4), (16, 3), (2, 7)])
def test_hom_basis_has_no_zero_map(m, n):
    # Hom(Z/m, Z/n) = Z/gcd(m, n) = 0; the solved matrix ([[n]] for
    # Z/3 -> Z/4) is nonzero, but the map it gives is zero
    A, B = cyclic(m), cyclic(n)
    assert hom_basis(A, B) == []
    assert hom_basis(point(A), point(B)) == []


def nonsplit_ses():
    """0 -> F_2 -> F_2[C2] -> F_2 -> 0 (norm, then augmentation)."""
    F = free_module(R, 1)
    return SES(ModMor(T, F, [[1], [1]]), ModMor(F, T, [[1, 1]]))


def random_module_ses(rng):
    if rng.randint(0, 2) == 0:
        return nonsplit_ses()
    A, B = rng.choice(SMALL[:2]), rng.choice(SMALL[:2])
    bp = A.biproduct(B)
    return SES(bp.inj1, bp.proj2)


def random_diagram_ses(rng):
    if rng.randint(0, 2) == 0:
        ses = nonsplit_ses()
        objs = {n: arrow_diagram(X, X, X.identity())
                for n, X in (("L", ses.L), ("M", ses.M), ("N", ses.N))}
        f = DiagMor(objs["L"], objs["M"], {"0": ses.f, "1": ses.f})
        g = DiagMor(objs["M"], objs["N"], {"0": ses.g, "1": ses.g})
        return SES(f, g)
    D = random_arrow_diagram(rng, SMALL[:2])
    E = random_arrow_diagram(rng, SMALL[:2])
    bp = D.biproduct(E)
    return SES(bp.inj1, bp.proj2)


def count_ses_morphisms(ses1, ses2, homs):
    """Pairs (uL, uM) that pass validation and make the square commute."""
    return sum(1 for uL in homs(ses1.L, ses2.L) for uM in homs(ses1.M, ses2.M)
               if ses1.f.then(uM) == uL.then(ses2.f))


def test_ses_morphism_space_fp_matches_bruteforce():
    rng = random.Random(11)
    for level in ("modules", "diagrams"):
        make = random_module_ses if level == "modules" else random_diagram_ses
        homs = valid_module_homs if level == "modules" else valid_diagram_homs
        for _ in range(8):
            ses1, ses2 = make(rng), make(rng)
            pairs = verification.ses_morphism_space(ses1, ses2)
            count = count_ses_morphisms(ses1, ses2, homs)
            assert count == P ** span_rank([flatten(pair) for pair in pairs])


def test_random_ses_morphism_fp():
    rng = random.Random(3)
    for make in (random_module_ses, random_diagram_ses):
        found = 0
        for _ in range(8):
            ses1, ses2 = make(rng), make(rng)
            mor = verification.random_ses_morphism(rng, ses1, ses2)
            if mor is None:
                continue
            assert isinstance(mor, MorphismOfSES)
            assert ses1.f.then(mor.uM) == mor.uL.then(ses2.f)
            assert ses1.g.then(mor.uN) == mor.uM.then(ses2.g)
            found += 1
        assert found


# -- one solver for C and C^I, under python and python -O ------------------------


def must(cond, what):
    """assert, kept under python -O."""
    if not cond:
        raise AssertionError(what)


def point_ses(ses):
    return SES(point_mor(ses.f), point_mor(ses.g))


def _check_ses_spaces_on_points():
    """Over Z and over F_2[C2], the SES-morphism space of two module SESs
    equals, matrix for matrix, that of their point diagrams."""
    makers = ((ZZ, verification.random_z_module),
              (R, lambda r: verification._random_fp_module(r, R)))
    for seed, (ring, make) in enumerate(makers):
        rng = random.Random(seed)
        nonzero = 0
        for _ in range(6):
            s1 = verification.random_module_ses(rng, ring, make)
            s2 = verification.random_module_ses(rng, ring, make)
            mods = [[f.matrices() for f in pair]
                    for pair in verification.ses_morphism_space(s1, s2)]
            diags = [[f.matrices() for f in pair]
                     for pair in verification.ses_morphism_space(point_ses(s1),
                                                                 point_ses(s2))]
            must(diags == mods, (seed, mods, diags))
            nonzero += bool(mods)
        must(nonzero, seed)


def _rows_in_documented_order(ses1, ses2):
    """The system of pairs (uL, uM) of diagram SESs, built in its documented
    order: the unknowns of L, then of M, object by object; every
    well-definedness block; the naturality squares of L, then of M; and
    the square uM . f1 = f2 . uL at every object."""
    idx = ses1.L.index
    system = HomSystem(ses1.L.ring)
    u = {o: system.unknown(ses1.L.components[o], ses2.L.components[o])
         for o in idx.objects}
    w = {o: system.unknown(ses1.M.components[o], ses2.M.components[o])
         for o in idx.objects}
    for k in [*u.values(), *w.values()]:
        system.well_defined(k)
    for var, A, B in ((u, ses1.L, ses2.L), (w, ses1.M, ses2.M)):
        for m in idx.nonidentity_morphisms():
            system.commute(var[idx.tgt(m)], A.maps[m].matrix, B.maps[m].matrix,
                           var[idx.src(m)])
    for o in idx.objects:
        system.commute(w[o], ses1.f.comps[o].matrix, ses2.f.comps[o].matrix, u[o])
    return system


def _check_arrow_rows_in_order():
    """The solver's system for one arrow-diagram SES pair over Z (the
    nonsplit Z/2 -> Z/4 -> Z/2 at both objects, into a split sequence of
    torsion diagrams) has the rows, relation columns and unknowns of the
    documented order."""
    Z, Z2, Z4, Z6 = cyclic(0), cyclic(2), cyclic(4), cyclic(6)
    D = arrow_diagram(Z4, Z2, ModMor(Z4, Z2, [[1]]))
    bp = D.biproduct(arrow_diagram(Z, Z6, ModMor(Z, Z6, [[1]])))
    ses2 = SES(bp.inj1, bp.proj2)
    D2, D4 = (arrow_diagram(X, X, X.identity()) for X in (Z2, Z4))
    ses1 = SES(DiagMor(D2, D4, {o: ModMor(Z2, Z4, [[2]]) for o in ARROW.objects}),
               DiagMor(D4, D2, {o: ModMor(Z4, Z2, [[1]]) for o in ARROW.objects}))
    seen = []
    true_solve = HomSystem.solve

    def spy(system):
        seen.append(system)
        return true_solve(system)
    HomSystem.solve = spy
    try:
        verification.ses_morphism_space(ses1, ses2)
    finally:
        HomSystem.solve = true_solve
    (got,) = seen
    want = _rows_in_documented_order(ses1, ses2)
    must(got.aux and len(got.blocks) == 4, "a system without relations")
    must(got.rows == want.rows and got.aux == want.aux, "rows out of order")
    must(got.blocks == want.blocks, "unknowns out of order")


def test_one_solver_for_modules_and_point_diagrams():
    _check_ses_spaces_on_points()


def test_diagram_system_rows_in_documented_order():
    _check_arrow_rows_in_order()


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_one_solver_checks_under_optimize(flags):
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, os.pardir, "src"), here]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import test_hom_spaces as t\n"
              "t._check_ses_spaces_on_points()\n"
              "t._check_arrow_rows_in_order()\n"
              "print('ok')\n")
    out = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stdout + out.stderr
