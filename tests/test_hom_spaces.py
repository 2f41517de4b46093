"""Hom-space solvers over F_2[C2], checked against brute-force counts.

Over a finite field every hom space is a finite vector space, so the
number of matrix tuples that pass `ModMor`/`DiagMor` validation must be
p ** rank(span of the returned basis).  Components are kept at dimension
at most 2 so the enumeration stays small.
"""

import itertools
import random

from functor_homology import verification
from functor_homology.complexes import SES, MorphismOfSES
from functor_homology.diagrams import (DiagMor, Diagram, d_biproduct,
                                       d_hom_basis)
from functor_homology.errors import MorphismError
from functor_homology.fincat import standard
from functor_homology.fplinalg import FpMatrix, rank
from functor_homology.modules import (ModMor, biproduct, free_module,
                                      hom_basis, identity_mor, trivial_module,
                                      zero_module, zero_mor)
from functor_homology.rings import cyclic_group_table, group_algebra

P = 2
R = group_algebra(P, cyclic_group_table(2))
ARROW = standard("arrow")
POINT = standard("point")
T = trivial_module(R)
SMALL = [zero_module(R), T, free_module(R, 1), biproduct(T, T).obj]


def random_hom(rng, A, B):
    out = zero_mor(A, B)
    for b in hom_basis(A, B):
        if rng.randint(0, 1):
            out = out + b
    return out


def arrow_diagram(A, B, f):
    return Diagram(ARROW, {"0": A, "1": B},
                   {"id_0": identity_mor(A), "id_1": identity_mor(B), "a": f})


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
    vec = []
    for f in mors:
        parts = [f.comps[o] for o in f.index.objects] if isinstance(f, DiagMor) else [f]
        for g in parts:
            vec.extend(x for row in g.matrix.data for x in row)
    return vec


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
        basis = d_hom_basis(D, E)
        assert all(not b.is_zero() for b in basis)
        count = len(valid_diagram_homs(D, E))
        assert count == P ** span_rank([flatten([b]) for b in basis])


def test_d_hom_basis_on_point_matches_hom_basis():
    """On a one-object index both solvers see the same system; only the
    post-filters differ (literal-zero matrices vs zero morphisms)."""
    rng = random.Random(8)
    for make in (verification.random_z_module, lambda r: r.choice(SMALL)):
        for _ in range(10):
            A, B = make(rng), make(rng)
            D = Diagram(POINT, {"0": A}, {"id_0": identity_mor(A)})
            E = Diagram(POINT, {"0": B}, {"id_0": identity_mor(B)})
            mods = [f.matrix for f in hom_basis(A, B)]
            diags = [f.comps["0"].matrix for f in d_hom_basis(D, E)]
            assert diags == [m for m in mods if not ModMor(A, B, m).is_zero()]


def nonsplit_ses():
    """0 -> F_2 -> F_2[C2] -> F_2 -> 0 (norm, then augmentation)."""
    F = free_module(R, 1)
    return SES(ModMor(T, F, [[1], [1]]), ModMor(F, T, [[1, 1]]))


def random_module_ses(rng):
    if rng.randint(0, 2) == 0:
        return nonsplit_ses()
    A, B = rng.choice(SMALL[:2]), rng.choice(SMALL[:2])
    bp = biproduct(A, B)
    return SES(bp.inj1, bp.proj2)


def random_diagram_ses(rng):
    if rng.randint(0, 2) == 0:
        ses = nonsplit_ses()
        objs = {n: arrow_diagram(X, X, identity_mor(X))
                for n, X in (("L", ses.L), ("M", ses.M), ("N", ses.N))}
        f = DiagMor(objs["L"], objs["M"], {"0": ses.f, "1": ses.f})
        g = DiagMor(objs["M"], objs["N"], {"0": ses.g, "1": ses.g})
        return SES(f, g)
    D = random_arrow_diagram(rng, SMALL[:2])
    E = random_arrow_diagram(rng, SMALL[:2])
    bp = d_biproduct(D, E)
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
        solve = getattr(verification, f"_ses_morphism_space_{level}")
        for _ in range(8):
            ses1, ses2 = make(rng), make(rng)
            pairs = solve(ses1, ses2)
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
