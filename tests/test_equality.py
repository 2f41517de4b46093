"""Equality of morphisms and diagrams against the reference rule.

f == g must hold exactly when f and g share their endpoints and every
column of f - g lies in the target's relations, i.e. when (f - g).is_zero().
The pairs cover identical matrices, matrices that differ by a relation,
unequal maps, different endpoints and non-morphisms, over Z with torsion
and over F_2[C2].
"""

from functor_homology.diagrams import DiagMor, Diagram
from functor_homology.fincat import standard
from functor_homology.fplinalg import FpMatrix
from functor_homology.modules import (ModMor, ModuleObj, cyclic, free_module, hom_basis,
                                      trivial_module)
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra

ARROW = standard("arrow")
R2 = group_algebra(2, cyclic_group_table(2), label="F2[C2]")


def reference_eq(f, g):
    """The rule spelled out: same endpoints, and f - g is zero."""
    if not isinstance(g, ModMor):
        return False
    if f.source != g.source or f.target != g.target:
        return False
    return (f - g).is_zero()


def diag_mor_reference_eq(f, g):
    if f.source != g.source or f.target != g.target:
        return False
    return all(reference_eq(f.comps[o], g.comps[o]) for o in f.index.objects)


def diagram_reference_eq(d, e):
    return (d.index == e.index
            and all(d.components[o] == e.components[o] for o in d.index.objects)
            and all(reference_eq(d.maps[m], e.maps[m]) for m in d.index.mor_names))


def rebuilt(f):
    """A separate ModMor with the same endpoints and a copy of the matrix."""
    return ModMor(f.source, f.target, [list(r) for r in f.matrix.data])


def shifted(f, j, rel):
    """f with the relation vector rel of its target added to column j."""
    data = [list(r) for r in f.matrix.data]
    for i, x in enumerate(rel):
        data[i][j] += x
    return ModMor(f.source, f.target, data)


def check_pairs(pairs):
    for f, g, expected in pairs:
        assert reference_eq(f, g) == expected
        assert (f == g) == expected
        assert (f != g) == (not expected)


def z_modules():
    # Z/4 + Z (source) and a target with a non-diagonal relation block,
    # isomorphic to Z/6 + Z/2 + Z
    A = ModuleObj(ZZ, gens=2, rels=[[4, 0]])
    B = ModuleObj(ZZ, gens=3, rels=[[2, 2, 0], [0, 6, 0]])
    return A, B


def test_z_equality_matches_reference():
    A, B = z_modules()
    maps = hom_basis(A, B)
    assert len(maps) >= 2
    f = maps[0]
    h = next(m for m in maps if not (m - f).is_zero())
    B2 = ModuleObj(ZZ, gens=3, rels=[[2, 0, 0], [0, 6, 0]])
    f_other_target = ModMor(A, B2, [list(r) for r in f.matrix.data])
    check_pairs([
        (f, f, True),
        (f, rebuilt(f), True),
        (f, shifted(f, 0, B.rels[0]), True),
        (f, shifted(shifted(f, 1, B.rels[1]), 0, [-x for x in B.rels[0]]), True),
        (f, h, False),
        (f, shifted(h, 1, B.rels[0]), False),
        (f, f_other_target, False),
        (A.zero_to(B), A.zero_to(B2), False),
        (f, f.matrix, False),
        (f, None, False),
    ])
    # shifting by a relation changes the matrix, not the morphism
    g = shifted(f, 0, B.rels[0])
    assert g.matrix.data != f.matrix.data and g == f


def test_z_cyclic_equality_matches_reference():
    Z4, Z6 = cyclic(4), cyclic(6)
    three = ModMor(Z4, Z6, [[3]])
    check_pairs([
        (three, ModMor(Z4, Z6, [[9]]), True),
        (three, ModMor(Z4, Z6, [[-3]]), True),
        (three, Z4.zero_to(Z6), False),
        (Z4.zero_to(Z6), ModMor(Z4, Z6, [[0]]), True),
        (three, ModMor(cyclic(4), cyclic(6), [[3]]), True),
        (three, ModMor(Z4, cyclic(12), [[6]]), False),
    ])


def test_fp_equality_matches_reference():
    P = free_module(R2, 1)
    T = trivial_module(R2)
    maps = hom_basis(P, T)
    assert maps
    aug = maps[0]
    norm = hom_basis(T, P)[0]
    # entries are stored reduced mod 2: an entry shifted by 2 is the same map
    aug3 = ModMor(P, T, FpMatrix(2, 1, 2, [[x + 2 for x in aug.matrix.data[0]]]))
    T2 = trivial_module(R2)
    check_pairs([
        (aug, aug, True),
        (aug, rebuilt(aug), True),
        (aug, aug3, True),
        (aug, P.zero_to(T), False),
        (P.identity(), aug.then(norm), False),
        (aug, ModMor(P, T2, aug.matrix), True),
        (norm, T.zero_to(P), False),
        (aug, aug.matrix, False),
        (aug, "aug", False),
    ])
    two_dim = free_module(R2, 2)
    assert not (P.zero_to(T) == two_dim.zero_to(T))


def arrow_diagram(A, B, f):
    return Diagram(ARROW, {"0": A, "1": B},
                   {"id_0": A.identity(), "id_1": B.identity(), "a": f})


def test_diagram_equality_matches_reference():
    A, B = z_modules()
    f = hom_basis(A, B)[0]
    d = arrow_diagram(A, B, f)
    same = arrow_diagram(A, B, rebuilt(f))
    by_relation = arrow_diagram(A, B, shifted(f, 1, B.rels[1]))
    other = arrow_diagram(A, B, A.zero_to(B))
    for e, expected in ((d, True), (same, True), (by_relation, True),
                        (other, False)):
        assert diagram_reference_eq(d, e) == expected
        assert (d == e) == expected
    assert not (d == f)


def test_diag_mor_equality_matches_reference():
    A, B = z_modules()
    f = hom_basis(A, B)[0]
    d = arrow_diagram(A, B, f)
    d_again = arrow_diagram(A, B, rebuilt(f))
    ends = {"0": A.identity(), "1": B.identity()}
    m = DiagMor(d, d, ends)
    m_again = DiagMor(d_again, d_again,
                      {o: rebuilt(c) for o, c in ends.items()})
    m_rel = DiagMor(d, d, {"0": A.identity(),
                           "1": shifted(B.identity(), 2, B.rels[1])})
    m_zero = DiagMor(d, d, {"0": A.zero_to(A), "1": B.zero_to(B)})
    C = cyclic(3)
    e = arrow_diagram(C, C, C.identity())
    m_other = DiagMor(e, e, {"0": C.identity(), "1": C.identity()})
    for g, expected in ((m, True), (m_again, True), (m_rel, True),
                        (m_zero, False)):
        assert diag_mor_reference_eq(m, g) == expected
        assert (m == g) == expected
    assert not diag_mor_reference_eq(m, m_other)
    assert not (m == m_other)
    assert not (m == A.identity())


def test_fp_diag_mor_equality_matches_reference():
    P, T = free_module(R2, 1), trivial_module(R2)
    aug = hom_basis(P, T)[0]
    d = arrow_diagram(P, T, aug)
    d_again = arrow_diagram(P, T, rebuilt(aug))
    m = DiagMor(d, d, {"0": P.identity(), "1": T.identity()})
    m_again = DiagMor(d_again, d_again,
                      {"0": rebuilt(P.identity()), "1": rebuilt(T.identity())})
    m_zero = DiagMor(d, d, {"0": P.zero_to(P), "1": T.zero_to(T)})
    assert d == d_again and diagram_reference_eq(d, d_again)
    for g, expected in ((m, True), (m_again, True), (m_zero, False)):
        assert diag_mor_reference_eq(m, g) == expected
        assert (m == g) == expected


def test_equality_builds_no_morphism(monkeypatch):
    """Comparing two matrices equal modulo relations constructs no ModMor,
    so equality cannot quietly go back to building f - g."""
    A, B = z_modules()
    f, h = hom_basis(A, B)[:2]
    g = shifted(f, 0, B.rels[0])
    assert f.matrix.data != g.matrix.data
    built = []
    original = ModMor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ModMor, "__init__", counting_init)
    assert f == g
    assert not (f == h)
    assert len(built) == 0
    # the counter does see constructions: the reference rule makes two
    assert (f - g).is_zero() and len(built) == 2
