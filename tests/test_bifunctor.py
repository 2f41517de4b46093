import random
from math import gcd

import pytest

from functor_homology.abelian import is_iso
from functor_homology.bifunctor import (balance_comparison, diagram_ladder,
                                        diagram_ladder_switched, ladder,
                                        ladder_switched, tensor, tor_first,
                                        tor_second)
from functor_homology.complexes import MorphismOfSES, SES
from functor_homology.diagrams import DiagMor, Diagram, constant_diagram
from functor_homology.errors import RingMismatchError
from functor_homology.fincat import standard
from functor_homology.functors import apply, tensor_with
from functor_homology.modules import ModMor, cyclic, ring_as_module, trivial_module
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra
from functor_homology.tensorops import tensor_unit_map
from functor_homology.verification import (random_module_ses, random_morphism,
                                           random_ses_morphism,
                                           random_z_module)


def test_tensor_examples():
    assert is_iso(tensor_unit_map(cyclic(12)))
    assert tensor(cyclic(2), cyclic(3)).is_zero()
    assert tensor(cyclic(4), cyclic(6)).invariant_factors() == ([2], 0)


def test_right_exactness_in_each_slot():
    rng = random.Random(5)
    for _ in range(6):
        ses = random_module_ses(rng, ZZ, random_z_module)
        W = random_z_module(rng)
        for side in ("first", "second"):
            if side == "first":
                f2 = apply(tensor_with(W), ses.f)
                g2 = apply(tensor_with(W), ses.g)
            else:
                f2 = apply(tensor_with(W, side="left"), ses.f)
                g2 = apply(tensor_with(W, side="left"), ses.g)
            # right-exact: exact at middle and right end after tensoring
            assert g2.is_epi()
            assert f2.is_exact_at(g2)


def test_tor_table_against_gcd_oracle():
    for m in (2, 4, 6):
        for n in (2, 6, 9):
            t = tor_first(cyclic(m), cyclic(n), 1)
            g = gcd(m, n)
            want = ([g], 0) if g > 1 else ([], 0)
            assert t.invariant_factors() == want
            assert tor_first(cyclic(m), cyclic(n), 2).is_zero()
            assert tor_second(cyclic(m), cyclic(n), 1).invariant_factors() == want
    assert tor_first(cyclic(4), cyclic(6), 0).invariant_factors() == ([2], 0)


def test_noncommutative_tensor_rejected():
    s3 = [[0, 1, 2, 3, 4, 5],
          [1, 0, 4, 5, 2, 3],
          [2, 5, 0, 4, 3, 1],
          [3, 4, 5, 0, 1, 2],
          [4, 3, 1, 2, 5, 0],
          [5, 2, 3, 1, 0, 4]]
    R = group_algebra(2, s3)
    with pytest.raises(RingMismatchError):
        tensor(trivial_module(R), trivial_module(R))


def test_balance_examples():
    for (m, n, k) in [(2, 2, 1), (4, 6, 1), (6, 9, 1), (4, 6, 0), (2, 3, 2)]:
        res = balance_comparison(cyclic(m), cyclic(n), k)
        assert res.iso
    R = group_algebra(2, cyclic_group_table(2))
    T = trivial_module(R)
    for k in (0, 1, 2):
        assert balance_comparison(T, T, k).iso
    assert balance_comparison(T, ring_as_module(R), 1).iso


def _identity_ses_mor(index=None):
    """The identity morphism of Z -2-> Z -> Z/2 (constant over index, if
    given)."""
    Zm, Z2 = cyclic(0), cyclic(2)
    f, g = ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]])
    if index is None:
        ses = SES(f, g)
        return MorphismOfSES(ses, ses, Zm.identity(), Zm.identity(),
                             Z2.identity())
    L, M, N = (constant_diagram(index, X) for X in (Zm, Zm, Z2))
    dses = SES(DiagMor(L, M, {o: f for o in index.objects}),
               DiagMor(M, N, {o: g for o in index.objects}))
    return MorphismOfSES(dses, dses, L.identity(), M.identity(), N.identity())


def test_ladder_identity_case():
    arrow, n_max = standard("arrow"), 2
    other = constant_diagram(arrow, cyclic(2)).identity()
    for res in (ladder(_identity_ses_mor(), cyclic(2).identity(), n_max),
                diagram_ladder(_identity_ses_mor(arrow), other, n_max),
                diagram_ladder_switched(_identity_ses_mor(arrow), other, n_max)):
        assert res.passed()
        # identity verticals: rows coincide, and some row object is nonzero
        assert not all(v.source.is_zero() for v in res.vmaps.values())
        for v in res.vmaps.values():
            assert is_iso(v) or v.source.is_zero()


def test_ladder_base_case_mod8():
    # SESs from x2 and x4 with second map Z/2 -> Z/2
    Zm, Z2, Z4 = cyclic(0), cyclic(2), cyclic(4)
    ses1 = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    ses2 = SES(ModMor(Zm, Zm, [[4]]), ModMor(Zm, Z4, [[1]]))
    mor = MorphismOfSES(ses1, ses2, Zm.identity(), ModMor(Zm, Zm, [[2]]),
                        ModMor(Z2, Z4, [[2]]))
    res = ladder(mor, Z2.identity(), 2)
    assert res.passed()
    # elementwise oracle mod 8 for the degree-0 corner:
    # Z/2 (x) Z/2 -> Z/4 (x) Z/2 is multiplication by 2 = 0
    v = res.vmaps[("N", 0)]
    assert v.is_zero()


def test_ladder_switched_bockstein():
    Z2, Z4 = cyclic(2), cyclic(4)
    ses = SES(ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]]))
    mor = MorphismOfSES(ses, ses, Z2.identity(), Z4.identity(),
                        Z2.identity())
    res = ladder_switched(mor, Z2.identity(), 2)
    assert res.passed()
    assert not res.row_src.delta[1].is_zero()
    # split SES in the second variable: delta rows vanish
    bp = Z2.biproduct(Z4)
    ses_split = SES(bp.inj1, bp.proj2)
    mor2 = MorphismOfSES(ses_split, ses_split, Z2.identity(),
                         bp.obj.identity(), Z4.identity())
    res2 = ladder_switched(mor2, Z2.identity(), 2)
    assert res2.passed()
    assert all(d.is_zero() for d in res2.row_src.delta.values())


def test_ladder_zero_first_map():
    Z2, Z4 = cyclic(2), cyclic(4)
    ses = SES(ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]]))
    mor = MorphismOfSES(ses, ses, Z2.identity(), Z4.identity(),
                        Z2.identity())
    res = ladder_switched(mor, Z2.zero_to(Z2), 1)
    assert res.all_squares()
    for v in res.vmaps.values():
        assert v.is_zero()


def test_random_ladders():
    rng = random.Random(23)
    for _ in range(5):
        ses1 = random_module_ses(rng, ZZ, random_z_module)
        ses2 = random_module_ses(rng, ZZ, random_z_module)
        mor = random_ses_morphism(rng, ses1, ses2)
        if mor is None:
            continue
        A, B = random_z_module(rng), random_z_module(rng)
        g = random_morphism(rng, A, B)
        assert ladder(mor, g, 1).passed()
        assert ladder_switched(mor, g, 1).passed()


def _arrow_or_point_mor(J):
    """A diagram morphism over J: Z/4 -> Z/2 on a point; over the arrow,
    (Z/4 -proj-> Z/2) -> (Z/2 -id-> Z/2), so its cells differ."""
    Z2, Z4 = cyclic(2), cyclic(4)
    proj = ModMor(Z4, Z2, [[1]])
    if not J.nonidentity_morphisms():
        return DiagMor(constant_diagram(J, Z4), constant_diagram(J, Z2),
                       {"0": proj})
    A = Diagram(J, {"0": Z4, "1": Z2}, {"id_0": Z4.identity(),
                                        "id_1": Z2.identity(), "a": proj})
    B = constant_diagram(J, Z2)
    return DiagMor(A, B, {"0": proj, "1": Z2.identity()})


def _constant_ses_mor(index):
    """Constant SESs Z -2-> Z -> Z/2 and Z -4-> Z -> Z/4 with the
    morphism (1, 2, 2) between them."""
    Zm, Z2, Z4 = cyclic(0), cyclic(2), cyclic(4)

    def const_ses(f, g):
        L, M, N = (constant_diagram(index, X)
                   for X in (f.source, f.target, g.target))
        return SES(DiagMor(L, M, {o: f for o in index.objects}),
                   DiagMor(M, N, {o: g for o in index.objects}))

    src = const_ses(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    dst = const_ses(ModMor(Zm, Zm, [[4]]), ModMor(Zm, Z4, [[1]]))
    u = [DiagMor(a, b, {o: h for o in index.objects})
         for a, b, h in ((src.L, dst.L, Zm.identity()),
                         (src.M, dst.M, ModMor(Zm, Zm, [[2]])),
                         (src.N, dst.N, ModMor(Z2, Z4, [[2]])))]
    return MorphismOfSES(src, dst, *u)


def _component_ses_mor(mors, o):
    return MorphismOfSES(
        SES(mors.src.f.comps[o], mors.src.g.comps[o]),
        SES(mors.dst.f.comps[o], mors.dst.g.comps[o]),
        mors.uL.comps[o], mors.uM.comps[o], mors.uN.comps[o])


@pytest.mark.parametrize("switched", [False, True], ids=["ladder", "switched"])
@pytest.mark.parametrize("j_name", ["point", "arrow"])
def test_diagram_ladder_point_reduction(switched, j_name):
    # every cell (i, j) of a diagram ladder over I x J is the base ladder
    # built at that cell: rows, their maps and the verticals
    I, J = standard("arrow"), standard(j_name)
    n_max = 1
    if switched:
        res = diagram_ladder_switched(_constant_ses_mor(J),
                                      _arrow_or_point_mor(I), n_max)
    else:
        res = diagram_ladder(_constant_ses_mor(I), _arrow_or_point_mor(J),
                             n_max)
    assert res.passed()
    for i in I.objects:
        for j in J.objects:
            if switched:
                base = ladder_switched(
                    _component_ses_mor(_constant_ses_mor(J), j),
                    _arrow_or_point_mor(I).comps[i], n_max)
            else:
                base = ladder(_component_ses_mor(_constant_ses_mor(I), i),
                              _arrow_or_point_mor(J).comps[j], n_max)
            assert base.passed()
            cell = f"({i},{j})"
            for rows, lm, mn, delta, row in (
                    (res.row_src, res.lm_src, res.mn_src, res.delta_src,
                     base.row_src),
                    (res.row_dst, res.lm_dst, res.mn_dst, res.delta_dst,
                     base.row_dst)):
                for n in range(n_max + 1):
                    for col in ("L", "M", "N"):
                        assert rows[n][col].components[cell] == row.objs[(col, n)]
                    assert lm[n].comps[cell] == row.lm[n]
                    assert mn[n].comps[cell] == row.mn[n]
                for n in range(1, n_max + 1):
                    assert delta[n].comps[cell] == row.delta[n]
            for key, v in base.vmaps.items():
                assert res.vmaps[key].comps[cell] == v


def _bockstein_with_zero_middle(index=None):
    """Z/2 -2-> Z/4 -> Z/2 (constant over index, if given) mapped to itself
    by (id, 0, id): not a morphism of SESs, so squares must fail."""
    Z2, Z4 = cyclic(2), cyclic(4)
    f, g = ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]])
    if index is None:
        ses = SES(f, g)
        return MorphismOfSES(ses, ses, Z2.identity(), Z4.zero_to(Z4),
                             Z2.identity(), check=False)
    L, M, N = (constant_diagram(index, X) for X in (Z2, Z4, Z2))
    dses = SES(DiagMor(L, M, {o: f for o in index.objects}),
               DiagMor(M, N, {o: g for o in index.objects}))
    return MorphismOfSES(dses, dses, L.identity(), M.zero_to(M),
                         N.identity(), check=False)


def test_ladders_report_failing_squares():
    failing = [("lm", 1), ("mn", 0)]
    mors = _bockstein_with_zero_middle()
    for run in (ladder, ladder_switched):
        res = run(mors, cyclic(2).identity(), 1)
        assert res.rows_exact()
        assert not res.passed()
        assert sorted(k for k, ok in res.squares.items() if not ok) == failing
    arrow, point = standard("arrow"), standard("point")
    dmors = _bockstein_with_zero_middle(arrow)
    other = constant_diagram(point, cyclic(2)).identity()
    for run in (diagram_ladder, diagram_ladder_switched):
        res = run(dmors, other, 1)
        assert res.rows_exact() and res.routes_agree()
        assert not res.passed()
        assert sorted(k for k, ok in res.squares.items() if not ok) == failing


def test_diagram_ladder_switched():
    arrow = standard("arrow")
    point = standard("point")
    Z2, Z4 = cyclic(2), cyclic(4)
    Lb = constant_diagram(arrow, Z2)
    Mb = constant_diagram(arrow, Z4)
    Nb = constant_diagram(arrow, Z2)
    i2 = ModMor(Z2, Z4, [[2]])
    q2 = ModMor(Z4, Z2, [[1]])
    dses = SES(DiagMor(Lb, Mb, {"0": i2, "1": i2}),
               DiagMor(Mb, Nb, {"0": q2, "1": q2}))
    mor = MorphismOfSES(dses, dses, Lb.identity(), Mb.identity(),
                        Nb.identity())
    first = constant_diagram(point, Z2)
    res = diagram_ladder_switched(mor, first.identity(), 1)
    assert res.passed()
    assert not res.delta_src[1].is_zero()
