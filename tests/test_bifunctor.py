import random
from math import gcd

import pytest

from functor_homology.abelian import is_epi, is_iso
from functor_homology.bifunctor import (balance_comparison, diagram_ladder,
                                        diagram_ladder_switched, ladder,
                                        ladder_switched, tensor, tor_first,
                                        tor_second)
from functor_homology.complexes import MorphismOfSES, SES
from functor_homology.diagrams import DiagMor, constant_diagram, d_identity
from functor_homology.errors import RingMismatchError
from functor_homology.fincat import standard
from functor_homology.functors import apply_to_morphism, tensor_with
from functor_homology.modules import (ModMor, cyclic, identity_mor,
                                      ring_as_module, trivial_module)
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
                f2 = apply_to_morphism(tensor_with(W), ses.f)
                g2 = apply_to_morphism(tensor_with(W), ses.g)
            else:
                f2 = apply_to_morphism(tensor_with(W, side="left"), ses.f)
                g2 = apply_to_morphism(tensor_with(W, side="left"), ses.g)
            # right-exact: exact at middle and right end after tensoring
            assert is_epi(g2)
            from functor_homology.modules import is_exact_at
            assert is_exact_at(f2, g2)


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


def test_ladder_identity_case():
    Zm, Z2 = cyclic(0), cyclic(2)
    ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    mor = MorphismOfSES(ses, ses, identity_mor(Zm), identity_mor(Zm),
                        identity_mor(Z2))
    res = ladder(mor, identity_mor(Z2), 2)
    assert res.passed()
    # identity verticals: rows coincide
    for key, v in res.vmaps.items():
        assert is_iso(v) or v.source.is_zero()


def test_ladder_base_case_mod8():
    # SESs from x2 and x4 with second map Z/2 -> Z/2
    Zm, Z2, Z4 = cyclic(0), cyclic(2), cyclic(4)
    ses1 = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    ses2 = SES(ModMor(Zm, Zm, [[4]]), ModMor(Zm, Z4, [[1]]))
    mor = MorphismOfSES(ses1, ses2, identity_mor(Zm), ModMor(Zm, Zm, [[2]]),
                        ModMor(Z2, Z4, [[2]]))
    res = ladder(mor, identity_mor(Z2), 2)
    assert res.passed()
    # elementwise oracle mod 8 for the degree-0 corner:
    # Z/2 (x) Z/2 -> Z/4 (x) Z/2 is multiplication by 2 = 0
    v = res.vmaps[("N", 0)]
    assert v.is_zero()


def test_ladder_switched_bockstein():
    Z2, Z4 = cyclic(2), cyclic(4)
    ses = SES(ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]]))
    mor = MorphismOfSES(ses, ses, identity_mor(Z2), identity_mor(Z4),
                        identity_mor(Z2))
    res = ladder_switched(mor, identity_mor(Z2), 2)
    assert res.passed()
    assert not res.row_src.delta[1].is_zero()
    # split SES in the second variable: delta rows vanish
    from functor_homology.modules import biproduct
    bp = biproduct(Z2, Z4)
    ses_split = SES(bp.inj1, bp.proj2)
    mor2 = MorphismOfSES(ses_split, ses_split, identity_mor(Z2),
                         identity_mor(bp.obj), identity_mor(Z4))
    res2 = ladder_switched(mor2, identity_mor(Z2), 2)
    assert res2.passed()
    assert all(d.is_zero() for d in res2.row_src.delta.values())


def test_ladder_zero_first_map():
    Z2, Z4 = cyclic(2), cyclic(4)
    ses = SES(ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]]))
    mor = MorphismOfSES(ses, ses, identity_mor(Z2), identity_mor(Z4),
                        identity_mor(Z2))
    from functor_homology.modules import zero_mor
    res = ladder_switched(mor, zero_mor(Z2, Z2), 1)
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


def test_diagram_ladder_point_reduction():
    # arrow-index SES, point-index second variable reduces to the base case
    arrow = standard("arrow")
    point = standard("point")
    Zm, Z2 = cyclic(0), cyclic(2)
    L = constant_diagram(arrow, Zm)
    M = constant_diagram(arrow, Zm)
    N = constant_diagram(arrow, Z2)
    x2 = ModMor(Zm, Zm, [[2]])
    q = ModMor(Zm, Z2, [[1]])
    dses = SES(DiagMor(L, M, {"0": x2, "1": x2}),
               DiagMor(M, N, {"0": q, "1": q}))
    mor = MorphismOfSES(dses, dses, d_identity(L), d_identity(M), d_identity(N))
    A2 = constant_diagram(point, Z2)
    res = diagram_ladder(mor, d_identity(A2), 1)
    assert res.passed()
    # cells agree with the base-level ladder
    base_ses = SES(x2, q)
    base = ladder(MorphismOfSES(base_ses, base_ses, identity_mor(Zm),
                                identity_mor(Zm), identity_mor(Z2)),
                  identity_mor(Z2), 1)
    for n in range(2):
        for col in ("L", "M", "N"):
            cell = res.row_src[n][col].components["(0,0)"]
            assert cell == base.row_src.objs[(col, n)]


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
    mor = MorphismOfSES(dses, dses, d_identity(Lb), d_identity(Mb),
                        d_identity(Nb))
    first = constant_diagram(point, Z2)
    res = diagram_ladder_switched(mor, d_identity(first), 1)
    assert res.passed()
    assert not res.delta_src[1].is_zero()
