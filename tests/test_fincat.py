import pytest

from functor_homology.errors import ShapeError
from functor_homology.fincat import (FinCat, build_fincat, monoid_category,
                                     opposite, product, standard, validate)


def test_standard_shapes():
    pt = standard("point")
    assert len(pt.objects) == 1 and len(pt.mor_names) == 1
    ar = standard("arrow")
    assert len(ar.objects) == 2 and len(ar.mor_names) == 3
    pp = standard("parallel_pair")
    assert len(pp.objects) == 2 and len(pp.mor_names) == 4
    sq = standard("square")
    assert len(sq.objects) == 4 and len(sq.mor_names) == 9
    for cat in (pt, ar, pp, sq):
        assert validate(cat) is None
    with pytest.raises(ShapeError):
        standard("pentagon")


def test_square_commutes():
    sq = standard("square")
    assert sq.compose("c", "a") == sq.compose("d", "b") == "e"


def test_product_counts_and_validity():
    ar = standard("arrow")
    pt = standard("point")
    prod = product(ar, ar)
    assert len(prod.objects) == 4
    assert len(prod.mor_names) == 9
    assert validate(prod) is None
    # I x point has the same counts as I
    p2 = product(ar, pt)
    assert len(p2.objects) == len(ar.objects)
    assert len(p2.mor_names) == len(ar.mor_names)
    assert len(product(pt, pt).mor_names) == 1


def test_opposite_involution():
    for name in ("arrow", "square", "parallel_pair"):
        cat = standard(name)
        assert opposite(opposite(cat)) == cat
    ar = standard("arrow")
    op = opposite(ar)
    assert op.src("a") == "1" and op.tgt("a") == "0"


def test_validate_reports_planted_violation():
    # a three-element monoid table with broken associativity
    cat = monoid_category([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert validate(cat) is None
    # tamper with the composition table directly
    bad = FinCat(cat.objects, cat.morphisms, cat.identity, dict(cat.comp))
    bad.comp[("m1", "m1")] = "m0"  # now (m1 m1) m1 != m1 (m1 m1)
    v = validate(bad)
    assert v is not None and v.kind == "associativity"
    assert all(name in bad.morphisms for name in v.detail)


def test_validate_reports_missing_composite():
    ar = standard("arrow")
    broken = FinCat(ar.objects, ar.morphisms, ar.identity,
                    {k: v for k, v in ar.comp.items() if k != ("a", "id_0")})
    v = validate(broken)
    assert v is not None and v.kind == "composition-missing"


def test_build_fincat_rejects_garbage():
    with pytest.raises(ShapeError):
        build_fincat(["0"], [("f", "0", "1")], {})  # unknown endpoint


def test_is_identity_names_the_identity_endomorphisms():
    # the identity set built once agrees with reading each morphism's
    # endpoints, also where a named identity is no endomorphism
    cats = [standard(n) for n in ("point", "arrow", "square", "parallel_pair")]
    cats += [product(standard("arrow"), standard("square")),
             opposite(standard("square")),
             monoid_category([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
             FinCat(["0", "1"], {"e": ("0", "1"), "id_1": ("1", "1")},
                    {"0": "e", "1": "id_1"}, {})]
    for cat in cats:
        for m in cat.mor_names:
            s, t = cat.morphisms[m]
            assert cat.is_identity(m) == (cat.identity.get(s) == m and s == t), (cat, m)
        assert cat == cat
    assert validate(cats[-1]).kind == "identity-shape"
    assert cats[-1].nonidentity_morphisms() == ["e"]
    assert standard("square") == standard("square") != standard("arrow")
