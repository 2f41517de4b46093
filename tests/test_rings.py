import pytest

from functor_homology.rings import (Ring, RingError, RingMap, ZZ,
                                    augmentation_map, cyclic_group_table,
                                    fp_field, group_algebra, group_ring_map,
                                    product_group_table)


def test_trivial_group_gives_prime_field():
    R = group_algebra(2, [[0]])
    assert R.dim == 1 and R.multiply([1], [1]) == [1]
    assert R == fp_field(2)


def test_c2_relation():
    R = group_algebra(2, cyclic_group_table(2))
    g = [0, 1]
    assert R.multiply(g, g) == [1, 0]  # g^2 = 1


def test_c4_nilpotency_of_g_plus_1():
    # (g+1)^4 = 0 in F_2[C_4], expanded through the structure constants
    R = group_algebra(2, cyclic_group_table(4))
    x = [1, 1, 0, 0]  # 1 + g
    acc = list(R.unit)
    for _ in range(4):
        acc = R.multiply(acc, x)
    assert acc == [0, 0, 0, 0]
    # and (g+1)^3 is not yet zero
    acc = list(R.unit)
    for _ in range(3):
        acc = R.multiply(acc, x)
    assert acc != [0, 0, 0, 0]


def test_non_group_tables_rejected():
    with pytest.raises(RingError):
        group_algebra(2, [[0, 1], [1, 1]])  # not associative / no inverses
    with pytest.raises(RingError):
        group_algebra(2, [[1, 0], [0, 0]])  # no identity row/col consistency
    with pytest.raises(RingError):
        group_algebra(4, cyclic_group_table(2))  # 4 is not prime


def test_broken_structure_constants_rejected():
    # e1 * e0 = e0 breaks the right unit law
    mult = (((1, 0), (0, 1)), ((1, 0), (1, 0)))
    with pytest.raises(RingError):
        Ring("fp_algebra", p=2, dim=2, basis=("1", "x"), mult=mult, unit=(1, 0))
    # planted associativity failure: x*x = x but (x*x)*y inconsistent
    mult2 = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
             ((0, 1, 0), (0, 0, 1), (0, 1, 0)),
             ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    with pytest.raises(RingError):
        Ring("fp_algebra", p=2, dim=3, basis=("1", "x", "y"), mult=mult2,
             unit=(1, 0, 0))


def test_ring_map_validation():
    R4 = group_algebra(2, cyclic_group_table(4))
    R2 = group_algebra(2, cyclic_group_table(2))
    rm = group_ring_map(R4, R2, [0, 1, 0, 1])
    assert rm.apply([0, 1, 0, 0]) == [0, 1]
    with pytest.raises(RingError):
        group_ring_map(R4, R2, [0, 1, 1, 0])  # not multiplicative
    aug = augmentation_map(R2)
    assert aug.apply([1, 1]) == [0]  # 1 + g -> 2 = 0 over F_2
    zm = RingMap(ZZ, fp_field(3))
    assert zm.source.is_integers and zm.target.p == 3


def test_product_group_table():
    t = product_group_table(cyclic_group_table(2), cyclic_group_table(2))
    R = group_algebra(2, t)
    assert R.dim == 4
    a = [0, 0, 1, 0]  # (g, 1)
    b = [0, 1, 0, 0]  # (1, h)
    assert R.multiply(a, a) == [1, 0, 0, 0]
    assert R.multiply(a, b) == R.multiply(b, a)


C2 = cyclic_group_table(2)


@pytest.mark.parametrize("table", [C2, cyclic_group_table(4),
                                   product_group_table(C2, C2)],
                         ids=["C2", "C4", "C2xC2"])
def test_regular_representation_built_once(monkeypatch, table):
    from functor_homology.modules import free_module, zero_module
    R = group_algebra(2, table)
    assert len(R.regular) == R.dim
    for a, lam in enumerate(R.regular):
        e = [1 if b == a else 0 for b in range(R.dim)]
        assert lam == R.left_mult_matrix(e)
    # free modules read the stored matrices and multiply nothing again
    monkeypatch.setattr(Ring, "left_mult_matrix", None)
    assert free_module(R, 1).actions == R.regular
    assert free_module(R, 2).gens == 2 * R.dim
    assert zero_module(R).gens == 0
    assert ZZ.regular == ()
