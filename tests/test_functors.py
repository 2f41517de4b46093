import random

import pytest

from functor_homology.diagrams import Diagram
from functor_homology.errors import RingMismatchError
from functor_homology.fincat import standard
from functor_homology.functors import (NatSpec, apply_to_morphism,
                                       apply_to_object, base_change, compose,
                                       exponent_apply, exponent_nat,
                                       tensor_with)
from functor_homology.modules import (ModMor, cyclic, free_module,
                                      identity_mor, ring_as_module,
                                      trivial_module, zero_module)
from functor_homology.rings import (RingMap, ZZ, augmentation_map,
                                    cyclic_group_table, fp_field,
                                    group_algebra)
from functor_homology.tensorops import tensor_data, tensor_obj, tensor_unit_map
from functor_homology.verification import (random_diag_mor, random_diagram,
                                           random_morphism, random_z_module)
from functor_homology.abelian import is_iso

ARROW = standard("arrow")


def test_tensor_examples():
    assert tensor_obj(cyclic(2), cyclic(3)).is_zero()
    assert tensor_obj(cyclic(4), cyclic(6)).invariant_factors() == ([2], 0)
    for A in (cyclic(0), cyclic(4), cyclic(12)):
        assert is_iso(tensor_unit_map(A))


def test_tensor_section_is_a_right_inverse():
    # tensor_mor and tensor_unit_map read maps off the tensor product
    # through the section, so it must split the quotient map
    r2 = group_algebra(2, cyclic_group_table(2))
    pairs = [(cyclic(4), cyclic(6)), (cyclic(0), cyclic(3)),
             (cyclic(2), cyclic(3)), (free_module(ZZ, 0), cyclic(5)),
             (ring_as_module(r2), trivial_module(r2)),
             (free_module(r2, 2), ring_as_module(r2)),
             (trivial_module(r2), zero_module(r2))]
    for A, B in pairs:
        data = tensor_data(A, B)
        assert data.epi.matrix.mul(data.section) == A.ops.identity(data.obj.gens)
    assert tensor_data(cyclic(2), cyclic(3)).obj.gens == 0
    assert tensor_data(ring_as_module(r2), trivial_module(r2)).obj.gens == 1


def test_tensor_functoriality_and_additivity():
    rng = random.Random(3)
    F = tensor_with(cyclic(4))
    for _ in range(10):
        A, B, C = (random_z_module(rng) for _ in range(3))
        f = random_morphism(rng, A, B)
        g = random_morphism(rng, B, C)
        assert apply_to_morphism(F, f.then(g)) == \
            apply_to_morphism(F, f).then(apply_to_morphism(F, g))
        f2 = random_morphism(rng, A, B)
        assert apply_to_morphism(F, f + f2) == \
            apply_to_morphism(F, f) + apply_to_morphism(F, f2)
    assert apply_to_morphism(F, identity_mor(A)) == \
        identity_mor(apply_to_object(F, A))


def test_tensor_needs_commutative_base():
    # S_3-ish: any noncommutative group algebra is rejected
    s3 = [[0, 1, 2, 3, 4, 5],
          [1, 0, 4, 5, 2, 3],
          [2, 5, 0, 4, 3, 1],
          [3, 4, 5, 0, 1, 2],
          [4, 3, 1, 2, 5, 0],
          [5, 2, 3, 1, 0, 4]]
    R = group_algebra(2, s3)
    assert not R.is_commutative()
    with pytest.raises(RingMismatchError):
        tensor_with(trivial_module(R))


def test_exponent_on_arrow():
    Zm = cyclic(0)
    x2 = ModMor(Zm, Zm, [[2]])
    D = Diagram(ARROW, {"0": Zm, "1": Zm},
                {"id_0": identity_mor(Zm), "id_1": identity_mor(Zm), "a": x2})
    F = tensor_with(cyclic(2))
    FD = exponent_apply(F, D)
    assert FD.components["0"].invariant_factors() == ([2], 0)
    assert FD.components["1"].invariant_factors() == ([2], 0)
    assert FD.maps["a"].is_zero()  # x2 becomes 0 after (x) Z/2


def test_exponent_functor_laws():
    rng = random.Random(11)
    F = tensor_with(cyclic(2))
    D = random_diagram(rng, ARROW, ZZ)
    E = random_diagram(rng, ARROW, ZZ)
    G = random_diagram(rng, ARROW, ZZ)
    f = random_diag_mor(rng, D, E)
    g = random_diag_mor(rng, E, G)
    assert exponent_apply(F, f.then(g)) == \
        exponent_apply(F, f).then(exponent_apply(F, g))
    f2 = random_diag_mor(rng, D, E)
    assert exponent_apply(F, f + f2) == \
        exponent_apply(F, f) + exponent_apply(F, f2)
    from functor_homology.diagrams import d_identity
    assert exponent_apply(F, d_identity(D)) == d_identity(exponent_apply(F, D))


def test_exponent_nat_multiplication_oracle():
    # eta induced by x2 on Z acts as multiplication by 2 at every object,
    # after conjugating by the unit isomorphism A (x) Z = A
    from functor_homology.modules import iso_inverse
    Zm = cyclic(0)
    eta = NatSpec(ModMor(Zm, Zm, [[2]]))
    for A in (cyclic(4), cyclic(6), cyclic(0)):
        u = tensor_unit_map(A)
        conj = iso_inverse(u).then(eta.at(A)).then(u)
        assert conj == ModMor(A, A, [[2]])


def test_exponent_nat():
    Zm = cyclic(0)
    rng = random.Random(13)
    D = random_diagram(rng, ARROW, ZZ)
    g = ModMor(Zm, Zm, [[2]])
    eta = NatSpec(g)
    t = exponent_nat(eta, D)  # valid DiagMor; naturality checked inside
    # identity map induces the identity transformation
    eta_id = NatSpec(identity_mor(Zm))
    t_id = exponent_nat(eta_id, D)
    for o in ARROW.objects:
        assert is_iso(t_id.comps[o])
    eta_zero = NatSpec(ModMor(Zm, Zm, [[0]]))
    assert exponent_nat(eta_zero, D).is_zero()
    # naturality against exponent images of random morphisms
    E = random_diagram(rng, ARROW, ZZ)
    f = random_diag_mor(rng, D, E)
    Fsrc = eta.source_spec
    Ftgt = eta.target_spec
    t_e = exponent_nat(eta, E)
    assert exponent_apply(Fsrc, f).then(t_e) == t.then(exponent_apply(Ftgt, f))


def test_base_change_identity_like():
    rm = RingMap(ZZ, ZZ)
    F = base_change(rm)
    A = cyclic(12)
    assert apply_to_object(F, A) == A
    rng = random.Random(17)
    B = random_z_module(rng)
    f = random_morphism(rng, A, B)
    assert apply_to_morphism(F, f) == f


def test_base_change_to_prime_field():
    F = base_change(RingMap(ZZ, fp_field(2)))
    assert apply_to_object(F, cyclic(4)).dim == 1
    assert apply_to_object(F, cyclic(3)).dim == 0
    assert apply_to_object(F, cyclic(0)).dim == 1
    Zm = cyclic(0)
    assert apply_to_morphism(F, ModMor(Zm, Zm, [[2]])).is_zero()
    assert not apply_to_morphism(F, ModMor(Zm, Zm, [[3]])).is_zero()


def test_coinvariants_of_group_algebra():
    R = group_algebra(2, cyclic_group_table(2))
    G = base_change(augmentation_map(R))
    assert apply_to_object(G, ring_as_module(R)).dim == 1
    assert apply_to_object(G, trivial_module(R)).dim == 1


def test_compose_spec():
    R4 = group_algebra(2, cyclic_group_table(4))
    R2 = group_algebra(2, cyclic_group_table(2))
    from functor_homology.rings import group_ring_map
    F = base_change(group_ring_map(R4, R2, [0, 1, 0, 1]))
    G = base_change(augmentation_map(R2))
    GF = compose(G, F)
    assert apply_to_object(GF, trivial_module(R4)).dim == 1
    with pytest.raises(RingMismatchError):
        compose(F, G)  # wrong way around
