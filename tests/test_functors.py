import os
import random
import subprocess
import sys

import pytest

from functor_homology.derived import derived, resolve
from functor_homology.diagrams import Diagram
from functor_homology.errors import RingMismatchError
from functor_homology.fincat import standard
from functor_homology.functors import (NatSpec, apply, apply_to_complex,
                                       base_change, compose, exponent,
                                       exponent_apply, exponent_nat,
                                       tensor_with)
from functor_homology.fplinalg import fp_from_columns, solve, unit_vectors
from functor_homology.modules import (ModMor, cokernel, cyclic, free_module,
                                      nary_biproduct, ring_as_module, section, simplify,
                                      trivial_module, zero_module)
from functor_homology.rings import (RingMap, ZZ, augmentation_map,
                                    cyclic_group_table, fp_field,
                                    group_algebra, group_ring_map,
                                    product_group_table)
from functor_homology.tensorops import (base_change_data, base_change_mor,
                                        tensor_data, tensor_obj,
                                        tensor_unit_map)
from functor_homology.verification import (_random_fp_module, random_diagram,
                                           random_morphism, random_z_module)
from functor_homology.abelian import is_iso

from oracle import base_change_by_quotient

ARROW = standard("arrow")


def test_tensor_examples():
    assert tensor_obj(cyclic(2), cyclic(3)).is_zero()
    assert tensor_obj(cyclic(4), cyclic(6)).invariant_factors() == ([2], 0)
    for A in (cyclic(0), cyclic(4), cyclic(12)):
        assert is_iso(tensor_unit_map(A))


def _base_change_pairs():
    """(ring map, module) pairs: Z -> F_2, Z -> F_3, the augmentation of
    F_2[C2] and F_2[C4] -> F_2[C2], with zero modules and zero results."""
    r2 = group_algebra(2, cyclic_group_table(2))
    r4 = group_algebra(2, cyclic_group_table(4))
    to_f2, to_f3 = RingMap(ZZ, fp_field(2)), RingMap(ZZ, fp_field(3))
    aug, c4_c2 = augmentation_map(r2), group_ring_map(r4, r2, [0, 1, 0, 1])
    return [(to_f2, cyclic(4)), (to_f2, cyclic(3)), (to_f3, cyclic(0)),
            (to_f3, free_module(ZZ, 0)), (aug, ring_as_module(r2)),
            (aug, free_module(r2, 2)), (aug, zero_module(r2)),
            (c4_c2, trivial_module(r4)), (c4_c2, ring_as_module(r4)),
            (c4_c2, zero_module(r4))]


def _quotient_epis(rng, r2):
    """Epis of `cokernel` over Z and F_2[C2] (random maps, identities and
    zero maps, so zero quotients too) and of `simplify` over Z."""
    epis = []
    for _ in range(8):
        A, B = random_z_module(rng), random_z_module(rng)
        epis.append(cokernel(random_morphism(rng, A, B))[1])
        C = _random_fp_module(rng, r2)
        D = _random_fp_module(rng, r2)
        epis.append(cokernel(random_morphism(rng, C, D))[1])
        for M in (A, C):
            epis += [cokernel(M.identity())[1], cokernel(M.zero_to(M))[1]]
        epis.append(simplify(B)[1])
    epis += [simplify(cyclic(1))[1], simplify(free_module(ZZ, 0))[1],
             cokernel(zero_module(r2).identity())[1]]
    return epis


def test_tensor_section_is_a_right_inverse():
    # tensor_mor, tensor_unit_map, base_change_mor and ModMor.cofactor
    # read maps off a quotient through the section its epi carries, so it
    # must split the epi's matrix
    r2 = group_algebra(2, cyclic_group_table(2))
    pairs = [(cyclic(4), cyclic(6)), (cyclic(0), cyclic(3)),
             (cyclic(2), cyclic(3)), (free_module(ZZ, 0), cyclic(5)),
             (ring_as_module(r2), trivial_module(r2)),
             (free_module(r2, 2), ring_as_module(r2)),
             (trivial_module(r2), zero_module(r2))]
    quotients = _quotient_epis(random.Random(29), r2)
    assert any(epi.target.gens == 0 for epi in quotients)
    epis = [tensor_data(A, B) for A, B in pairs]
    epis += [base_change_data(rm, M) for rm, M in _base_change_pairs()]
    for epi in epis + quotients:
        assert epi.matrix.mul(section(epi)) == \
            epi.target.ops.identity(epi.target.gens)
    assert tensor_data(cyclic(2), cyclic(3)).target.gens == 0
    assert tensor_data(ring_as_module(r2), trivial_module(r2)).target.gens == 1
    assert base_change_data(RingMap(ZZ, fp_field(2)), cyclic(3)).target.gens == 0


def test_base_change_mor_matches_solving_oracle():
    # the section route gives the map that solving through the epi gives
    # (over an F_p target that map's matrix is unique); the oracle solves
    # one preimage per generator itself
    rng = random.Random(23)
    nonzero = 0
    for rm, _ in _base_change_pairs():
        S = rm.target
        for _ in range(12):
            if rm.source.is_integers:
                A, B = random_z_module(rng), random_z_module(rng)
            else:
                A = _random_fp_module(rng, rm.source)
                B = _random_fp_module(rng, rm.source)
            f = random_morphism(rng, A, B)
            esrc, etgt = base_change_data(rm, A), base_change_data(rm, B)
            ops = etgt.target.ops
            if rm.source.is_integers:
                scalars = ops.matrix(f.matrix.rows, f.matrix.cols, f.matrix.data)
                raw = scalars.kron(ops.identity(S.dim))
            else:
                raw = ops.identity(S.dim).kron(f.matrix)
            preimages = [solve(esrc.matrix, e)
                         for e in unit_vectors(esrc.target.gens)]
            oracle = etgt.matrix.mul(raw).mul(
                fp_from_columns(S.p, preimages, esrc.source.gens))
            image = base_change_mor(rm, f)
            assert image.matrix == oracle
            nonzero += not image.is_zero()
    assert nonzero >= 30


def _free_base_change_fixtures(rng):
    """(ring map, free modules, other modules) over F_p-algebra sources:
    augmentations, quotients, an inclusion F_2[C2] -> F_2[C4], the unit map
    of F_2[C2], and an isomorphism onto F_2[C2] from a copy whose unit is
    its second basis element.  Free modules are `free_module`s (rank 0 too)
    and biproducts of them; the others are trivial and random modules."""
    c2 = cyclic_group_table(2)
    r2, r4 = group_algebra(2, c2), group_algebra(2, cyclic_group_table(4))
    r22 = group_algebra(2, product_group_table(c2, c2))
    r3 = group_algebra(3, cyclic_group_table(3))
    unit_second = group_algebra(2, [[1, 0], [0, 1]])
    maps = [augmentation_map(r2), augmentation_map(r3),
            group_ring_map(r4, r2, [0, 1, 0, 1]), group_ring_map(r22, r2, [0, 1, 0, 1]),
            group_ring_map(r2, r4, [0, 2]), RingMap(fp_field(2), r2, [(1, 0)]),
            group_ring_map(unit_second, r2, [1, 0])]
    out = []
    for rm in maps:
        R = rm.source
        free = [free_module(R, k) for k in (0, 1, 2)]
        free.append(nary_biproduct([free_module(R, 1), free_module(R, rng.randint(1, 2))]).obj)
        other = [trivial_module(R), _random_fp_module(rng, R, max_rank=1)]
        out.append((rm, free, other))
    return out


def _comparison(rm, M):
    """The map from the quotient route's S (x)_R M to base_change_data's,
    through the oracle epi's section, with the oracle epi."""
    old, new = base_change_by_quotient(rm, M), base_change_data(rm, M)
    assert old.source == new.source and old.target.gens == new.target.gens
    comp = ModMor(old.target, new.target, new.matrix.mul(section(old)))
    assert old.then(comp) == new
    return old, comp


def test_free_base_change_matches_quotient_route():
    rng = random.Random(59)
    built = 0
    for rm, free, other in _free_base_change_fixtures(rng):
        for M in free:
            epi = base_change_data(rm, M)
            assert epi.target.free_rank == M.free_rank
            assert epi.target.gens == M.free_rank * rm.target.dim
            assert epi.matrix.mul(section(epi)) == epi.ops.identity(epi.target.gens)
            _, comp = _comparison(rm, M)
            assert is_iso(comp)
            built += 1
        for M in other:
            assert base_change_data(rm, M).target.free_rank is None
    assert built == 28


def test_free_base_change_is_natural():
    # the comparison isomorphisms commute with base_change_mor on maps
    # free -> free, free -> other and other -> free
    rng = random.Random(61)
    checked = nonzero = 0
    for rm, free, other in _free_base_change_fixtures(rng):
        free = free[1:]  # nonzero maps; rank 0 is covered above
        pairs = [(rng.choice(free), rng.choice(free)) for _ in range(3)]
        pairs += [(rng.choice(free), M) for M in other]
        pairs += [(M, rng.choice(free)) for M in other]
        for A, B in pairs:
            f = random_morphism(rng, A, B)
            old_a, comp_a = _comparison(rm, A)
            old_b, comp_b = _comparison(rm, B)
            lifted = f.ops.identity(rm.target.dim).kron(f.matrix)
            f_old = ModMor(old_a.target, old_b.target,
                           old_b.matrix.mul(lifted).mul(section(old_a)))
            f_new = base_change_mor(rm, f)
            assert comp_a.then(f_new) == f_old.then(comp_b)
            checked += 1
            nonzero += not f_new.is_zero()
    assert checked == 49 and nonzero >= 20


def test_tensor_functoriality_and_additivity():
    rng = random.Random(3)
    F = tensor_with(cyclic(4))
    for _ in range(10):
        A, B, C = (random_z_module(rng) for _ in range(3))
        f = random_morphism(rng, A, B)
        g = random_morphism(rng, B, C)
        assert apply(F, f.then(g)) == \
            apply(F, f).then(apply(F, g))
        f2 = random_morphism(rng, A, B)
        assert apply(F, f + f2) == \
            apply(F, f) + apply(F, f2)
    assert apply(F, A.identity()) == \
        apply(F, A).identity()


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
                {"id_0": Zm.identity(), "id_1": Zm.identity(), "a": x2})
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
    f = random_morphism(rng, D, E)
    g = random_morphism(rng, E, G)
    assert exponent_apply(F, f.then(g)) == \
        exponent_apply(F, f).then(exponent_apply(F, g))
    f2 = random_morphism(rng, D, E)
    assert exponent_apply(F, f + f2) == \
        exponent_apply(F, f) + exponent_apply(F, f2)
    assert exponent_apply(F, D.identity()) == exponent_apply(F, D).identity()


def test_exponent_nat_multiplication_oracle():
    # eta induced by x2 on Z acts as multiplication by 2 at every object,
    # after conjugating by the unit isomorphism A (x) Z = A
    Zm = cyclic(0)
    eta = NatSpec(ModMor(Zm, Zm, [[2]]))
    for A in (cyclic(4), cyclic(6), cyclic(0)):
        u = tensor_unit_map(A)
        conj = u.inverse().then(eta.at(A)).then(u)
        assert conj == ModMor(A, A, [[2]])


def test_exponent_nat():
    Zm = cyclic(0)
    rng = random.Random(13)
    D = random_diagram(rng, ARROW, ZZ)
    g = ModMor(Zm, Zm, [[2]])
    eta = NatSpec(g)
    t = exponent_nat(eta, D)  # valid DiagMor; naturality checked inside
    # identity map induces the identity transformation
    eta_id = NatSpec(Zm.identity())
    t_id = exponent_nat(eta_id, D)
    for o in ARROW.objects:
        assert is_iso(t_id.comps[o])
    eta_zero = NatSpec(ModMor(Zm, Zm, [[0]]))
    assert exponent_nat(eta_zero, D).is_zero()
    # naturality against exponent images of random morphisms
    E = random_diagram(rng, ARROW, ZZ)
    f = random_morphism(rng, D, E)
    Fsrc = eta.source_spec
    Ftgt = eta.target_spec
    t_e = exponent_nat(eta, E)
    assert exponent_apply(Fsrc, f).then(t_e) == t.then(exponent_apply(Ftgt, f))


def test_base_change_identity_like():
    rm = RingMap(ZZ, ZZ)
    F = base_change(rm)
    A = cyclic(12)
    assert apply(F, A) == A
    rng = random.Random(17)
    B = random_z_module(rng)
    f = random_morphism(rng, A, B)
    assert apply(F, f) == f


def test_base_change_to_prime_field():
    F = base_change(RingMap(ZZ, fp_field(2)))
    assert apply(F, cyclic(4)).dim == 1
    assert apply(F, cyclic(3)).dim == 0
    assert apply(F, cyclic(0)).dim == 1
    Zm = cyclic(0)
    assert apply(F, ModMor(Zm, Zm, [[2]])).is_zero()
    assert not apply(F, ModMor(Zm, Zm, [[3]])).is_zero()


def test_coinvariants_of_group_algebra():
    R = group_algebra(2, cyclic_group_table(2))
    G = base_change(augmentation_map(R))
    assert apply(G, ring_as_module(R)).dim == 1
    assert apply(G, trivial_module(R)).dim == 1


def test_compose_spec():
    R4 = group_algebra(2, cyclic_group_table(4))
    R2 = group_algebra(2, cyclic_group_table(2))
    from functor_homology.rings import group_ring_map
    F = base_change(group_ring_map(R4, R2, [0, 1, 0, 1]))
    G = base_change(augmentation_map(R2))
    GF = compose(G, F)
    assert apply(GF, trivial_module(R4)).dim == 1
    with pytest.raises(RingMismatchError):
        compose(F, G)  # wrong way around


@pytest.mark.parametrize("shape", ["arrow", "square"])
def test_composite_of_exponents(shape):
    # G^I . F^I, G^I(F^I(-)) and (G . F)^I agree on diagrams, their maps
    # and their derived functors
    index = standard(shape)
    rng = random.Random(29)
    F = tensor_with(cyclic(4))
    G = base_change(RingMap(ZZ, fp_field(2)))
    composite = compose(exponent(G, index), exponent(F, index))
    lifted = exponent(compose(G, F), index)
    D = random_diagram(rng, index, ZZ)
    E = random_diagram(rng, index, ZZ)
    f = random_morphism(rng, D, E)
    for x in (D, f):
        image = apply(composite, x)
        assert image == apply(exponent(G, index), apply(exponent(F, index), x))
        assert image == apply(lifted, x)
    for n in range(3):
        assert derived(composite, D, n) == derived(lifted, D, n)


def test_exponent_images_share_endpoints():
    rng = random.Random(31)
    F = tensor_with(cyclic(2))
    for _ in range(6):
        D = random_diagram(rng, ARROW, ZZ)
        E = random_diagram(rng, ARROW, ZZ)
        f = random_morphism(rng, D, E)
        image = exponent_apply(F, f)
        assert image.source is exponent_apply(F, f.source)
        assert image.target is exponent_apply(F, f.target)
    c = resolve(D, 3).complex(3)
    fc = apply_to_complex(exponent(F, ARROW), c)
    for n in range(fc.lo + 1, fc.hi + 1):
        assert fc.diffs[n].source is fc.objects[n]
        assert fc.diffs[n].target is fc.objects[n - 1]


APPLY_ERRORS = """
from functor_homology.errors import RingMismatchError, ShapeError
from functor_homology.fincat import standard
from functor_homology.functors import (apply, base_change, compose, exponent,
                                       exponent_apply, tensor_with)
from functor_homology.diagrams import constant_diagram
from functor_homology.modules import cyclic, trivial_module
from functor_homology.rings import (RingMap, ZZ, augmentation_map,
                                    cyclic_group_table, fp_field, group_algebra)
arrow = standard("arrow")
T = tensor_with(cyclic(2))
B = base_change(RingMap(ZZ, fp_field(2)))
D = constant_diagram(arrow, cyclic(4))
Q = constant_diagram(standard("square"), cyclic(4))
R2 = group_algebra(2, cyclic_group_table(2))
for call in (lambda: apply(T, D),
             lambda: apply(B, D.identity()),
             lambda: apply(exponent(T, arrow), cyclic(4)),
             lambda: apply(exponent(T, arrow), cyclic(4).identity()),
             lambda: exponent_apply(T, cyclic(4)),
             lambda: apply(T, trivial_module(R2)),
             lambda: apply(base_change(augmentation_map(R2)), cyclic(4)),
             lambda: apply(compose(B, T), trivial_module(R2)),
             lambda: apply(compose(B, T), D),
             lambda: apply(compose(exponent(B, arrow), exponent(T, arrow)),
                           cyclic(4)),
             lambda: apply(exponent(T, arrow), Q),
             lambda: apply(exponent(T, arrow), Q.identity())):
    try:
        call()
    except (ShapeError, RingMismatchError):
        continue
    raise SystemExit("functor applied at the wrong level or ring")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_apply_rejects_wrong_level_and_ring(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, *flags, "-c", APPLY_ERRORS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
