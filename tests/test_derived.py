import random

import pytest

from functor_homology import derived as derived_mod, modules
from functor_homology.abelian import is_iso
from functor_homology.complexes import (Complex, MorphismOfSES, SES,
                                        homology_at, project_complex)
from functor_homology.derived import (comparison_iso, connecting,
                                      delta_axiom_suite, derived, derived_map,
                                      horseshoe_ses_of_complexes, l0_comparison,
                                      les_data, les_of_ses, lift_resolution_map,
                                      resolve)
from functor_homology.diagrams import DiagMor, Diagram, constant_diagram
from functor_homology.errors import ExactnessError, NonzeroCompositeError
from functor_homology.fincat import standard
from functor_homology.functors import base_change, exponent, tensor_with
from functor_homology.modules import (Element, ModMor, ModuleObj, biproduct,
                                      cyclic, free_module, identity_mor,
                                      preimage, trivial_module, zero_mor)
from functor_homology.rings import (RingMap, ZZ, augmentation_map,
                                    cyclic_group_table, fp_field,
                                    group_algebra)
from functor_homology.verification import (_random_fp_module,
                                           random_diagram_ses,
                                           random_module_ses, random_morphism,
                                           random_z_module)
from oracle import connecting_by_elements
ARROW = standard("arrow")


def test_homology_examples():
    Zm = cyclic(0)
    zero = cyclic(1)
    # 0 -> Z --x6--> Z -> 0, degrees 0..1
    c = Complex(0, 1, {0: Zm, 1: Zm}, {1: ModMor(Zm, Zm, [[6]])})
    assert homology_at(c, 0).obj.invariant_factors() == ([6], 0)
    assert homology_at(c, 1).obj.is_zero()
    # zero differentials: H_n = C_n
    c2 = Complex(0, 2, {0: cyclic(2), 1: cyclic(3), 2: cyclic(4)},
                 {1: zero_mor(cyclic(3), cyclic(2)),
                  2: zero_mor(cyclic(4), cyclic(3))})
    assert homology_at(c2, 1).obj.invariant_factors() == ([3], 0)


def test_resolve_examples():
    F = free_module(ZZ, 2)
    res = resolve(F, 3)
    assert res.term(0).gens == 2 and res.term(1).gens == 0
    Z6 = cyclic(6)
    res = resolve(Z6, 3)
    assert res.term(0).gens == 1 and res.term(1).gens == 1
    assert res.term(2).gens == 0
    assert res.diff(1).matrix.data in ([[6]], [[-6]])
    cx = res.complex(3)
    assert cx.is_exact_everywhere_interior()
    # H_0 of the resolution is the resolved module, via the augmentation
    from functor_homology.modules import cofactor_through_epi
    sub0 = homology_at(cx, 0)
    aug_bar = cofactor_through_epi(sub0.epi, sub0.mono.then(res.aug()))
    assert is_iso(aug_bar)
    # group algebra: periodic rank-1 resolution with differential x(g+1)
    R = group_algebra(2, cyclic_group_table(2))
    T = trivial_module(R)
    resT = resolve(T, 4)
    for n in range(5):
        assert resT.term(n).free_rank == 1
    gp1 = R.left_mult_matrix([1, 1])
    for n in range(1, 5):
        assert resT.diff(n).matrix == gp1


def test_derived_tor_example():
    F = tensor_with(cyclic(2))
    # oracle: explicit two-term resolution 0 -> Z --x2--> Z gives
    # Tor_1 = ker(Z/2 --x2-- Z/2) = Z/2
    t1 = derived(F, cyclic(2), 1)
    assert t1.invariant_factors() == ([2], 0)
    assert derived(F, cyclic(2), 2).is_zero()
    # projective input: vanishing in positive degrees
    assert derived(F, free_module(ZZ, 2), 1).is_zero()
    assert derived(F, cyclic(12), 3).is_zero()  # proj dim <= 1 over Z


def test_l0_comparison_right_exactness():
    rng = random.Random(3)
    F = tensor_with(cyclic(4))
    for _ in range(6):
        A = random_z_module(rng)
        assert is_iso(l0_comparison(F, A))
    G = base_change(RingMap(ZZ, fp_field(2)))
    for _ in range(4):
        A = random_z_module(rng)
        assert is_iso(l0_comparison(G, A))


def test_horseshoe_examples():
    Zm, Z2 = cyclic(0), cyclic(2)
    # split case: block-diagonal differentials
    bp = biproduct(Z2, cyclic(4))
    ses = SES(bp.inj1, bp.proj2)
    sesc, hs = horseshoe_ses_of_complexes(ses, 2)
    assert sesc.mid.is_exact_everywhere_interior()
    # standard case 0 -> Z --x2--> Z -> Z/2 -> 0
    ses2 = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    sesc2, hs2 = horseshoe_ses_of_complexes(ses2, 3)
    assert hs2.res_mid.term(0).gens == 2  # L_0 + N_0 = 1 + 1
    cx = hs2.res_mid.complex(3)
    assert cx.is_exact_everywhere_interior()
    h0 = homology_at(cx, 0).obj
    assert h0.invariant_factors() == ([], 1)  # resolves M = Z
    # L = 0: the middle resolution is the N-side resolution up to iso
    from functor_homology.modules import zero_module
    zmod = zero_module(ZZ)
    ses3 = SES(zero_mor(zmod, Z2), identity_mor(Z2))
    sesc3, hs3 = horseshoe_ses_of_complexes(ses3, 2)
    assert hs3.res_mid.term(0).gens == resolve(Z2, 2).term(0).gens


def test_connecting_split_is_zero_and_bockstein_nonzero():
    Zm, Z2 = cyclic(0), cyclic(2)
    F = tensor_with(Z2)
    bp = biproduct(Z2, cyclic(4))
    les = les_of_ses(F, SES(bp.inj1, bp.proj2), 2)
    assert all(les.delta[n].is_zero() for n in les.delta)
    # Bockstein: 0 -> Z/2 -> Z/4 -> Z/2 -> 0 pushed through (x) Z/2
    les2 = les_of_ses(F, _bockstein_ses(), 2)
    assert les2.all_exact()
    assert not les2.delta[1].is_zero()


def test_connecting_representative_independence():
    # perturbing the zig-zag lifts by boundaries leaves delta unchanged:
    # rebuild delta with a second, shifted preimage choice and compare
    Zm, Z2 = cyclic(0), cyclic(2)
    F = tensor_with(Z2)
    ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    from functor_homology.derived import horseshoe_ses_of_complexes
    sesc, _ = horseshoe_ses_of_complexes(ses, 3, F=F)
    delta = connecting(sesc, 1)
    sub_n = homology_at(sesc.quo, 1)
    sub_l = homology_at(sesc.sub, 0)
    # manual zig-zag with perturbed representatives
    cols = []
    for t in range(sub_n.obj.gens):
        e = Element(sub_n.obj, [1 if k == t else 0
                                for k in range(sub_n.obj.gens)])
        k = preimage(sub_n.epi, e)
        z = sub_n.mono.apply(k)
        m = preimage(sesc.proj.at(1), z)
        # perturb the lift by an element coming from the subcomplex
        l_shift = Element(sesc.sub.objects[1],
                          [1] * sesc.sub.objects[1].gens)
        m = m + sesc.incl.at(1).apply(l_shift)
        dm = sesc.mid.diffs[1].apply(m)
        l = preimage(sesc.incl.at(0), dm)
        kl = preimage(sub_l.mono, l)
        cols.append(list(sub_l.epi.apply(kl).coords))
    delta2 = ModMor(sub_n.obj, sub_l.obj,
                    sub_n.obj.ops.from_columns(cols, sub_l.obj.gens))
    assert delta == delta2


def _oracle_deltas(sesc, les):
    """(delta_n, the element zig-zag's delta_n) for every n of the LES; over
    diagrams, one pair per index object, on the projected complexes."""
    top = sesc.quo.obj(0)
    for i in [None] if isinstance(top, ModuleObj) else top.index.objects:
        part = (lambda x: x) if i is None else (lambda x: x.component(i))
        cx = (lambda c: c) if i is None else (lambda c: project_complex(c, i))
        incl = {k: part(m) for k, m in sesc.incl.comps.items()}
        proj = {k: part(m) for k, m in sesc.proj.comps.items()}
        for n, delta in les.delta.items():
            yield part(delta), connecting_by_elements(
                cx(sesc.sub), cx(sesc.mid), cx(sesc.quo), incl, proj, n)


def test_connecting_matches_element_oracle():
    # delta from the snake lemma against the element zig-zag, on random
    # SESs over Z, over F_2[C2] and of Z-diagrams, through several functors
    rng = random.Random(20261018)
    R2 = group_algebra(2, cyclic_group_table(2))
    tensor4 = tensor_with(cyclic(4))
    z_specs = [tensor_with(cyclic(2)), tensor4, base_change(RingMap(ZZ, fp_field(2)))]
    fp_specs = [base_change(augmentation_map(R2)), tensor_with(trivial_module(R2))]
    # over Z (and so over Z-diagrams) only delta_1 can be nonzero; one
    # relation keeps free summands, so fewer of the sequences split.  A
    # sign shows only where delta has an image element of order > 2, so
    # (x) Z/4 gets half of the Z cases
    cases = []
    for k in range(160):
        cases.append(((z_specs + [tensor4])[k % 4], 1, random_module_ses(
            rng, ZZ, lambda r: random_z_module(r, max_rels=1))))
    for k in range(20):
        cases.append((fp_specs[k % 2], 2, random_module_ses(
            rng, R2, lambda r: _random_fp_module(r, R2))))
    for k in range(30):
        index = standard(("arrow", "parallel_pair", "square")[k % 3])
        cases.append((exponent(z_specs[k % 3], index), 1,
                      random_diagram_ses(rng, index, ZZ)))
    nonzero = signed = 0
    for F, n_max, ses in cases:
        data = les_data(F, ses, n_max)
        for delta, expected in _oracle_deltas(data.sesc, data.les):
            assert delta == expected
        nonzero += sum(not d.is_zero() for d in data.les.delta.values())
        signed += sum(not d == -d for d in data.les.delta.values())
    assert nonzero >= 30 and signed >= 3


def test_connecting_sign_on_z4_in_z16():
    # 0 -> Z/4 --x4--> Z/16 -> Z/4 -> 0 through (-) (x) Z/4: L (x) Z/4 ->
    # M (x) Z/4 is x4 = 0, so delta_1: Tor_1(Z/4, Z/4) -> Z/4 (x) Z/4 is an
    # isomorphism of Z/4's and delta differs from -delta
    L, M, N = cyclic(4), cyclic(16), cyclic(4)
    data = les_data(tensor_with(cyclic(4)), SES(ModMor(L, M, [[4]]),
                                                ModMor(M, N, [[1]])), 1)
    sesc = data.sesc
    # the resolution the hand computation runs on: P_1 = Z --(-4)--> Z = P_0
    # for L and N; the horseshoe's d_1 on P_1(L) + P_1(N) is [[-4, 1], [0, -4]]
    # (the 1 corrects the lift of -4 through the cover (4, 1) of Z/16);
    # after (x) Z/4 only the 1 survives
    assert sesc.quo.diffs[1].matrix.data == [[-4]]
    assert sesc.mid.diffs[1].matrix.data == [[-4, 1], [0, -4]]
    for c, n in ((sesc.quo, 1), (sesc.sub, 0)):
        h = homology_at(c, n)
        assert (h.mono.matrix.data, h.epi.matrix.data) == ([[-1]], [[1]])
    # by hand: H_1(N) is generated by the cycle -e_N; it lifts to (0, -1),
    # whose image under d_1 is -e_L in L_0 = Z/4, i.e. +1 times the cycle
    # -e_L that generates H_0(L); so delta = [[1]], and -delta = [[3]]
    delta = data.les.delta[1]
    assert delta == ModMor(delta.source, delta.target, [[1]])
    assert delta != ModMor(delta.source, delta.target, [[-1]])
    assert is_iso(delta) and data.les.all_exact()


def test_les_dimension_bookkeeping_over_f2():
    # 0 -> Z -> Z -> Z/2 -> 0 with (x) Z/2:
    # ... -> Tor1(Z/2) -> Z/2 -> Z/2 -> Z/2 -> 0
    Zm, Z2 = cyclic(0), cyclic(2)
    F = tensor_with(Z2)
    ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    les = les_of_ses(F, ses, 1)
    assert les.all_exact()
    dims = {}
    for (c, n), obj in les.objs.items():
        t, free = obj.invariant_factors()
        dims[(c, n)] = (t, free)
    assert dims[("L", 0)] == ([2], 0)
    assert dims[("M", 0)] == ([2], 0)
    assert dims[("N", 0)] == ([2], 0)
    assert dims[("N", 1)] == ([2], 0)  # Tor_1(Z/2, Z/2)
    assert dims[("L", 1)] == ([], 0)
    assert dims[("M", 1)] == ([], 0)


def test_derived_map_functoriality():
    rng = random.Random(7)
    F = tensor_with(cyclic(4))
    for n in (0, 1):
        A, B, C = (random_z_module(rng) for _ in range(3))
        f = random_morphism(rng, A, B)
        g = random_morphism(rng, B, C)
        lhs = derived_map(F, f.then(g), n)
        rhs = derived_map(F, f, n).then(derived_map(F, g, n))
        assert lhs == rhs


def test_resolution_independence_via_lifting():
    # two resolutions of the same module: the lifted chain map induces an
    # isomorphism on derived functors
    from functor_homology.derived import Resolution
    A = cyclic(4)
    res1 = resolve(A, 2)
    res2 = Resolution(A).extend_to(2)  # a second, fresh resolution
    lift = lift_resolution_map(identity_mor(A), res1, res2, 2)
    F = tensor_with(cyclic(2))
    from functor_homology.functors import apply, apply_to_complex
    c1 = apply_to_complex(F, res1.complex(2))
    c2 = apply_to_complex(F, res2.complex(2))
    from functor_homology.complexes import induced_on_homology
    for n in (0, 1):
        ind = induced_on_homology(apply(F, lift[n]),
                                  homology_at(c1, n), homology_at(c2, n))
        assert is_iso(ind)


def test_delta_axiom_suite_identity_morphism():
    Zm, Z2 = cyclic(0), cyclic(2)
    F = tensor_with(Z2)
    ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    mor = MorphismOfSES(ses, ses, identity_mor(Zm), identity_mor(Zm),
                        identity_mor(Z2))
    rep = delta_axiom_suite(F, [ses], [mor], 2)
    assert rep.ok() and rep.checked_squares == 2


def test_invalid_ses_morphism_rejected():
    Zm, Z2 = cyclic(0), cyclic(2)
    ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    from functor_homology.errors import ShapeError
    with pytest.raises(ShapeError):
        MorphismOfSES(ses, ses, identity_mor(Zm), ModMor(Zm, Zm, [[3]]),
                      identity_mor(Z2))


def test_comparison_iso_examples():
    Z4, Z2 = cyclic(4), cyclic(2)
    F = tensor_with(Z2)
    # constant diagram over the point behaves like the base category
    pt = standard("point")
    A = constant_diagram(pt, Z4)
    res = comparison_iso(F, A, 1)
    assert res.iso
    # arrow index, (Z/4 -> Z/2), n = 1: both sides have components Z/2, Z/2
    D = Diagram(ARROW, {"0": Z4, "1": Z2},
                {"id_0": identity_mor(Z4), "id_1": identity_mor(Z2),
                 "a": ModMor(Z4, Z2, [[1]])})
    res = comparison_iso(F, D, 1)
    assert res.iso
    for o in ARROW.objects:
        assert res.componentwise.components[o].invariant_factors() == ([2], 0)
        # independent per-component Tor computation
        from functor_homology.bifunctor import tor_first
        assert tor_first(D.components[o], Z2, 1).invariant_factors() == ([2], 0)
    # beyond the global dimension both sides vanish
    res3 = comparison_iso(F, D, 3)
    assert res3.iso and res3.diagramwise.is_zero()
    assert res3.componentwise.is_zero()


def test_diagram_les_via_exponent():
    F = exponent(tensor_with(cyclic(2)), ARROW)
    les = les_of_ses(F, _arrow_ses(), 1)
    assert les.all_exact()
    assert not les.delta[1].is_zero()


def _bockstein_ses():
    Z2, Z4 = cyclic(2), cyclic(4)
    return SES(ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]]))


def _arrow_ses():
    Zm, Z2 = cyclic(0), cyclic(2)
    L = constant_diagram(ARROW, Zm)
    N = constant_diagram(ARROW, Z2)
    x2 = ModMor(Zm, Zm, [[2]])
    q = ModMor(Zm, Z2, [[1]])
    return SES(DiagMor(L, L, {"0": x2, "1": x2}), DiagMor(L, N, {"0": q, "1": q}))


@pytest.mark.parametrize("make_ses, F", [
    (_bockstein_ses, tensor_with(cyclic(2))),
    (_arrow_ses, exponent(tensor_with(cyclic(2)), ARROW)),
], ids=["modules", "arrow-diagrams"])
def test_les_exactness_errors_propagate(monkeypatch, make_ses, F):
    # only a nonzero composite reads as "not exact"; any other
    # ExactnessError raised inside an LES exactness test must surface.
    # The verdict is planted only while the LES is read off its complexes,
    # so the SES checks that build those complexes run unpatched.
    ses = make_ses()

    def planted(f, g):
        raise ExactnessError("planted")

    true_les = derived_mod._les_from_sesc

    def les_under_planted_verdict(sesc, n_max):
        monkeypatch.setattr(modules, "is_exact_at", planted)
        return true_les(sesc, n_max)

    monkeypatch.setattr(derived_mod, "_les_from_sesc", les_under_planted_verdict)
    with pytest.raises(ExactnessError, match="planted"):
        les_of_ses(F, ses, 1)


def test_les_reads_a_nonzero_composite_as_not_exact():
    Zm = cyclic(0)
    one = identity_mor(Zm)
    assert derived_mod._safe_exact(one, one) is False
    with pytest.raises(NonzeroCompositeError, match="composite is nonzero"):
        one.is_exact_at(one)


def test_group_homology_of_c2():
    R = group_algebra(2, cyclic_group_table(2))
    G = base_change(augmentation_map(R))
    T = trivial_module(R)
    # oracle: periodic resolution rank counting
    from oracle import cyclic_group_homology_dims
    want = cyclic_group_homology_dims(2, 2, 4)
    for n in range(4):
        assert derived(G, T, n).dim == want[n] == 1
