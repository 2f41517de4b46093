"""One abelian interface for C and C^I.

Modules and diagrams answer the same methods, `abelian` builds image,
mono, epi, iso and exactness from them without asking which category it
is in, and a module morphism seen as a morphism of diagrams over the
one-object index gets the same answers: every construction of the
interface, compared by `==` on the point component, and every verdict.
Each operation has one name, the method, which holds its body.
"""

import ast
import importlib.util
import os
import random

import pytest

from functor_homology import abelian, diagrams, modules
from functor_homology.abelian import exact_at, image, is_iso
from functor_homology.diagrams import DiagMor, Diagram, constant_diagram
from functor_homology.fincat import standard
from functor_homology.modules import ModMor, ModuleObj
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra
from functor_homology.verification import (_random_fp_module, random_diagram,
                                           random_morphism, random_z_module)

OBJECT_METHODS = ("identity", "zero_to", "zero_object", "biproduct", "free_cover")
MORPHISM_METHODS = ("kernel", "cokernel", "factor", "cofactor", "inverse", "lift",
                    "is_mono", "is_epi", "is_exact_at", "is_split_exact")
# the layout of a hom system (`modules.hom_space`), with a map's `matrices`
HOM_METHODS = ("hom_unknowns", "naturality", "mor_from_matrices")
POINT = standard("point")
# The methods that forward, each to the function of its module that the
# benchmark's tracer wraps (`perfbench/tracer.py`).
TRACED_FORWARDS = {
    (ModuleObj, "free_cover"): "free_cover",
    (ModMor, "kernel"): "kernel",
    (ModMor, "cokernel"): "cokernel",
    (DiagMor, "kernel"): "d_kernel",
    (DiagMor, "cokernel"): "d_cokernel",
    (DiagMor, "is_mono"): "d_kernel",
    (DiagMor, "is_epi"): "d_cokernel",
    (DiagMor, "is_exact_at"): "d_exactness_report",
}
# Module-level twins of interface methods, folded into the methods: an
# operation has one name.
FOLDED_TWINS = {
    modules: ("identity_mor", "zero_mor", "biproduct", "factor_through_mono",
              "cofactor_through_epi", "iso_inverse", "lift_through_epi",
              "is_exact_at", "is_mono", "is_epi", "is_split_exact"),
    diagrams: ("d_identity", "d_zero_mor", "d_biproduct", "d_free_cover",
               "d_factor_through_mono", "d_cofactor_through_epi", "d_iso_inverse",
               "d_lift_through_epi", "d_is_exact_at", "d_is_mono", "d_is_epi",
               "d_is_split_exact"),
}
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _interface(cls, names):
    return {n for n in names if callable(vars(cls).get(n))}


def test_both_categories_expose_the_same_methods():
    assert _interface(ModuleObj, OBJECT_METHODS) == set(OBJECT_METHODS)
    assert _interface(Diagram, OBJECT_METHODS) == set(OBJECT_METHODS)
    assert _interface(ModMor, MORPHISM_METHODS) == set(MORPHISM_METHODS)
    assert _interface(DiagMor, MORPHISM_METHODS) == set(MORPHISM_METHODS)
    for cls in (ModuleObj, Diagram):
        assert _interface(cls, HOM_METHODS) == set(HOM_METHODS)
    for cls in (ModMor, DiagMor):
        assert _interface(cls, ["matrices"]) == {"matrices"}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(mod, attr) for mod, attr, _ in tracer.TARGETS}


def test_methods_call_module_functions_by_global_name():
    # the tracer replaces module attributes: a method bound to the function
    # itself would escape it, so each forwarding method must look its
    # function up by its global name at call time
    targets = _tracer_targets()
    for (cls, name), fn in TRACED_FORWARDS.items():
        mod = modules if cls in (ModuleObj, ModMor) else diagrams
        method = vars(cls)[name]
        assert method.__module__ == mod.__name__, (cls, name)
        assert (mod.__name__.rpartition(".")[2], fn) in targets, fn
        assert fn in method.__code__.co_names, (cls, name, fn)
        assert callable(getattr(mod, fn)) and method is not getattr(mod, fn)
    # and an operation has one name: no module function repeats a method
    for mod, names in FOLDED_TWINS.items():
        assert [n for n in names if hasattr(mod, n)] == [], mod.__name__


def test_abelian_module_has_no_isinstance():
    path = os.path.join(os.path.dirname(abelian.__file__), "abelian.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "isinstance" not in names and "type" not in names


def _at_point(f: ModMor) -> DiagMor:
    o = POINT.objects[0]
    return DiagMor(constant_diagram(POINT, f.source),
                   constant_diagram(POINT, f.target), {o: f})


def _agree(f: ModMor, g: ModMor):
    """f: A -> B and g, with g . f = 0, give the same answers as modules
    and as diagrams over the point, for every operation of the interface."""
    F, G = _at_point(f), _at_point(g)
    o = POINT.objects[0]
    A, B = f.source, f.target
    DA, DB = F.source, F.target
    assert image(F).obj.component(o).describe() == image(f).obj.describe()
    assert F.is_mono() == f.is_mono()
    assert F.is_epi() == f.is_epi()
    assert is_iso(F) == is_iso(f)
    verdict = f.is_exact_at(g)
    assert F.is_exact_at(G) == verdict == exact_at(f, g) == exact_at(F, G)
    # objects: identity, zero maps, biproduct and its splitting, free cover
    assert DA.identity().component(o) == A.identity()
    assert DA.zero_to(DB).component(o) == A.zero_to(B)
    bp, dbp = A.biproduct(B), DA.biproduct(DB)
    assert dbp.obj.component(o) == bp.obj
    for part in ("inj1", "inj2", "proj1", "proj2"):
        assert getattr(dbp, part).component(o) == getattr(bp, part)
    assert dbp.inj1.is_split_exact(dbp.proj2, dbp.proj1, dbp.inj2)
    assert bp.inj1.is_split_exact(bp.proj2, bp.proj1, bp.inj2)
    # a zero retraction splits only when A is zero
    zero_r = (bp.obj.zero_to(A), dbp.obj.zero_to(DA))
    assert (dbp.inj1.is_split_exact(dbp.proj2, zero_r[1], dbp.inj2)
            == bp.inj1.is_split_exact(bp.proj2, zero_r[0], bp.inj2) == A.is_zero())
    P, cover = A.free_cover()
    DP, dcover = DA.free_cover()
    assert DP.component(o) == P and dcover.component(o) == cover
    # morphisms: factor f through its image, cofactor g through coker f,
    # lift the cover through the image epi, invert coker of the zero map
    im, dim = image(f), image(F)
    assert dim.mono.component(o) == im.mono
    assert dim.mono.factor(F).component(o) == im.mono.factor(f)
    q, dq = f.cokernel()[1], F.cokernel()[1]
    assert dq.component(o) == q
    assert dq.cofactor(G).component(o) == q.cofactor(g)
    lifted = dcover.then(dim.epi).lift(dim.epi)
    assert lifted.component(o) == cover.then(im.epi).lift(im.epi)
    iso, diso = A.zero_to(B).cokernel()[1], DA.zero_to(DB).cokernel()[1]
    assert diso.component(o) == iso
    assert diso.inverse().component(o) == iso.inverse()
    return verdict


def _composable_after(rng, f: ModMor) -> ModMor:
    """The cokernel of f followed by a random endomorphism of it."""
    Q, q = f.cokernel()
    return q.then(random_morphism(rng, Q, Q))


def test_point_diagrams_agree_with_modules_over_z():
    rng = random.Random(20)
    verdicts = []
    for _ in range(20):
        A, B = random_z_module(rng), random_z_module(rng)
        f = random_morphism(rng, A, B)
        verdicts.append(_agree(f, _composable_after(rng, f)))
    assert True in verdicts and False in verdicts


def test_point_diagrams_agree_with_modules_over_f2c2():
    rng = random.Random(5)
    ring = group_algebra(2, cyclic_group_table(2))
    for _ in range(5):
        A, B = _random_fp_module(rng, ring), _random_fp_module(rng, ring)
        f = random_morphism(rng, A, B)
        _agree(f, _composable_after(rng, f))


# -- exactness: two criteria against the Freyd oracle --------------------------


def _freyd_exact(f, g) -> bool:
    """The Freyd test, kept as the oracle: with image(f) = ker(coker f),
    the canonical map im f -> ker g is an isomorphism."""
    _, kappa = g.kernel()
    return is_iso(kappa.factor(image(f).mono))


def _componentwise_exact(f, g) -> bool:
    """ModMor.is_exact_at (ker g / im f = 0) on a module pair, or at every
    object of a diagram pair."""
    if isinstance(f, ModMor):
        return f.is_exact_at(g)
    return all(f.comps[o].is_exact_at(g.comps[o])
               for o in f.index.objects)


def _random_complex_pair(rng, make_obj, make_mor):
    """Random f: A -> M, g: M -> B with g . f = 0, exact or not: either
    g = (coker f) then a random map, or f = a random map then (ker g)."""
    A, M = make_obj(rng), make_obj(rng)
    if rng.random() < 0.5:
        f = make_mor(rng, A, M)
        Q, q = f.cokernel()
        return f, q.then(make_mor(rng, Q, Q if rng.random() < 0.5 else make_obj(rng)))
    g = make_mor(rng, M, make_obj(rng))
    K, k = g.kernel()
    return make_mor(rng, A, K).then(k), g


def _fp_family(p):
    ring = group_algebra(p, cyclic_group_table(p))
    return lambda rng: _random_fp_module(rng, ring), random_morphism


def _diagram_family(name):
    index = standard(name)
    return lambda rng: random_diagram(rng, index, ZZ), random_morphism


EXACTNESS_FAMILIES = {
    "Z": (random_z_module, random_morphism),
    "F2[C2]": _fp_family(2),
    "F3[C3]": _fp_family(3),
    "Z^arrow": _diagram_family("arrow"),
    "Z^parallel_pair": _diagram_family("parallel_pair"),
    "Z^square": _diagram_family("square"),
}


@pytest.mark.parametrize("family", list(EXACTNESS_FAMILIES))
def test_exactness_criteria_agree_with_freyd_oracle(family):
    make_obj, make_mor = EXACTNESS_FAMILIES[family]
    rng = random.Random(20261018)
    verdicts = []
    for case in range(120):
        f, g = _random_complex_pair(rng, make_obj, make_mor)
        want = _freyd_exact(f, g)
        assert exact_at(f, g) == want, (family, case)
        assert _componentwise_exact(f, g) == want, (family, case)
        assert f.is_exact_at(g) == want, (family, case)
        verdicts.append(want)
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20
