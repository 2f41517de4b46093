"""One abelian interface for C and C^I.

Modules and diagrams answer the same methods, `abelian` builds image,
mono, epi, iso and exactness from them without asking which category it
is in, and a module morphism seen as a morphism of diagrams over the
one-object index gets the same answers.
"""

import ast
import os
import random

import pytest

from functor_homology import abelian, diagrams, modules
from functor_homology.abelian import exact_at, image, is_iso
from functor_homology.diagrams import DiagMor, Diagram, constant_diagram
from functor_homology.fincat import standard
from functor_homology.modules import ModMor, ModuleObj
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra
from functor_homology.verification import (_random_fp_module, random_diag_mor,
                                           random_diagram, random_morphism,
                                           random_z_module)

OBJECT_METHODS = ("identity", "zero_to", "zero_object", "biproduct", "free_cover")
MORPHISM_METHODS = ("kernel", "cokernel", "factor", "cofactor", "inverse", "lift",
                    "is_mono", "is_epi", "is_exact_at", "is_split_exact")
POINT = standard("point")


def _interface(cls, names):
    return {n for n in names if callable(vars(cls).get(n))}


def test_both_categories_expose_the_same_methods():
    assert _interface(ModuleObj, OBJECT_METHODS) == set(OBJECT_METHODS)
    assert _interface(Diagram, OBJECT_METHODS) == set(OBJECT_METHODS)
    assert _interface(ModMor, MORPHISM_METHODS) == set(MORPHISM_METHODS)
    assert _interface(DiagMor, MORPHISM_METHODS) == set(MORPHISM_METHODS)


def test_methods_call_module_functions_by_global_name():
    # a method bound to the module function itself would escape a patched
    # module attribute; each one must look its function up at call time
    for cls, mod, names in ((ModuleObj, modules, OBJECT_METHODS),
                            (ModMor, modules, MORPHISM_METHODS),
                            (Diagram, diagrams, OBJECT_METHODS),
                            (DiagMor, diagrams, MORPHISM_METHODS)):
        for name in names:
            method = vars(cls)[name]
            assert method.__module__ == mod.__name__, (cls, name)
            called = [n for n in method.__code__.co_names
                      if callable(getattr(mod, n, None))]
            assert len(called) == 1, (cls, name, called)
            assert method is not getattr(mod, called[0])


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
    F, G = _at_point(f), _at_point(g)
    o = POINT.objects[0]
    assert image(F).obj.component(o).describe() == image(f).obj.describe()
    assert F.is_mono() == f.is_mono()
    assert F.is_epi() == f.is_epi()
    assert is_iso(F) == is_iso(f)
    verdict = f.is_exact_at(g)
    assert F.is_exact_at(G) == verdict == exact_at(f, g) == exact_at(F, G)
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
    """modules.is_exact_at (ker g / im f = 0) on a module pair, or at every
    object of a diagram pair."""
    if isinstance(f, ModMor):
        return modules.is_exact_at(f, g)
    return all(modules.is_exact_at(f.comps[o], g.comps[o])
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
    return lambda rng: random_diagram(rng, index, ZZ), random_diag_mor


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
