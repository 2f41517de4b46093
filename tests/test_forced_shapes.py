"""Kernels out of, and cokernels into, objects with no generators are
forced by shape, and the forced answers equal the general route's.

`modules.kernel` and `cokernel`, and `diagrams.d_kernel` and `d_cokernel`,
answer such maps without elimination.  A seeded draw over Z, F_2[C2xC2]
and F_3, on modules and on diagrams over arrow, parallel_pair and square,
takes maps 0 -> 0, 0 -> B and A -> 0 (the only maps there are: zero) with
the zero side in several presentations, and compares each answer with the
general bodies kept in `tests/oracle.py`: objects, maps and the section
cached on a cokernel's epi.  Every returned diagram must pass
`check_diagram`, and every returned diagram map its naturality check.
"""

import random

import pytest

import oracle
from functor_homology import fplinalg, intlinalg, modules
from functor_homology.diagrams import (DiagMor, Diagram, check_diagram, d_cokernel,
                                       d_kernel, zero_diagram)
from functor_homology.fincat import standard
from functor_homology.modules import ModMor, ModuleObj, zero_module
from functor_homology.rings import (ZZ, cyclic_group_table, fp_field, group_algebra,
                                    product_group_table)
from functor_homology.verification import _random_fp_module, random_diagram, random_z_module

SEED = 20261019
RINGS = {
    "Z": ZZ,
    "F2[C2xC2]": group_algebra(2, product_group_table(cyclic_group_table(2),
                                                      cyclic_group_table(2))),
    "F3": fp_field(3),
}
INDICES = ("arrow", "parallel_pair", "square")
SHAPES = ("0->0", "0->B", "A->0")


def zero_presentation(rng, ring):
    """A module with no generators, in one of the forms the package and
    its users make: the free module of rank 0, a fresh checked
    presentation, or (over Z) one with empty relation rows."""
    ops = modules.ring_ops(ring)
    forms = [lambda: zero_module(ring),
             lambda: ModuleObj(ring, 0, actions=[ops.zeros(0, 0)] * ops.n_actions)]
    if ring is ZZ:
        forms.append(lambda: ModuleObj(ZZ, 0, rels=[[], []]))
    return rng.choice(forms)()


def some_module(rng, ring):
    return random_z_module(rng) if ring is ZZ else _random_fp_module(rng, ring)


def endpoints(rng, shape, zero, other):
    """(source, target) of a map of the given shape."""
    if shape == "0->0":
        return zero(), zero()
    return (zero(), other()) if shape == "0->B" else (other(), zero())


def same_section(epi, ref):
    assert "section" in epi._cache and "section" in ref._cache
    assert epi._cache["section"] == ref._cache["section"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", RINGS)
def test_module_answers_equal_the_general_route(name, shape):
    ring = RINGS[name]
    rng = random.Random(f"{SEED}-{name}-{shape}")
    for _ in range(6):
        A, B = endpoints(rng, shape, lambda: zero_presentation(rng, ring),
                         lambda: some_module(rng, ring))
        f = A.zero_to(B)
        if not A.gens:
            K, mono = modules.kernel(f)
            K_ref, mono_ref = oracle.kernel_by_submodule(f)
            assert K == K_ref and mono == mono_ref
            assert mono.source is K and mono.target is A
        if not B.gens:
            Q, epi = modules.cokernel(f)
            Q_ref, epi_ref = oracle.cokernel_by_quotient(f)
            assert Q == Q_ref and epi == epi_ref
            assert epi.source is B and epi.target is Q
            same_section(epi, epi_ref)
            assert modules.section(epi) == epi.matrix


def zero_diagram_presentation(rng, index, ring):
    """A diagram with no generators at any object: the shared zero diagram,
    or a fresh zero presentation at every object with zero structure maps,
    checked."""
    if rng.random() < 0.5:
        return zero_diagram(index, ring)
    comps = {o: zero_presentation(rng, ring) for o in index.objects}
    maps = {m: comps[index.src(m)].zero_to(comps[index.tgt(m)]) for m in index.mor_names}
    return Diagram(index, comps, maps)


def d_zero(A, B):
    return DiagMor(A, B, {o: A.components[o].zero_to(B.components[o])
                          for o in A.index.objects})


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("index_name", INDICES)
@pytest.mark.parametrize("name", RINGS)
def test_diagram_answers_equal_the_general_route(name, index_name, shape):
    ring, index = RINGS[name], standard(index_name)
    rng = random.Random(f"{SEED}-{name}-{index_name}-{shape}")
    for _ in range(2):
        A, B = endpoints(rng, shape, lambda: zero_diagram_presentation(rng, index, ring),
                         lambda: random_diagram(rng, index, ring))
        f = d_zero(A, B)
        if not any(c.gens for c in A.components.values()):
            K, mono = d_kernel(f)
            K_ref, mono_ref = oracle.d_kernel_by_factoring(f)
            assert K == K_ref and mono == mono_ref
            assert check_diagram(K) is None and mono._check() is None
        if not any(c.gens for c in B.components.values()):
            Q, epi = d_cokernel(f)
            Q_ref, epi_ref = oracle.d_cokernel_by_cofactoring(f)
            assert Q == Q_ref and epi == epi_ref
            assert check_diagram(Q) is None and epi._check() is None
            for o in index.objects:
                same_section(epi.comps[o], epi_ref.comps[o])


def test_forced_answers_run_no_elimination(monkeypatch):
    """No Smith form, echelon form or span is built for a forced answer."""
    def refuse(*args, **kwargs):
        raise AssertionError("elimination ran for an answer forced by shape")
    cases = []
    for ring in RINGS.values():
        Z, M = zero_module(ring), modules.free_module(ring, 1)
        index = standard("square")
        DZ, DM = zero_diagram(index, ring), zero_diagram(index, ring)
        cases.append((Z.zero_to(M), M.zero_to(Z), d_zero(DZ, DM)))
    for target, name in ((intlinalg, "snf"), (fplinalg, "rref"), (fplinalg, "Span"),
                         (ModMor, "factor"), (ModMor, "cofactor")):
        monkeypatch.setattr(target, name, refuse)
    for into, out_of, d in cases:
        modules.kernel(into)
        modules.cokernel(out_of)
        d_kernel(d)
        d_cokernel(d)
