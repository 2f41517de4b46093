"""Exactness verdicts decided cheaply, against the constructions they replace.

Over an F_p-algebra the mono, epi and exactness verdicts on module maps are
rank counts; the oracle builds the kernel, cokernel and homology module
they ask about (`oracle.mono_by_kernel`, `epi_by_cokernel`,
`exact_by_homology`).  A horseshoe's short exact sequence of complexes is
checked by its splitting; the oracle is the full `SES` check in every
degree.  Hom systems commute with the algebra generators only; the oracle
commutes with every basis element and must give the same matrices.
"""

import functools
import os
import random
import re
import subprocess
import sys

import pytest

from functor_homology import modules
from functor_homology.complexes import SES, SESOfComplexes
from functor_homology.derived import (_safe_exact, horseshoe_data_for,
                                      horseshoe_ses_of_complexes)
from functor_homology.errors import ExactnessError, NonzeroCompositeError
from functor_homology.fincat import standard
from functor_homology.functors import apply, base_change, exponent, tensor_with
from functor_homology.modules import (biproduct, cyclic, free_module, hom_basis,
                                      nary_biproduct, zero_module)
from functor_homology.rings import (ZZ, augmentation_map, cyclic_group_table,
                                    group_algebra, product_group_table)
from functor_homology.verification import (_random_fp_module, random_diagram,
                                           random_diagram_ses, random_module_ses,
                                           random_morphism, random_z_module)
from oracle import (d_hom_matrices_all_basis, epi_by_cokernel, exact_by_homology,
                    hom_matrices_all_basis, mono_by_kernel, ses_by_construction)

RINGS = {
    "F2[C2]": group_algebra(2, cyclic_group_table(2)),
    "F3[C3]": group_algebra(3, cyclic_group_table(3)),
    "F2[C4]": group_algebra(2, cyclic_group_table(4)),
    "F2[C2xC2]": group_algebra(2, product_group_table(cyclic_group_table(2),
                                                       cyclic_group_table(2))),
}
ARROW = standard("arrow")


def _random_module(rng, ring):
    """A zero module, a random submodule or quotient (kernel, cokernel or
    image of a map of free modules), or a biproduct of two of those."""
    kind = rng.randint(0, 5)
    if kind == 0:
        return zero_module(ring)
    if kind == 1:
        return biproduct(_random_fp_module(rng, ring, 1),
                         _random_fp_module(rng, ring, 1)).obj
    return _random_fp_module(rng, ring)


def _random_pair(rng, ring):
    """f: A -> M, g: M -> B: a complex (g after coker f, or f into ker g),
    the injection and projection of a biproduct followed or preceded by
    random maps, or an injection or random map into a biproduct followed by
    its identity or a random map, whose composite may be nonzero."""
    A, M, B = (_random_module(rng, ring) for _ in range(3))
    kind = rng.randint(0, 3)
    if kind == 0:
        f = random_morphism(rng, A, M)
        Q, q = f.cokernel()
        return f, q.then(random_morphism(rng, Q, B if rng.random() < 0.5 else Q))
    if kind == 1:
        g = random_morphism(rng, M, B)
        K, k = g.kernel()
        return random_morphism(rng, A, K).then(k), g
    if kind == 2:
        bp = biproduct(A, B)
        f = random_morphism(rng, A, A).then(bp.inj1) if rng.random() < 0.5 else bp.inj1
        g = bp.proj2.then(random_morphism(rng, B, B)) if rng.random() < 0.5 else bp.proj2
        return f, g
    bp = biproduct(A, M)
    f = bp.inj2 if rng.random() < 0.5 else random_morphism(rng, A, bp.obj)
    return f, bp.obj.identity() if rng.random() < 0.5 else random_morphism(rng, bp.obj, B)


def _ses_verdict(f, g) -> bool:
    try:
        SES(f, g)
    except ExactnessError:
        return False
    return True


@pytest.mark.parametrize("name", list(RINGS))
def test_rank_verdicts_match_the_constructions(name):
    ring = RINGS[name]
    rng = random.Random(20261019)
    seen = {"mono": set(), "epi": set(), "exact": set(), "ses": set()}
    for case in range(60):
        f, g = _random_pair(rng, ring)
        assert modules.is_mono(f) == f.is_mono() == mono_by_kernel(f), case
        assert modules.is_epi(g) == g.is_epi() == epi_by_cokernel(g), case
        seen["mono"].add(mono_by_kernel(f))
        seen["epi"].add(epi_by_cokernel(g))
        try:
            want = exact_by_homology(f, g)
        except NonzeroCompositeError:
            want = None
            with pytest.raises(NonzeroCompositeError):
                f.is_exact_at(g)
        else:
            assert f.is_exact_at(g) == want, case
        seen["exact"].add(want)
        assert _ses_verdict(f, g) == ses_by_construction(f, g), case
        seen["ses"].add(ses_by_construction(f, g))
    assert seen == {"mono": {True, False}, "epi": {True, False},
                    "exact": {True, False, None}, "ses": {True, False}}


def _one_way_failures(rng, ring):
    """(label, f, g, message) for sequences that fail in exactly one way,
    built around a random short exact sequence 0 -> L -> M -> N -> 0."""
    ses = random_module_ses(rng, ring, lambda r: _random_fp_module(r, ring))
    i, p = ses.f, ses.g
    X = _random_fp_module(rng, ring, 1)
    while X.is_zero():
        X = _random_fp_module(rng, ring, 1)
    LX, NX = biproduct(ses.L, X), biproduct(ses.N, X)
    LYN = nary_biproduct([ses.L, X, ses.N])
    M = ses.M if not ses.M.is_zero() else X
    return [("not mono", LX.proj1.then(i), p, "first map is not mono"),
            ("not epi", i, p.then(NX.inj1), "second map is not epi"),
            ("not exact", LYN.injs[0], LYN.projs[2],
             "sequence is not exact in the middle"),
            ("nonzero composite", M.identity(), M.identity(),
             "composite L -> N is nonzero")]


def _check_one_way_failures(seed=20261019):
    """Every one-way failure: the rank route and the constructions agree on
    which verdict fails, and `SES` raises `ExactnessError` naming it."""
    rng = random.Random(seed)
    for name, ring in RINGS.items():
        for label, f, g, message in _one_way_failures(rng, ring):
            mono, epi = mono_by_kernel(f), epi_by_cokernel(g)
            assert (modules.is_mono(f), modules.is_epi(g)) == (mono, epi), (name, label)
            assert mono == (label != "not mono"), (name, label)
            assert epi == (label != "not epi"), (name, label)
            if label == "nonzero composite":
                for exact_at in (f.is_exact_at, functools.partial(exact_by_homology, f)):
                    with pytest.raises(NonzeroCompositeError):
                        exact_at(g)
                assert _safe_exact(f, g) is False, (name, label)
            else:
                want = label != "not exact"
                assert f.is_exact_at(g) == exact_by_homology(f, g) == want, (name, label)
            with pytest.raises(ExactnessError, match=f"^{re.escape(message)}$"):
                SES(f, g)


def _nonzero_sub(draw):
    """draw, but a drawn SES with L = 0 (the image of a zero map, which
    random diagram maps often are) is replaced by the split SES of M and N."""
    def go(rng):
        ses = draw(rng)
        if not ses.L.is_zero():
            return ses
        bp = ses.M.biproduct(ses.N)
        return SES(bp.inj1, bp.proj2)
    return go


R2 = RINGS["F2[C2]"]
# (family, draw a SES, F) for Z, F_2[C2] and Z-diagrams over the arrow
HORSESHOE_CASES = [
    ("Z", lambda rng: random_module_ses(rng, ZZ, random_z_module),
     tensor_with(cyclic(2))),
    ("F2[C2]", lambda rng: random_module_ses(rng, R2, lambda r: _random_fp_module(r, R2)),
     base_change(augmentation_map(R2))),
    ("Z^arrow", _nonzero_sub(lambda rng: random_diagram_ses(rng, ARROW, ZZ)),
     exponent(tensor_with(cyclic(2)), ARROW)),
]


@pytest.mark.parametrize("family, draw, F", HORSESHOE_CASES,
                         ids=[c[0] for c in HORSESHOE_CASES])
def test_horseshoe_certificate_matches_the_ses_check(family, draw, F):
    rng = random.Random(20261019)
    planted = 0
    for case in range(6):
        ses = draw(rng)
        for functor in (None, F):
            sesc, hs = horseshoe_ses_of_complexes(ses, 2, functor)
            retr, sec = ({n: m if functor is None else apply(functor, m)
                          for n, m in maps.items()} for maps in (hs.retr, hs.sec))
            for n in sesc.degrees():
                i, p = sesc.incl.at(n), sesc.proj.at(n)
                assert i.is_split_exact(p, retr[n], sec[n]), (family, case, n)
                assert _ses_verdict(i, p), (family, case, n)
                if not p.target.is_zero():
                    # a sequence that is not exact fails both checks
                    zero = i.target.zero_to(p.target)
                    assert not i.is_split_exact(zero, retr[n], sec[n])
                    assert not _ses_verdict(i, zero)
                if not i.source.is_zero():
                    # a corrupted retraction: (r + r) . i = 2 != 1 on L
                    planted += 1
                    bad = retr[n] + retr[n]
                    assert not i.is_split_exact(p, bad, sec[n]), (family, case, n)
                    with pytest.raises(ExactnessError, match=f"degree {n}"):
                        SESOfComplexes(sesc.sub, sesc.mid, sesc.quo, sesc.incl,
                                       sesc.proj, splitting=({**retr, n: bad}, sec))
    assert planted >= 6


def test_non_split_exact_sequence_fails_every_certificate():
    # 0 -> Z -2-> Z -> Z/2 -> 0 is exact and not split: no map Z/2 -> Z is
    # nonzero, so no (r, s) passes, while the SES check accepts it
    Zm, Z2 = cyclic(0), cyclic(2)
    i, p = modules.ModMor(Zm, Zm, [[2]]), modules.ModMor(Zm, Z2, [[1]])
    SES(i, p)
    s = Z2.zero_to(Zm)
    for k in range(-3, 4):
        assert not i.is_split_exact(p, modules.ModMor(Zm, Zm, [[k]]), s)


@pytest.mark.parametrize("name", list(RINGS))
def test_certificate_needs_the_sum_identity(name):
    # L -> L + Y + N -> N with the biproduct's own r and s passes r.i = 1,
    # p.s = 1 and p.i = 0; only i.r + s.p = 1 sees that it is not exact
    ring = RINGS[name]
    rng = random.Random(7)
    parts = [_random_fp_module(rng, ring, 1) for _ in range(3)]
    while parts[1].is_zero():
        parts[1] = _random_fp_module(rng, ring, 1)
    bp = nary_biproduct(parts)
    i, p, r, s = bp.injs[0], bp.projs[2], bp.projs[0], bp.injs[2]
    assert not i.is_split_exact(p, r, s)
    assert not _ses_verdict(i, p)


def _check_planted_retraction():
    """A horseshoe whose retraction is corrupted in degree 0 raises."""
    rng = random.Random(3)
    ses = random_module_ses(rng, ZZ, random_z_module)
    while ses.L.is_zero():
        ses = random_module_ses(rng, ZZ, random_z_module)
    hs = horseshoe_data_for(ses, 2)
    true_retr = hs.retr[0]
    hs.retr[0] = true_retr + true_retr
    try:
        with pytest.raises(ExactnessError, match="degree 0"):
            horseshoe_ses_of_complexes(ses, 2)
    finally:
        hs.retr[0] = true_retr
    horseshoe_ses_of_complexes(ses, 2)


def test_one_way_failures_in_process():
    _check_one_way_failures()
    _check_planted_retraction()


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failures_raise_under_optimize(flags):
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, os.pardir, "src"), here]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import test_exactness_verdicts as t\n"
              "t._check_one_way_failures()\n"
              "t._check_planted_retraction()\n"
              "print('ok')\n")
    out = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stdout + out.stderr


# -- hom systems on the algebra generators --------------------------------------


@pytest.mark.parametrize("name", list(RINGS))
def test_hom_basis_matches_the_all_basis_system(name):
    ring = RINGS[name]
    rng = random.Random(5)
    pairs = [(free_module(ring, 2), free_module(ring, 2))]
    pairs += [(_random_fp_module(rng, ring), _random_fp_module(rng, ring))
              for _ in range(8)]
    for A, B in pairs:
        got = [f.matrix for f in hom_basis(A, B)]
        assert got == hom_matrices_all_basis(A, B), (name, A, B)


@pytest.mark.parametrize("name", ["F2[C2]", "F3[C3]"])
def test_d_hom_basis_matches_the_all_basis_system(name):
    ring = RINGS[name]
    rng = random.Random(6)
    for _ in range(4):
        A, B = random_diagram(rng, ARROW, ring), random_diagram(rng, ARROW, ring)
        got = [mor.matrices() for mor in hom_basis(A, B)]
        assert got == d_hom_matrices_all_basis(A, B), name
