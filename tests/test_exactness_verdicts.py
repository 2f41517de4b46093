"""Exactness verdicts decided cheaply, against the constructions they replace.

Over an F_p-algebra the mono, epi and exactness verdicts on module maps are
rank counts, and over Z they are lattice tests read off Smith normal
forms; the oracle builds the kernel, cokernel and homology module they
ask about (`oracle.mono_by_kernel`, `epi_by_cokernel`,
`exact_by_homology`).  Over Z the verdicts are also checked on hand cases
where torsion decides and, by a hypothesis property, on small random
presentations.  A horseshoe's short exact sequence of complexes is
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
from hypothesis import given, settings, strategies as st

from functor_homology import modules
from functor_homology.complexes import SES, SESOfComplexes
from functor_homology.derived import (_safe_exact, horseshoe_data_for,
                                      horseshoe_ses_of_complexes)
from functor_homology.errors import ExactnessError, NonzeroCompositeError
from functor_homology.fincat import standard
from functor_homology.functors import apply, base_change, exponent, tensor_with
from functor_homology.modules import (ModMor, ModuleObj, cyclic, free_module, hom_basis,
                                      nary_biproduct, zero_module)
from functor_homology.rings import (ZZ, augmentation_map, cyclic_group_table,
                                    group_algebra, product_group_table)
from functor_homology.verification import (_random_fp_module, random_diagram,
                                           random_diagram_ses, random_module_ses,
                                           random_morphism, random_z_module)
from oracle import (d_hom_matrices_all_basis, epi_by_cokernel, exact_by_homology,
                    hom_matrices_all_basis, mono_by_kernel, ses_by_construction)
from test_hom_spaces import must

RINGS = {
    "F2[C2]": group_algebra(2, cyclic_group_table(2)),
    "F3[C3]": group_algebra(3, cyclic_group_table(3)),
    "F2[C4]": group_algebra(2, cyclic_group_table(4)),
    "F2[C2xC2]": group_algebra(2, product_group_table(cyclic_group_table(2),
                                                       cyclic_group_table(2))),
}
ARROW = standard("arrow")
# the verdict oracle tests run over Z too, after the F_p-algebras
VERDICT_RINGS = {**RINGS, "Z": ZZ}


def _maker(ring):
    """make(rng, small=False): one random module over ring, by
    `random_z_module` over Z and `_random_fp_module` (rank at most 1 when
    small) over an F_p-algebra."""
    if ring == ZZ:
        return lambda rng, small=False: random_z_module(rng, max_gens=2 if small else 3)
    return lambda rng, small=False: _random_fp_module(rng, ring, 1 if small else 2)


def _random_z_verdict_module(rng):
    """Over Z: the zero module, Z/n, a free module, or a mixed one (Z or
    Z/n beside a random simplified presentation)."""
    kind = rng.randint(0, 3)
    if kind == 0:
        return zero_module(ZZ)
    if kind == 1:
        return cyclic(rng.randint(2, 6))
    if kind == 2:
        return free_module(ZZ, rng.randint(1, 2))
    A = cyclic(rng.choice([0, 2, 3, 4]))
    return A.biproduct(random_z_module(rng, max_gens=2)).obj


def _random_module(rng, ring):
    """A zero module, a random submodule or quotient (kernel, cokernel or
    image of a map of free modules), or a biproduct of two of those; over
    Z, `_random_z_verdict_module`."""
    if ring == ZZ:
        return _random_z_verdict_module(rng)
    kind = rng.randint(0, 5)
    if kind == 0:
        return zero_module(ring)
    if kind == 1:
        A = _random_fp_module(rng, ring, 1)
        return A.biproduct(_random_fp_module(rng, ring, 1)).obj
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
        bp = A.biproduct(B)
        f = random_morphism(rng, A, A).then(bp.inj1) if rng.random() < 0.5 else bp.inj1
        g = bp.proj2.then(random_morphism(rng, B, B)) if rng.random() < 0.5 else bp.proj2
        return f, g
    bp = A.biproduct(M)
    f = bp.inj2 if rng.random() < 0.5 else random_morphism(rng, A, bp.obj)
    return f, bp.obj.identity() if rng.random() < 0.5 else random_morphism(rng, bp.obj, B)


def _ses_verdict(f, g) -> bool:
    try:
        SES(f, g)
    except ExactnessError:
        return False
    return True


@pytest.mark.parametrize("name", list(VERDICT_RINGS))
def test_rank_verdicts_match_the_constructions(name):
    ring = VERDICT_RINGS[name]
    rng = random.Random(20261019)
    seen = {"mono": set(), "epi": set(), "exact": set(), "ses": set()}
    for case in range(60):
        f, g = _random_pair(rng, ring)
        assert f.is_mono() == mono_by_kernel(f), case
        assert g.is_epi() == epi_by_cokernel(g), case
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


def _check_z_verdicts(f, g):
    """The lattice verdicts on f and g, and exactness at the middle of
    f, g, equal the constructions; a nonzero g . f raises both ways."""
    for h in (f, g):
        assert h.is_mono() == mono_by_kernel(h)
        assert h.is_epi() == epi_by_cokernel(h)
    try:
        want = exact_by_homology(f, g)
    except NonzeroCompositeError:
        with pytest.raises(NonzeroCompositeError):
            f.is_exact_at(g)
        return None
    assert f.is_exact_at(g) == want
    return want


Z, Z2, Z4 = cyclic(0), cyclic(2), cyclic(4)
# (label, f, mono, epi): torsion decides, so no count of generators can
Z_TORSION_MAPS = [
    ("Z -2-> Z", ModMor(Z, Z, [[2]]), True, False),
    ("Z/4 -2-> Z/4", ModMor(Z4, Z4, [[2]]), False, False),
    ("Z/2 -2-> Z/4", ModMor(Z2, Z4, [[2]]), True, False),
    ("Z -> Z/2", ModMor(Z, Z2, [[1]]), False, True),
]
# (label, f, g, exact at the middle)
Z_TORSION_COMPLEXES = [
    ("Z -4-> Z -> Z/2", ModMor(Z, Z, [[4]]), ModMor(Z, Z2, [[1]]), False),
    ("Z -2-> Z -> Z/2", ModMor(Z, Z, [[2]]), ModMor(Z, Z2, [[1]]), True),
    ("Z/4 -2-> Z/4 -2-> Z/4", ModMor(Z4, Z4, [[2]]), ModMor(Z4, Z4, [[2]]), True),
    ("Z/2 -2-> Z/4 -2-> Z/4", ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z4, [[2]]), True),
    ("Z/2 -0-> Z/4 -2-> Z/4", ModMor(Z2, Z4, [[0]]), ModMor(Z4, Z4, [[2]]), False),
]


@pytest.mark.parametrize("label, f, mono, epi", Z_TORSION_MAPS,
                         ids=[c[0] for c in Z_TORSION_MAPS])
def test_z_mono_and_epi_where_torsion_decides(label, f, mono, epi):
    assert (f.is_mono(), f.is_epi()) == (mono_by_kernel(f), epi_by_cokernel(f))
    assert (f.is_mono(), f.is_epi()) == (mono, epi)


@pytest.mark.parametrize("label, f, g, exact", Z_TORSION_COMPLEXES,
                         ids=[c[0] for c in Z_TORSION_COMPLEXES])
def test_z_exactness_where_torsion_decides(label, f, g, exact):
    assert _check_z_verdicts(f, g) is exact


def _presentation(gens):
    return st.lists(st.lists(st.integers(-6, 6), min_size=gens, max_size=gens),
                    max_size=3).map(lambda rels: ModuleObj(ZZ, gens, rels))


PRESENTATIONS = st.integers(0, 3).flatmap(_presentation)


@given(A=PRESENTATIONS, M=PRESENTATIONS, B=PRESENTATIONS,
       seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 2))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_z_verdicts_match_the_constructions_on_presentations(A, M, B, seed, kind):
    # well-defined maps f: A -> M, g: M -> B: g after coker f, f into
    # ker g (both complexes), or both at random
    rng = random.Random(seed)
    if kind == 0:
        f = random_morphism(rng, A, M)
        Q, q = f.cokernel()
        g = q.then(random_morphism(rng, Q, B))
    elif kind == 1:
        g = random_morphism(rng, M, B)
        K, k = g.kernel()
        f = random_morphism(rng, A, K).then(k)
    else:
        f, g = random_morphism(rng, A, M), random_morphism(rng, M, B)
    _check_z_verdicts(f, g)


def _one_way_failures(rng, ring):
    """(label, f, g, message) for sequences that fail in exactly one way,
    built around a random short exact sequence 0 -> L -> M -> N -> 0."""
    make = _maker(ring)
    ses = random_module_ses(rng, ring, make)
    i, p = ses.f, ses.g
    X = make(rng, True)
    while X.is_zero():
        X = make(rng, True)
    LX, NX = ses.L.biproduct(X), ses.N.biproduct(X)
    LYN = nary_biproduct([ses.L, X, ses.N])
    M = ses.M if not ses.M.is_zero() else X
    return [("not mono", LX.proj1.then(i), p, "first map is not mono"),
            ("not epi", i, p.then(NX.inj1), "second map is not epi"),
            ("not exact", LYN.injs[0], LYN.projs[2],
             "sequence is not exact in the middle"),
            ("nonzero composite", M.identity(), M.identity(),
             "composite L -> N is nonzero")]


def _check_one_way_failures(seed=20261019):
    """Every one-way failure: the verdicts (ranks over F_p, lattice tests
    over Z) and the constructions agree on which verdict fails, and `SES`
    raises `ExactnessError` naming it."""
    rng = random.Random(seed)
    for name, ring in VERDICT_RINGS.items():
        for label, f, g, message in _one_way_failures(rng, ring):
            mono, epi = mono_by_kernel(f), epi_by_cokernel(g)
            must((f.is_mono(), g.is_epi()) == (mono, epi), (name, label))
            must(mono == (label != "not mono"), (name, label))
            must(epi == (label != "not epi"), (name, label))
            if label == "nonzero composite":
                for exact_at in (f.is_exact_at, functools.partial(exact_by_homology, f)):
                    with pytest.raises(NonzeroCompositeError):
                        exact_at(g)
                must(_safe_exact(f, g) is False, (name, label))
            else:
                want = label != "not exact"
                must(f.is_exact_at(g) == exact_by_homology(f, g) == want, (name, label))
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
