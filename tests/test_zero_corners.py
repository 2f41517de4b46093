"""Checks and constructions decided by shape at ends with no generators.

`check_diagram` skips the identity test at an object with no generators
and the composite test whose source or target has none; `DiagMor` skips
the naturality square whose source or target corner has none.  Each such
comparison is between two matrices with a zero dimension, so the verdict
cannot change: a seeded draw over Z and F_2[C2xC2], on arrow,
parallel_pair and square, compares every verdict and message with the
bodies in `tests/oracle.py` that compare everything, and planted faults
at corners with generators still raise, also under `python -O`.

`derived.horseshoe` stops at the first degree past the end of both outer
resolutions.  The middle resolution is then exhausted at the larger of
the two ends, and every long exact sequence built on it equals the one
built by the horseshoe that runs every degree (`tests/oracle.py`).
"""

import random

import pytest

import oracle
from functor_homology import bifunctor, derived, functors, spectral
from functor_homology.complexes import SES
from functor_homology.derived import horseshoe, les_of_ses, resolve
from functor_homology.diagrams import DiagMor, Diagram, check_diagram
from functor_homology.errors import MorphismError
from functor_homology.fincat import standard
from functor_homology.modules import ModMor, ModuleObj, cyclic, trivial_module, zero_module
from functor_homology.rings import (ZZ, augmentation_map, cyclic_group_table,
                                    group_algebra, group_ring_map, product_group_table)
from functor_homology.verification import (random_diagram, random_diagram_ses,
                                           random_module_ses, random_morphism,
                                           random_z_module)
from test_diagrams import _passes_under_optimize

SEED = 20261020
RINGS = {
    "Z": ZZ,
    "F2[C2xC2]": group_algebra(2, product_group_table(cyclic_group_table(2),
                                                      cyclic_group_table(2))),
}
INDICES = ("arrow", "parallel_pair", "square")


def _other_zero(ring):
    """A module with no generators; over Z with two empty relation rows,
    a presentation that `zero_module` does not equal."""
    if ring is ZZ:
        return ModuleObj(ZZ, 0, rels=[[], []])
    return zero_module(ring)


def _mutated_maps(rng, d):
    """d's structure maps with one of them changed: plus a random map
    between the same ends, or replaced by a zero map out of a module with
    no generators."""
    maps = dict(d.maps)
    m = rng.choice(d.index.mor_names)
    f = maps[m]
    if rng.random() < 0.8:
        maps[m] = f + random_morphism(rng, f.source, f.target)
    else:
        maps[m] = _other_zero(d.ring).zero_to(f.target)
    return maps


def _mutated_comps(rng, f):
    comps = dict(f.comps)
    o = rng.choice(f.index.objects)
    c = comps[o]
    if rng.random() < 0.8:
        comps[o] = c + random_morphism(rng, c.source, c.target)
    else:
        comps[o] = _other_zero(f.source.ring).zero_to(c.target)
    return comps


def _verdict(build):
    try:
        build()
    except MorphismError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("index_name", INDICES)
@pytest.mark.parametrize("name", RINGS)
def test_shape_decided_checks_keep_every_verdict(name, index_name):
    ring, index = RINGS[name], standard(index_name)
    rng = random.Random(f"{SEED}-{name}-{index_name}")
    seen = {"zero components": 0, "components": 0, "faults": 0, "passes": 0}
    for _ in range(4):
        A, B = random_diagram(rng, index, ring), random_diagram(rng, index, ring)
        for D in (A, B):
            for c in D.components.values():
                seen["zero components" if not c.gens else "components"] += 1
        for D in (A, B):
            for _ in range(3):
                maps = _mutated_maps(rng, D)
                loose = Diagram(index, D.components, maps, check=False)
                want = oracle.check_diagram_every_square(loose)
                assert check_diagram(loose) == want
                got = _verdict(lambda: Diagram(index, D.components, maps))
                assert got == (None if want is None else f"invalid diagram: {want}")
                seen["faults" if want else "passes"] += 1
        f = random_morphism(rng, A, B)
        assert oracle.diag_mor_every_square(f) is None and f._check() is None
        for _ in range(4):
            comps = _mutated_comps(rng, f)
            want = oracle.diag_mor_every_square(DiagMor(A, B, comps, check=False))
            got = _verdict(lambda: DiagMor(A, B, comps))
            assert got == (None if want is None else f"invalid diagram morphism: {want}")
            seen["faults" if want else "passes"] += 1
    assert all(seen.values()), seen


# a square whose corner 10 has no generators, so the squares and
# composites through it are decided by shape, with faults planted where
# both ends have generators; every one must raise
PLANTED_FAULTS = """
from functor_homology.diagrams import DiagMor, Diagram, check_diagram
from functor_homology.errors import MorphismError
from functor_homology.fincat import standard
from functor_homology.modules import ModMor, cyclic, free_module, zero_module
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra, product_group_table

SQUARE = standard("square")
KLEIN = group_algebra(2, product_group_table(cyclic_group_table(2), cyclic_group_table(2)))


def expect_raise(build, message):
    try:
        build()
    except MorphismError as exc:
        if str(exc) != message:
            raise SystemExit(f"wrong message: {exc}")
    else:
        raise SystemExit(f"accepted a planted fault: {message}")


for M, ring in ((cyclic(4), ZZ), (free_module(KLEIN, 1), KLEIN)):
    O = zero_module(ring)
    ident = ModMor(M, M, M.ops.identity(M.gens))
    zero = ModMor(M, M, M.ops.zeros(M.gens, M.gens))
    comps = {"00": M, "01": M, "10": O, "11": M}

    def at(m):
        s, t = SQUARE.src(m), SQUARE.tgt(m)
        return ModMor(comps[s], comps[t], M.ops.zeros(comps[t].gens, comps[s].gens))

    maps = {m: at(m) for m in SQUARE.mor_names}
    maps.update({"id_00": ident, "id_01": ident, "id_11": ident, "a": ident})
    D = Diagram(SQUARE, comps, maps)
    if check_diagram(D) is not None:
        raise SystemExit("the unplanted square was rejected")
    doubled = ident + ident if ring is ZZ else zero  # not the identity on M
    expect_raise(lambda: Diagram(SQUARE, comps, {**maps, "id_01": doubled}),
                 "invalid diagram: identity of 01 does not act as the identity")
    expect_raise(lambda: Diagram(SQUARE, comps, {**maps, "e": ident}),
                 "invalid diagram: functoriality fails on composite c after a")
    one = {o: ModMor(comps[o], comps[o], M.ops.identity(comps[o].gens)) for o in comps}
    DiagMor(D, D, one)
    expect_raise(lambda: DiagMor(D, D, {**one, "01": doubled}),
                 "invalid diagram morphism: naturality square fails at index morphism a")
"""


# the kernel-sequence check is taken out, and the outer resolution of
# Z/2 claims to end in degree 0: the middle kernel past both ends is 2Z
NONZERO_KERNEL_AT_THE_STOP = """
from functor_homology import derived
from functor_homology.complexes import SES
from functor_homology.derived import Resolution, horseshoe, resolve
from functor_homology.errors import ExactnessError
from functor_homology.modules import cyclic, zero_module

Z2 = cyclic(2)
P, cover = Z2.free_cover()
O = zero_module(Z2.ring)
short = Resolution(Z2, [P], cover, {}, True)
ses = SES(Z2.identity(), Z2.zero_to(O))
derived.SES = lambda f, g: None
try:
    horseshoe(ses, short, resolve(O, 2), 2)
except ExactnessError as exc:
    if str(exc) != "horseshoe: nonzero middle kernel past both outer ends":
        raise SystemExit(f"wrong message: {exc}")
else:
    raise SystemExit("a nonzero middle kernel past both ends was accepted")
"""


def test_planted_faults_at_corners_with_generators_raise_under_optimize():
    _passes_under_optimize(PLANTED_FAULTS)


def test_nonzero_middle_kernel_at_the_stop_raises_under_optimize():
    _passes_under_optimize(NONZERO_KERNEL_AT_THE_STOP)


# -- the horseshoe stop ------------------------------------------------------

F2C2 = group_algebra(2, cyclic_group_table(2))
TENSOR_Z2 = bifunctor.tensor_by(cyclic(2), "right")


def _z_by_two():
    """0 -> Z -2-> Z -> Z/2 -> 0: the outer resolutions end in degrees 0
    and 1."""
    Z = cyclic(0)
    return SES(ModMor(Z, Z, [[2]]), ModMor(Z, cyclic(2), [[1]]))


def _trivial_by_its_cover():
    """0 -> K -> F_2[C2] -> F_2 -> 0: neither outer resolution ends."""
    _, epi = trivial_module(F2C2).free_cover()
    _, mono = epi.kernel()
    return SES(mono, epi)


def _cases():
    """(id, draw, functor): draw() builds the same sequence afresh."""
    out = [("Z-2>Z", _z_by_two, TENSOR_Z2),
           ("F2[C2]", _trivial_by_its_cover, functors.base_change(augmentation_map(F2C2)))]
    for k in range(3):
        out.append((f"module-{k}", lambda k=k: random_module_ses(
            random.Random(f"{SEED}-m{k}"), ZZ, random_z_module), TENSOR_Z2))
    for name in INDICES:
        index = standard(name)
        for k in range(6):
            out.append((f"{name}-{k}", lambda index=index, name=name, k=k: random_diagram_ses(
                random.Random(f"{SEED}-{name}{k}"), index, ZZ),
                functors.exponent(TENSOR_Z2, index)))
    return out


CASES = _cases()


@pytest.mark.parametrize("n_max", [1, 3])
@pytest.mark.parametrize("draw", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_horseshoe_stops_where_both_outer_resolutions_stop(draw, n_max):
    ses = draw()
    res_l, res_n = resolve(ses.L, n_max), resolve(ses.N, n_max)
    hs = horseshoe(ses, res_l, res_n, n_max)
    mid = hs.res_mid
    ended = res_l.built < n_max and res_n.built < n_max
    assert mid.exhausted == ended
    assert mid.built == (max(res_l.built, res_n.built) if ended else n_max)
    for k in range(mid.built + 1, n_max + 3):
        assert mid.term(k) is mid.zero()
    ref_ses = draw()
    ref = oracle.horseshoe_every_degree(ref_ses, resolve(ref_ses.L, n_max),
                                        resolve(ref_ses.N, n_max), n_max)
    for k in range(0, n_max + 1):
        assert mid.term(k) == ref.res_mid.term(k)
        for part in ("incl", "proj", "retr", "sec"):
            assert getattr(hs, part)[k] == getattr(ref, part)[k], (part, k)
    for k in range(1, n_max + 1):
        assert mid.diff(k) == ref.res_mid.diff(k)


@pytest.mark.parametrize("draw, F", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_les_equals_the_every_degree_horseshoe(monkeypatch, draw, F):
    n_max = 2
    les = les_of_ses(F, draw(), n_max)
    monkeypatch.setattr(derived, "horseshoe", oracle.horseshoe_every_degree)
    ref = les_of_ses(F, draw(), n_max)
    assert les.objs == ref.objs
    assert les.lm == ref.lm and les.mn == ref.mn and les.delta == ref.delta
    assert les.exact == ref.exact


@pytest.mark.parametrize("big", ["C4", "C2xC2"])
def test_spectral_sequence_equals_the_every_degree_horseshoe(monkeypatch, big):
    # ce_grid resolves its columns by iterated horseshoes
    def fixture():
        table = (cyclic_group_table(4) if big == "C4" else
                 product_group_table(cyclic_group_table(2), cyclic_group_table(2)))
        ring = group_algebra(2, table)
        F = functors.base_change(group_ring_map(ring, F2C2, [0, 1, 0, 1]))
        return F, functors.base_change(augmentation_map(F2C2)), trivial_module(ring)

    for n_max in (3, 5):
        ss = spectral.grothendieck_ss(*fixture(), n_max)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "horseshoe", oracle.horseshoe_every_degree)
            ref = spectral.grothendieck_ss(*fixture(), n_max)
        assert ss.pages == ref.pages and ss.einf == ref.einf
        assert ss.abutment == ref.abutment and ss.filtration == ref.filtration
        assert ss.degenerates_at_2 == ref.degenerates_at_2
        assert {r: {k: m.data for k, m in d.items()} for r, d in ss.diffs.items()} == \
            {r: {k: m.data for k, m in d.items()} for r, d in ref.diffs.items()}
