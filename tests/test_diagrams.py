import os
import random
import subprocess
import sys

from functor_homology.diagrams import (DiagMor, Diagram, check_diagram,
                                       constant_diagram, d_cokernel, d_exactness_report,
                                       d_kernel, free_diagram, projection, zero_diagram)
from functor_homology.fincat import monoid_category, standard
from functor_homology.modules import (ModMor, cokernel, cyclic, free_cover,
                                      free_generator_columns, free_module, kernel)
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra
from functor_homology.verification import (random_diagram, random_free_diagram,
                                           random_free_diagram_mor,
                                           random_morphism)

ARROW = standard("arrow")
SQUARE = standard("square")


def arrow_diagram(A, B, f):
    return Diagram(ARROW, {"0": A, "1": B},
                   {"id_0": A.identity(), "id_1": B.identity(), "a": f})


def test_check_diagram():
    Z4, Z2 = cyclic(4), cyclic(2)
    d = arrow_diagram(Z4, Z2, ModMor(Z4, Z2, [[1]]))
    assert check_diagram(d) is None
    c = constant_diagram(SQUARE, Z4)
    assert check_diagram(c) is None
    # planted non-composing square
    bad_maps = {m: Z2.identity() for m in SQUARE.mor_names}
    bad_maps["e"] = Z2.zero_to(Z2)
    bad = Diagram(SQUARE, {o: Z2 for o in SQUARE.objects}, bad_maps, check=False)
    msg = check_diagram(bad)
    assert msg is not None and "composite" in msg


def test_projection_and_gamma():
    Z4, Z2 = cyclic(4), cyclic(2)
    f = ModMor(Z4, Z2, [[1]])
    d = arrow_diagram(Z4, Z2, f)
    assert projection(d, "0") == Z4
    assert d.map("a") == f
    assert d.map("id_0") == Z4.identity()
    c = constant_diagram(SQUARE, Z4)
    for o in SQUARE.objects:
        assert projection(c, o) == Z4
    # composite morphism -> composite of structure maps
    sq = constant_diagram(SQUARE, Z4)
    assert sq.map("e") == sq.map("a").then(sq.map("c"))


def test_additive_structure():
    rng = random.Random(5)
    D = random_diagram(rng, ARROW, ZZ)
    E = random_diagram(rng, ARROW, ZZ)
    f = random_morphism(rng, D, E)
    g = random_morphism(rng, D, E)
    s = f + g
    for o in ARROW.objects:
        assert s.comps[o] == f.comps[o] + g.comps[o]
        assert projection(s, o) == projection(f, o) + projection(g, o)
    assert (f + (-f)).is_zero()


def test_d_kernel_arrow_example():
    Z4, Z2 = cyclic(4), cyclic(2)
    D = arrow_diagram(Z4, Z2, ModMor(Z4, Z2, [[1]]))
    E = arrow_diagram(Z2, Z2, Z2.identity())
    t = DiagMor(D, E, {"0": ModMor(Z4, Z2, [[1]]), "1": Z2.identity()})
    K, mono = d_kernel(t)
    assert K.components["0"].invariant_factors() == ([2], 0)
    assert K.components["1"].is_zero()
    assert mono.then(t).is_zero()
    # componentwise enumeration oracle + induced-map uniqueness
    km, m0 = kernel(t.comps["0"])
    assert km == K.components["0"]
    for m in ARROW.nonidentity_morphisms():
        i, j = ARROW.src(m), ARROW.tgt(m)
        assert K.maps[m].then(mono.comps[j]) == mono.comps[i].then(D.maps[m])


def test_d_kernel_identity_and_scaling():
    Zm = cyclic(0)
    D = arrow_diagram(Zm, Zm, Zm.identity())
    ident = DiagMor(D, D, {"0": Zm.identity(), "1": Zm.identity()})
    K, _ = d_kernel(ident)
    assert K.is_zero()
    x2 = DiagMor(D, D, {"0": ModMor(Zm, Zm, [[2]]), "1": ModMor(Zm, Zm, [[2]])})
    K, _ = d_kernel(x2)
    assert K.is_zero()
    Q, _ = d_cokernel(ident)
    assert Q.is_zero()


def test_d_cokernel_componentwise_random():
    rng = random.Random(9)
    for _ in range(10):
        D = random_diagram(rng, ARROW, ZZ)
        E = random_diagram(rng, ARROW, ZZ)
        t = random_morphism(rng, D, E)
        Q, epi = d_cokernel(t)
        for o in ARROW.objects:
            qo, eo = cokernel(t.comps[o])
            assert qo == Q.components[o]
            assert eo == epi.comps[o]


def test_exactness_report_names_component():
    Zm, Z2 = cyclic(0), cyclic(2)
    # component 0 exact, component 1 not
    L = Diagram(ARROW, {"0": Zm, "1": Zm},
                {"id_0": Zm.identity(), "id_1": Zm.identity(),
                 "a": Zm.zero_to(Zm)})
    f = DiagMor(L, L, {"0": ModMor(Zm, Zm, [[2]]), "1": ModMor(Zm, Zm, [[4]])})
    N = Diagram(ARROW, {"0": Z2, "1": Z2},
                {"id_0": Z2.identity(), "id_1": Z2.identity(),
                 "a": Z2.zero_to(Z2)})
    g = DiagMor(L, N, {"0": ModMor(Zm, Z2, [[1]]), "1": ModMor(Zm, Z2, [[1]])})
    verdict, failing = d_exactness_report(f, g)
    assert not verdict and failing == "1"


def test_split_ses_exact():
    rng = random.Random(13)
    D = random_diagram(rng, ARROW, ZZ)
    E = random_diagram(rng, ARROW, ZZ)
    bp = D.biproduct(E)
    assert bp.inj1.is_exact_at(bp.proj2)
    assert bp.inj1.is_mono() and bp.proj2.is_epi()


def test_free_diagram_hom_count_oracle():
    Zf = free_module(ZZ, 1)
    F0 = free_diagram(ARROW, "0", Zf)
    # |Hom(0, j)| copies directly from the category table
    for j in ARROW.objects:
        assert F0.components[j].gens == len(ARROW.hom("0", j)) * Zf.gens
    F1 = free_diagram(ARROW, "1", Zf)
    assert F1.components["0"].gens == 0
    assert F1.components["1"].gens == 1
    Fp = free_diagram(standard("point"), "0", Zf)
    assert Fp.components["0"].gens == 1
    Fsq = free_diagram(SQUARE, "00", Zf)
    for j in SQUARE.objects:
        assert Fsq.components[j].gens == len(SQUARE.hom("00", j))


def test_free_diagram_projectivity_lifting():
    rng = random.Random(21)
    for _ in range(8):
        index = ARROW if rng.random() < 0.7 else SQUARE
        M = random_diagram(rng, index, ZZ)
        N, epi = d_cokernel(random_morphism(
            rng, random_diagram(rng, index, ZZ), M))
        # epi: M -> N; map a free diagram into N and lift through epi
        F = random_free_diagram(rng, index, ZZ)
        g = random_free_diagram_mor(rng, F, N)
        h = g.lift(epi)
        assert h.then(epi) == g


COVER_INDICES = {name: standard(name) for name in ("point", "arrow", "parallel_pair",
                                                   "square")}
# {1, e} with e idempotent: one object and a nonidentity endomorphism
COVER_INDICES["monoid"] = monoid_category([[0, 1], [1, 1]], ["1", "e"])
ACYCLIC = ("point", "arrow", "parallel_pair", "square")
COVER_RINGS = {"Z": ZZ, "F2[C2]": group_algebra(2, cyclic_group_table(2))}


def _identity_slot(F, s_idx):
    """The injection of summand s_idx's copy along the identity."""
    at = F.free_data.summands[s_idx].at
    return next(inj for t, f, inj, _ in F.free_data.layout[at]
                if t == s_idx and f == F.index.identity[at])


def _others_reach(F, eps, s_idx):
    """eps at summand s_idx's object, with s_idx's own slots zeroed: what
    every other summand reaches there."""
    at = F.free_data.summands[s_idx].at
    comp = F.components[at]
    keep = comp.zero_to(comp)
    for t, _, inj, proj in F.free_data.layout[at]:
        if t != s_idx:
            keep = keep + proj.then(inj)
    return keep.then(eps.comps[at])


def test_d_free_cover_is_epi_and_resolves():
    for index in COVER_INDICES:
        for ring in COVER_RINGS:
            _check_free_cover(index, ring)


def _check_free_cover(index, ring):
    idx, R = COVER_INDICES[index], COVER_RINGS[ring]
    rng = random.Random(f"{index}:{ring}")
    summands = 0
    # identity structure maps reach everything past the first objects
    draws = [random_diagram(rng, idx, R) for _ in range(3)]
    for D in draws + [constant_diagram(idx, free_module(R, 1))]:
        F, eps = D.free_cover()
        case = (index, ring, D)
        assert eps.is_epi(), case
        for o in idx.objects:
            assert F.components[o].free_rank is not None
        # projectivity through the cover
        for _ in range(2):
            G = random_free_diagram(rng, idx, R)
            g = random_free_diagram_mor(rng, G, D)
            assert g.lift(eps).then(eps) == g, case
        if len(idx.objects) == 1:
            P, c = free_cover(D.components[idx.objects[0]])
            if D.is_zero():
                assert F.free_data.summands == [], case
            else:
                [s] = F.free_data.summands
                assert s.module == P, case
                assert _identity_slot(F, 0).then(eps.comps[s.at]) == c, case
        if index in ACYCLIC:
            # no generator of a summand is reached by the other summands
            for s_idx, s in enumerate(F.free_data.summands):
                Q, q = cokernel(_others_reach(F, eps, s_idx))
                gens = _identity_slot(F, s_idx).then(eps.comps[s.at]).then(q)
                for col in free_generator_columns(s.module):
                    assert not Q.in_relations(gens.matrix.mul_vec(col)), (case, s_idx)
        summands += len(F.free_data.summands)
    assert summands > 0, (index, ring)


def test_zero_diagram_is_free():
    z = zero_diagram(ARROW, ZZ)
    assert z.is_zero() and z.free_data is not None


CHECKS_UNDER_OPTIMIZE = """
from functor_homology import modules
from functor_homology.diagrams import (DiagMor, Diagram, d_exactness_report,
                                       free_diagram, free_diagram_map)
from functor_homology.errors import ExactnessError, ShapeError
from functor_homology.fincat import standard
from functor_homology.modules import (ModMor, ModuleObj, cyclic, free_module,
                                      simplify, trivial_module)
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra

ARROW = standard("arrow")
R2 = group_algebra(2, cyclic_group_table(2))


def expect(error, call, text=""):
    try:
        call()
    except error as e:
        if text not in str(e):
            raise SystemExit(f"wrong message: {e}")
        return
    raise SystemExit(f"{error.__name__} not raised ({text})")


def planted(owner, name, fake, error, call, text):
    true = getattr(owner, name)
    setattr(owner, name, fake)
    try:
        expect(error, call, text)
    finally:
        setattr(owner, name, true)


def arrow(A, B, f):
    return Diagram(ARROW, {"0": A, "1": B},
                   {"id_0": A.identity(), "id_1": B.identity(), "a": f})


Zf, Zm, Z2, Z4 = free_module(ZZ, 1), cyclic(0), cyclic(2), cyclic(4)
T = trivial_module(R2)

# preconditions: first the ring-kind guards of the seam, with their messages
expect(ShapeError, T.invariant_factors, "invariant factors need an integer module")
expect(ShapeError, lambda: simplify(T), "simplify needs an integer module")
expect(ShapeError, Z2.fp_dimension, "an F_p dimension needs a module over an F_p-algebra")
expect(ShapeError, lambda: Z2.ops.minimal_generators(Z2),
       "minimal generators need a module over an F_p-algebra")
expect(ShapeError, lambda: free_diagram(ARROW, "0", Z2),
       "free diagrams need a free module")
D = arrow(Z4, Z2, ModMor(Z4, Z2, [[1]]))
expect(ShapeError, lambda: D.identity().lift(D.identity()),
       "lifting needs a free diagram source")
expect(ShapeError, lambda: free_diagram_map(D, D, []))

# postconditions, each with a planted fault
planted(modules, "_preimages",
        lambda f, vectors, error: [[0] * f.source.gens for _ in vectors],
        ExactnessError, lambda: Z4.identity().factor(Z4.identity()),
        "factorisation through the mono")
planted(modules, "_preimages",
        lambda f, vectors, error: [[0] * f.source.gens for _ in vectors],
        ExactnessError, lambda: ModMor(Zf, Z2, [[1]]).lift(Z2.identity()),
        "lift through the epi")
planted(ModMor, "factor", lambda mono, h: h.source.zero_to(mono.source),
        ExactnessError, lambda: D.identity().factor(D.identity()),
        "factorisation through the mono")
planted(ModMor, "cofactor", lambda epi, w: epi.target.zero_to(w.target),
        ExactnessError, lambda: D.identity().cofactor(D.identity()),
        "cofactorisation through the epi")
F = free_diagram(ARROW, "0", Zf)
g = free_diagram_map(F, D, [ModMor(Zf, Z4, [[1]])])
planted(ModMor, "lift", lambda g, e: g.source.zero_to(e.source),
        ExactnessError, lambda: g.lift(D.identity()),
        "lift through the epi")

# an exact pair: Z -2-> Z -> Z/2 at both objects; the inverted
# componentwise verdict contradicts the intrinsic one
L = arrow(Zm, Zm, Zm.zero_to(Zm))
N = arrow(Z2, Z2, Z2.zero_to(Z2))
f = DiagMor(L, L, {"0": ModMor(Zm, Zm, [[2]]), "1": ModMor(Zm, Zm, [[2]])})
g = DiagMor(L, N, {"0": ModMor(Zm, Z2, [[1]]), "1": ModMor(Zm, Z2, [[1]])})
assert d_exactness_report(f, g) == (True, None)
true_exact = ModMor.is_exact_at
planted(ModMor, "is_exact_at", lambda f, g: not true_exact(f, g), ExactnessError,
        lambda: d_exactness_report(f, g),
        "intrinsic and componentwise exactness verdicts disagree")

# shape preconditions and invariants of the lower layers
from functor_homology import abelian, bifunctor, fincat
from functor_homology.complexes import ChainMap, Complex, SESOfComplexes
from functor_homology.derived import (Resolution, connecting,
                                      lift_resolution_map, resolve)
from functor_homology.fplinalg import fp_from_columns
from functor_homology.intlinalg import IntMatrix, from_columns, hstack
from functor_homology.rings import FP_ALGEBRA, Ring

M22 = IntMatrix(2, 2, [[1, 2], [3, 4]])
expect(ShapeError, lambda: M22.mul(IntMatrix(3, 1, [[1], [1], [1]])))
expect(ShapeError, lambda: M22.mul_vec([1, 1, 1]))
expect(ShapeError, lambda: hstack([M22, IntMatrix(1, 1, [[1]])]))
# a column longer or shorter than the stated row count
expect(ShapeError, lambda: fp_from_columns(2, [[1, 0, 1], [1, 1]], 2), "column 0")
expect(ShapeError, lambda: fp_from_columns(2, [[1, 1], [1]], 2), "column 1")
expect(ShapeError, lambda: from_columns([[1, 0, 1], [1, 1]], 2), "column 0")
expect(ShapeError, lambda: from_columns([[1, 1], [1]], 2), "column 1")
expect(ShapeError, lambda: Complex(2, 1, {}, {}))
expect(ShapeError, lambda: resolve(Z2, 1).diff(0))
BAD = fincat.FinCat(["0"], {"id_0": ("0", "0")}, {"0": "id_0"}, {})
expect(ShapeError, lambda: fincat.product(BAD, standard("point")), "invalid product")
expect(ShapeError, lambda: fincat.opposite(BAD), "invalid opposite")
expect(ShapeError, lambda: Ring("bogus"))
expect(ShapeError, lambda: Ring(FP_ALGEBRA, p=2, dim=2, basis=["e"],
                                mult=[[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                unit=[1, 0]))

# a resolution of Z/2 cut off at degree 0 cannot receive the lift of id
full = resolve(Z2, 1)
cut = Resolution(Z2, full.terms[:1], full.aug(), {}, True)
expect(ExactnessError, lambda: lift_resolution_map(Z2.identity(), full, cut, 1),
       "truncated exact resolution")

# a zero "projection" of complexes is refused when the sequence is built;
# a valid one has no connecting map at its bottom degree
Z0 = Zm.zero_object()
quo = Complex(0, 1, {0: Z0, 1: Zm}, {1: Zm.zero_to(Z0)})
sub = Complex(0, 1, {0: Z0, 1: Z0}, {1: Z0.zero_to(Z0)})
maps = lambda a, b, mor: ChainMap(a, b, {n: mor(a.obj(n), b.obj(n)) for n in (0, 1)})
expect(ExactnessError, lambda: SESOfComplexes(
    sub, quo, quo, maps(sub, quo, ModuleObj.zero_to), maps(quo, quo, ModuleObj.zero_to)),
    "second map is not epi")
sesc = SESOfComplexes(sub, quo, quo, maps(sub, quo, ModuleObj.zero_to),
                      maps(quo, quo, lambda a, b: a.identity()))
expect(ExactnessError, lambda: connecting(sesc, sesc.mid.lo), "needs the differential")

# balance legs that are not isomorphisms, and a corrupted product index
true_iso = abelian.is_iso
abelian.is_iso = lambda f: False
try:
    expect(ExactnessError, lambda: bifunctor.balance_comparison(Z2, Z2, 0),
           "first leg of the balance zig-zag")
finally:
    abelian.is_iso = true_iso
K = fincat.product(ARROW, ARROW)
K.comp[("(id_1,a)", "(a,id_0)")] = "(id_0,id_0)"
expect(ExactnessError, lambda: bifunctor._route_identities(
    K, ARROW, ARROW, {0: {"L": None}}, {}, "row"), "product index composes")
"""


# the free cover's epi postcondition, with a planted fault: the cover
# loses its last summand on the way into `free_diagram_multi`
COVER_DROPS_A_SUMMAND = """
from functor_homology import diagrams
from functor_homology.diagrams import Diagram
from functor_homology.errors import ExactnessError
from functor_homology.fincat import standard
from functor_homology.modules import cyclic, trivial_module
from functor_homology.rings import cyclic_group_table, group_algebra

ARROW = standard("arrow")
true_multi = diagrams.free_diagram_multi


def zero_arrow(A, B):
    return Diagram(ARROW, {"0": A, "1": B},
                   {"id_0": A.identity(), "id_1": B.identity(), "a": A.zero_to(B)})


for D in (zero_arrow(cyclic(4), cyclic(2)),
          zero_arrow(*[trivial_module(group_algebra(2, cyclic_group_table(2)))] * 2)):
    F, _ = D.free_cover()
    if [s.at for s in F.free_data.summands] != ["0", "1"]:
        raise SystemExit(f"unexpected summands {F.free_data.summands}")
    diagrams.free_diagram_multi = lambda index, summands, ring: true_multi(
        index, summands[:-1], ring)
    try:
        D.free_cover()
    except ExactnessError as e:
        if str(e) != "free cover of the diagram is not epi at 1":
            raise SystemExit(f"wrong message: {e}")
    else:
        raise SystemExit("a cover missing a summand was accepted")
    finally:
        diagrams.free_diagram_multi = true_multi
"""


def _passes_under_optimize(script):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", script],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr


def test_checks_hold_under_optimize():
    _passes_under_optimize(CHECKS_UNDER_OPTIMIZE)


def test_cover_postcondition_holds_under_optimize():
    _passes_under_optimize(COVER_DROPS_A_SUMMAND)
