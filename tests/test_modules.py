import os
import random
import subprocess
import sys

import pytest

from functor_homology.abelian import image, is_iso
from functor_homology.errors import ExactnessError, MorphismError, ShapeError
from functor_homology import fplinalg, intlinalg, modules
from functor_homology.intlinalg import from_columns, hstack
from functor_homology.modules import (ModMor, ModuleObj, cokernel, cyclic, free_cover,
                                      free_generator_columns, free_module, hom_basis,
                                      kernel, nary_biproduct, trivial_module)
from functor_homology.fplinalg import fp_from_columns
from functor_homology.rings import (ZZ, cyclic_group_table, fp_field,
                                    group_algebra, product_group_table)
from functor_homology.verification import (_random_fp_module, random_morphism,
                                           random_z_module)

from oracle import (Element, apply, commutes_with_every_action,
                    enumerate_elements, preimage)


def borel_sets(f):
    """Elementwise image of a morphism between small finite modules."""
    return {apply(f, e).normal_form() for e in enumerate_elements(f.source)}


def test_kernel_examples():
    Z4, Z2 = cyclic(4), cyclic(2)
    K, mono = kernel(Z4.identity())
    assert K.is_zero()
    Zm = cyclic(0)
    K, mono = kernel(ModMor(Zm, Zm, [[2]]))
    assert K.is_zero()
    f = ModMor(Z4, Z2, [[1]])
    K, mono = kernel(f)
    assert K.invariant_factors() == ([2], 0)
    assert mono.then(f).is_zero()
    # enumeration oracle: exactly two elements of Z/4 die
    dead = [e for e in enumerate_elements(Z4) if apply(f, e).is_zero()]
    assert len(dead) == 2


def test_kernel_universal_property_random():
    rng = random.Random(17)
    for _ in range(30):
        A, B = random_z_module(rng), random_z_module(rng)
        f = random_morphism(rng, A, B)
        K, mono = kernel(f)
        X = random_z_module(rng)
        into_k = random_morphism(rng, X, K)
        h = into_k.then(mono)
        assert h.then(f).is_zero()
        u = mono.factor(h)
        assert u.then(mono) == h
        # uniqueness: the difference of two factorizations has zero image
        assert u == into_k


def test_cokernel_examples():
    Zm = cyclic(0)
    C, epi = cokernel(Zm.identity())
    assert C.is_zero()
    C, epi = cokernel(ModMor(Zm, Zm, [[2]]))
    assert C.invariant_factors() == ([2], 0)
    B = cyclic(6)
    C, epi = cokernel(Zm.zero_to(B))
    assert is_iso(epi)


def test_image_is_kernel_of_cokernel_elementwise():
    # f = x2 on Z, checked inside the truncation Z/8
    Z8 = cyclic(8)
    f8 = ModMor(Z8, Z8, [[2]])
    img = image(f8)
    assert img.epi.then(img.mono) == f8
    expected = borel_sets(f8)
    got = borel_sets(img.mono)
    assert expected == got
    assert image(Z8.identity()).obj.invariant_factors() == ([8], 0)
    assert image(Z8.zero_to(Z8)).obj.is_zero()


def test_image_matches_enumeration_random():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        A, B = random_z_module(rng), random_z_module(rng)
        if A.invariant_factors()[1] or B.invariant_factors()[1]:
            continue  # enumeration oracle needs finite modules
        f = random_morphism(rng, A, B)
        img = image(f)
        assert borel_sets(f) == borel_sets(img.mono)
        checked += 1


def test_exactness_examples():
    Zm, Z2 = cyclic(0), cyclic(2)
    x2 = ModMor(Zm, Zm, [[2]])
    x4 = ModMor(Zm, Zm, [[4]])
    q = ModMor(Zm, Z2, [[1]])
    assert x2.is_exact_at(q)
    assert not x4.is_exact_at(q)
    # elementwise oracle inside Z/4: im(x2) = {0, 2} = ker(q)
    Z4 = cyclic(4)
    f4 = ModMor(Z4, Z4, [[2]])
    q4 = ModMor(Z4, Z2, [[1]])
    im = borel_sets(f4)
    ker = {e.normal_form() for e in enumerate_elements(Z4)
           if apply(q4, e).is_zero()}
    assert im == ker
    with pytest.raises(ExactnessError):
        ModMor(Zm, Zm, [[1]]).is_exact_at(ModMor(Zm, Zm, [[1]]))


def test_exactness_agrees_with_elements_random():
    rng = random.Random(29)
    checked = 0
    while checked < 20:
        A, B = random_z_module(rng), random_z_module(rng)
        if A.invariant_factors()[1] or B.invariant_factors()[1]:
            continue
        f = random_morphism(rng, A, B)
        Q, qe = cokernel(f)
        g = qe.then(random_morphism(rng, Q, random_z_module(rng)))
        im = borel_sets(f)
        ker = {e.normal_form() for e in enumerate_elements(B)
               if apply(g, e).is_zero()}
        assert f.is_exact_at(g) == (im == ker)
        checked += 1


def test_biproduct_properties():
    Z2, Z3 = cyclic(2), cyclic(3)
    bp = Z2.biproduct(Z3)
    assert bp.obj.invariant_factors() == ([6], 0)
    assert bp.inj1.then(bp.proj1) == Z2.identity()
    assert bp.inj2.then(bp.proj2) == Z3.identity()
    assert bp.inj1.then(bp.proj2).is_zero()
    assert (bp.proj1.then(bp.inj1) + bp.proj2.then(bp.inj2)
            == bp.obj.identity())
    # product/coproduct universal properties on random cones
    rng = random.Random(31)
    for _ in range(10):
        X = random_z_module(rng)
        a = random_morphism(rng, X, Z2)
        b = random_morphism(rng, X, Z3)
        cone = a.then(bp.inj1) + b.then(bp.inj2)
        assert cone.then(bp.proj1) == a and cone.then(bp.proj2) == b
        c = random_morphism(rng, Z2, X)
        d = random_morphism(rng, Z3, X)
        cocone = bp.proj1.then(c) + bp.proj2.then(d)
        assert bp.inj1.then(cocone) == c and bp.inj2.then(cocone) == d
    R = group_algebra(2, cyclic_group_table(2))
    F2sq = free_module(R, 2)
    bp2 = F2sq.biproduct(free_module(R, 1))
    assert bp2.obj.dim == F2sq.dim + 2


def test_free_cover():
    F = free_module(ZZ, 2)
    P, eps = free_cover(F)
    assert P.gens == 2 and is_iso(eps)
    Z2 = cyclic(2)
    P, eps = free_cover(Z2)
    assert P.free_rank == 1
    C, _ = cokernel(eps)
    assert C.is_zero()
    R = group_algebra(2, cyclic_group_table(2))
    T = trivial_module(R)
    P, eps = free_cover(T)
    assert P.free_rank == 1
    from functor_homology.fplinalg import rank
    assert rank(eps.matrix) == T.dim  # surjective


def test_modules_over_one_ring_share_its_ops():
    # the ops object is built once per ring and kept on it; a ring built
    # alike is equal but gets its own
    R2 = group_algebra(2, cyclic_group_table(2))
    M, N = free_module(R2, 2), trivial_module(R2)
    f = M.zero_to(N)
    assert M.ops is N.ops is f.ops is R2._ops
    other = group_algebra(2, cyclic_group_table(2))
    assert other == R2 and free_module(other, 1).ops is not M.ops
    assert cyclic(4).ops is free_cover(cyclic(6))[0].ops is ZZ._ops


def test_preimage():
    Z2 = cyclic(2)
    Zm = cyclic(0)
    f = ModMor(Zm, Zm, [[2]])
    x = preimage(f, Element(Zm, [4]))
    assert x is not None and x.coords == (2,)
    q = ModMor(Zm, Z2, [[1]])
    y = preimage(q, Element(Z2, [1]))
    assert y is not None and apply(q, y) == Element(Z2, [1])
    assert preimage(f, Element(Zm, [3])) is None
    Z3 = cyclic(3)
    with pytest.raises(ShapeError):
        Element(Z2, [1]) + Element(Z3, [1])
    with pytest.raises(ShapeError):
        Element(Z2, [1]) - Element(Z3, [1])
    with pytest.raises(ShapeError):
        apply(Z2.identity(), Element(Z3, [1]))
    with pytest.raises(ShapeError):
        preimage(Z2.identity(), Element(Z3, [1]))


def test_morphism_validation():
    Z2, Z4 = cyclic(2), cyclic(4)
    with pytest.raises(MorphismError):
        ModMor(Z2, Z4, [[1]])  # 2*1 = 2 is not 0 mod 4
    ModMor(Z2, Z4, [[2]])  # the doubling map is fine


def test_hom_basis_spans():
    Z4, Z6 = cyclic(4), cyclic(6)
    hb = hom_basis(Z4, Z6)
    # Hom(Z/4, Z/6) is cyclic of order 2, generated by x3
    assert len(hb) >= 1
    assert any(h == ModMor(Z4, Z6, [[3]]) for h in hb)


PRECONDITIONS = """
from functor_homology.errors import ShapeError
from functor_homology.fplinalg import FpMatrix
from functor_homology.intlinalg import IntMatrix
from functor_homology.modules import (ModuleObj, cyclic, free_generator_columns,
                                      nary_biproduct)
from functor_homology.rings import ZZ, cyclic_group_table, group_algebra
Z2 = cyclic(2)
R2 = group_algebra(2, cyclic_group_table(2))
ONE = FpMatrix(2, 1, 1, [[1]])
I2 = FpMatrix.identity(2, 2)
for call in (lambda: nary_biproduct([]),
             lambda: ModuleObj(R2, 2, actions=[I2, I2], free_rank=1),
             lambda: ModuleObj(ZZ, 1, rels=[[2]], free_rank=1),
             lambda: free_generator_columns(Z2),
             lambda: Z2.identity().lift(Z2.identity()),
             lambda: ModuleObj(R2, 1, rels=[[1]], actions=[ONE, ONE]),
             lambda: ModuleObj(ZZ, 1, actions=[IntMatrix.identity(1)]),
             lambda: ModuleObj(R2, 1, actions=[ONE])):
    try:
        call()
    except ShapeError:
        continue
    raise SystemExit("precondition not enforced")
"""


def test_preconditions_raise_shape_error():
    with pytest.raises(ShapeError):
        nary_biproduct([])
    Z2 = cyclic(2)
    assert free_generator_columns(free_module(ZZ, 2)) == [[1, 0], [0, 1]]
    with pytest.raises(ShapeError):
        free_generator_columns(Z2)
    with pytest.raises(ShapeError):
        Z2.identity().lift(Z2.identity())
    # base change and lifting trust free_rank, so a caller's claim is checked:
    # the trivial action on F_2^2 is not F_2[C2]
    r2 = group_algebra(2, cyclic_group_table(2))
    ident = fplinalg.FpMatrix.identity(2, 2)
    with pytest.raises(ShapeError):
        ModuleObj(r2, 2, actions=[ident, ident], free_rank=1)
    P = free_module(r2, 2)
    assert ModuleObj(r2, P.gens, actions=P.actions, free_rank=2) == P
    assert ModuleObj(ZZ, 2, free_rank=2) == free_module(ZZ, 2)


def test_preconditions_hold_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", PRECONDITIONS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def _solve_alone(f, b):
    """Some x with f.matrix x = b modulo f.target's relations, or None,
    from a factorisation built for this right-hand side alone."""
    T = f.target
    if T.ring.is_integers:
        system = hstack([f.matrix, from_columns([list(r) for r in T.rels], T.gens)])
        x = intlinalg.solve(system, b)
        return None if x is None else x[: f.source.gens]
    return fplinalg.solve(f.matrix, b)



def _solving_oracle(epi, w):
    """The map v with v . epi = w, by solving epi.matrix x = e_k modulo
    the target's relations for every generator e_k of epi.target."""
    Q = epi.target
    cols = [_solve_alone(epi, e) for e in fplinalg.unit_vectors(Q.gens)]
    return ModMor(Q, w.target, w.matrix.mul(epi.ops.from_columns(cols, epi.source.gens)))


def test_cofactor_through_cokernel_matches_solving_oracle():
    # ModMor.cofactor reads the section the cokernel epi carries; the
    # map it gives must be the one solving through the epi gives
    rng = random.Random(31)
    r2 = group_algebra(2, cyclic_group_table(2))
    makers = [random_z_module, lambda r: _random_fp_module(r, r2)]
    for make in makers:
        nonzero = 0
        for _ in range(200):
            A, B, C = make(rng), make(rng), make(rng)
            Q, epi = cokernel(random_morphism(rng, A, B))
            g = random_morphism(rng, Q, C)
            v = epi.cofactor(epi.then(g))
            assert v == _solving_oracle(epi, epi.then(g))
            assert v == g
            nonzero += not v.is_zero()
        assert nonzero >= 30


SECTION_FAULTS = """
from functor_homology.errors import MorphismError
from functor_homology.modules import (ModMor, cokernel, cyclic, ring_as_module,
                                      trivial_module)
from functor_homology.rings import cyclic_group_table, group_algebra


def expect(call, text):
    try:
        call()
    except MorphismError as e:
        if text not in str(e):
            raise SystemExit(f"wrong message: {e}")
        return
    raise SystemExit(f"MorphismError not raised ({text})")


R2 = group_algebra(2, cyclic_group_table(2))
Z4, R, T = cyclic(4), ring_as_module(R2), trivial_module(R2)
for f in (ModMor(Z4, Z4, [[2]]), Z4.zero_to(Z4), T.zero_to(R)):
    Q, epi = cokernel(f)
    # a planted corrupted section: the zero matrix of its shape
    epi._cache["section"] = epi.ops.zeros(epi.source.gens, Q.gens)
    expect(lambda: epi.cofactor(epi), "does not descend along the epi")
    if f.is_zero():
        # the cokernel of a zero map is an isomorphism
        expect(lambda: epi.inverse(), "not an isomorphism")
for non_epi, w in ((ModMor(cyclic(0), cyclic(0), [[2]]), cyclic(0).identity()),
                   (T.zero_to(T), T.identity())):
    expect(lambda: non_epi.cofactor(w), "not an epimorphism")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_section_faults_raise(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, *flags, "-c", SECTION_FAULTS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def _module_maker(which):
    """A random module maker over `which` ("Z" or "F2[C2]"), and its ring."""
    if which == "Z":
        return random_z_module, ZZ
    r2 = group_algebra(2, cyclic_group_table(2))
    return (lambda r: _random_fp_module(r, r2)), r2


def _random_coords(rng, M):
    hi = 3 if M.ring.is_integers else M.ring.p - 1
    return [rng.randint(-hi if M.ring.is_integers else 0, hi) for _ in range(M.gens)]


@pytest.mark.parametrize("which", ["Z", "F2[C2]"])
def test_preimages_build_one_solver_per_call(which, monkeypatch):
    make, ring = _module_maker(which)
    rng = random.Random(43)
    ops = free_module(ring, 1).ops
    calls = []
    true_solver = type(ops).solver
    monkeypatch.setattr(type(ops), "solver",
                        lambda self, f: calls.append(f) or true_solver(self, f))
    for _ in range(40):
        f = random_morphism(rng, make(rng), make(rng))
        bs = [f.matrix.mul_vec(_random_coords(rng, f.source))
              for _ in range(rng.randint(1, 4))]
        calls.clear()
        assert modules._preimages(f, [], "unused") == []
        assert calls == []
        got = modules._preimages(f, bs, "must be solvable")
        assert calls == [f]
        assert got == [_solve_alone(f, b) for b in bs]


@pytest.mark.parametrize("which", ["Z", "F2[C2]"])
def test_shared_solver_matches_solving_each_alone(which):
    # ModMor.factor, ModMor.lift, section and preimage solve
    # every right-hand side with one factorisation of the map; each answer
    # must be the one a factorisation for that right-hand side alone gives
    make, ring = _module_maker(which)
    rng = random.Random(47)
    solved = 0
    for _ in range(60):
        A, B, X = make(rng), make(rng), make(rng)
        f = random_morphism(rng, A, B)
        # a mono and a map that factors through it
        K, mono = kernel(f)
        h = random_morphism(rng, X, K).then(mono)
        u = mono.factor(h)
        cols = [_solve_alone(mono, h.matrix.col(j)) for j in range(h.source.gens)]
        assert u.matrix == mono.ops.from_columns(cols, K.gens)
        solved += len(cols)
        # an epi built without its section, and a map out of a free module
        Q, carrying = cokernel(f)
        epi = ModMor(B, Q, carrying.matrix)
        assert "section" not in epi._cache
        cols = [_solve_alone(epi, e) for e in fplinalg.unit_vectors(Q.gens)]
        assert modules.section(epi) == epi.ops.from_columns(cols, B.gens)
        solved += len(cols)
        P = free_module(ring, rng.randint(0, 2))
        g = random_morphism(rng, P, Q)
        cols = []
        for gc in free_generator_columns(P):
            x = _solve_alone(epi, g.matrix.mul_vec(gc))
            cols.extend(epi.ops.free_images(B, x))
            solved += 1
        assert g.lift(epi).matrix == epi.ops.from_columns(cols, B.gens)
        # an element of the image of f
        y = apply(f, Element(A, _random_coords(rng, A)))
        assert list(preimage(f, y).coords) == _solve_alone(f, list(y.coords))
        solved += 1
    assert solved >= 200


def _algebras():
    c2 = cyclic_group_table(2)
    return [group_algebra(2, c2), group_algebra(3, cyclic_group_table(3)),
            group_algebra(2, cyclic_group_table(4)),
            group_algebra(2, product_group_table(c2, c2))]


def _accepts(A, B, m):
    try:
        ModMor(A, B, m)
    except MorphismError:
        return False
    return True


def _commutant_not_of_generators(ring):
    """Matrices on the regular module commuting with a basis element c that
    is neither a generator nor in the unit's support, but not with every
    generator: the kernel of X -> X.a_c - a_c.X, minus the maps that commute
    with every generator."""
    n, p = ring.dim, ring.p
    R = free_module(ring, 1)
    out = []
    for c in range(n):
        if c in ring.algebra_generators or ring.unit[c]:
            continue
        lam = R.actions[c]
        rows = [[0] * (n * n) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                row = rows[i * n + j]  # entry (i, j) of X.lam - lam.X
                for k in range(n):
                    row[i * n + k] += lam.data[k][j]
                    row[k * n + j] -= lam.data[i][k]
        for v in fplinalg.kernel_basis(fplinalg.FpMatrix(p, n * n, n * n, rows)):
            m = fplinalg.FpMatrix(p, n, n, [v[i * n:(i + 1) * n] for i in range(n)])
            if not commutes_with_every_action(R, R, m):
                out.append(m)
    return R, out


def test_algebra_generators_span_the_algebra():
    expected = {"F2[C2]": (1,), "F3[C3]": (1,), "F2[C4]": (1,), "F2[C2xC2]": (1, 2)}
    for ring, name in zip(_algebras(), expected):
        assert ring.algebra_generators == expected[name], name
        # words in the generators, closed under multiplication from the unit
        words, frontier = [list(ring.unit)], [list(ring.unit)]
        while frontier:
            new = []
            for w in frontier:
                for g in ring.algebra_generators:
                    x = ring.multiply(w, [int(i == g) for i in range(ring.dim)])
                    if x not in words:
                        words.append(x)
                        new.append(x)
            frontier = new
        assert fplinalg.rank(fp_from_columns(ring.p, words, ring.dim)) == ring.dim, name
    assert fp_field(3).algebra_generators == () and ZZ.algebra_generators == ()
    assert group_algebra(2, [[0]]).algebra_generators == ()


def test_generator_check_agrees_with_every_basis_element():
    # ModMor checks commutation on `algebra_generators` only; over random
    # module pairs and random matrices, commuting and not, it must accept
    # exactly the matrices that commute with every basis element
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for ring in _algebras():
        p = ring.p
        mods = [trivial_module(ring), free_module(ring, 1), free_module(ring, 2)]
        mods += [_random_fp_module(rng, ring, max_rank=1) for _ in range(3)]
        for _ in range(12):
            A, B = rng.choice(mods), rng.choice(mods)
            cands = [random_morphism(rng, A, B).matrix]
            cands.append(fplinalg.FpMatrix(p, B.gens, A.gens, [
                [rng.randrange(p) for _ in range(A.gens)] for _ in range(B.gens)]))
            for m in cands:
                want = commutes_with_every_action(A, B, m)
                assert _accepts(A, B, m) == want
                verdicts[want] += 1
        R, planted = _commutant_not_of_generators(ring)
        # g^2 generates F_3[C3] too; in F_2[C4] and F_2[C2xC2] it does not
        assert bool(planted) == (ring.dim == 4)
        for m in planted:
            assert not _accepts(R, R, m)
            verdicts[False] += 1
    assert verdicts[True] >= 40 and verdicts[False] >= 40


def test_module_construction_checks_every_basis_element():
    # outside input is checked in full: an action that is wrong only at a
    # non-generator basis element is still rejected by ModuleObj
    r4 = group_algebra(2, cyclic_group_table(4))
    R = free_module(r4, 1)
    actions = list(R.actions)
    assert 3 not in r4.algebra_generators
    actions[3] = actions[1]
    with pytest.raises(MorphismError):
        ModuleObj(r4, R.gens, actions=actions)


PLANTED_FAULTS = """
from functor_homology import fplinalg, modules
from functor_homology.errors import MorphismError
from functor_homology.modules import cokernel, kernel, ring_as_module, trivial_module
from functor_homology.rings import cyclic_group_table, group_algebra

R2 = group_algebra(2, cyclic_group_table(2))
R, T = ring_as_module(R2), trivial_module(R2)
G = R2.algebra_generators[0]


def flip(m, i, j):
    data = [list(r) for r in m.data]
    data[i][j] += 1
    return fplinalg.FpMatrix(m.p, m.rows, m.cols, data)


def expect(call, text):
    try:
        call()
    except MorphismError as e:
        if text not in str(e):
            raise SystemExit(f"wrong message: {e}")
        return
    raise SystemExit(f"MorphismError not raised ({text})")


# a quotient whose Q gets one corrupted action matrix (the next module built)
real_module = modules.ModuleObj


def corrupt_module(ring, gens, rels=(), actions=(), free_rank=None, check=True):
    modules.ModuleObj = real_module
    actions = list(actions)
    actions[G] = flip(actions[G], 0, 0)
    return real_module(ring, gens, rels, actions, free_rank, check)


modules.ModuleObj = corrupt_module
expect(lambda: cokernel(T.zero_to(R)), f"does not commute with action {G}")
assert modules.ModuleObj is real_module

# a kernel whose solved action is corrupted (the next solve_matrix)
real_solve = fplinalg.solve_matrix


def corrupt_solve(A, B):
    fplinalg.solve_matrix = real_solve
    x = real_solve(A, B)
    return flip(x, 0, G * A.cols)


fplinalg.solve_matrix = corrupt_solve
expect(lambda: kernel(R.zero_to(T)), f"does not commute with action {G}")
assert fplinalg.solve_matrix is real_solve
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_planted_kernel_and_quotient_faults_raise(flags):
    # K and Q are built unchecked and inherit their laws from the checked
    # inclusion and epi, so a corrupted action must fail those checks
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, *flags, "-c", PLANTED_FAULTS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
