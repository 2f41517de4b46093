"""Finitely presented modules and their morphisms, over the two base rings.

Every module is one presentation: `gens` generators, relation rows
`rels` and one action matrix per algebra basis element.  Integer case: Z^gens
modulo the row span of `rels`, with no action matrices.  F_p-algebra case:
the vector space F_p^gens (`dim` reads the same number) with its action
matrices, and no relations.

Morphisms are matrices on generators, validated at construction: they must
map relations into relations and commute with the action of every algebra
generator.  Two
morphisms with the same endpoints are equal when every column of their
difference lies in the target's relations.  `same_map_into` decides this
on the matrices, without building any morphism: identical matrices are
equal, and otherwise each column of the entrywise difference is reduced
modulo the target's relations.  `ModMor.__eq__` and the functoriality and
naturality checks of `diagrams` all use it.  F_p entries are stored
reduced and F_p modules have no relations, so there the matrices decide.

Every operation has one body.  What differs between the rings sits behind
one seam, the ops object `ring_ops(ring)` (also `M.ops`, `f.ops`): matrix
constructors, `solver(f)` for `f.matrix x = b` modulo the relations of
`f.target` (one factorisation of the map serves every right-hand side),
the kernel of a linear system, the images of a free generator, membership
in the relations, the preimage lattice of a map, two presentation steps,
the mono, epi and exactness verdicts (lattice tests over Z, ranks over
F_p; see `abelian`), the cover and lift of base change out of the ring
(`base_change_epi`, `base_change_lift`) and a random map's
`coefficient_range`.
`quotient(M, cols)` is M modulo extra relation columns, returned as its
epi M -> Q alone (Q is `epi.target`).  The epi carries a section of its
matrix, built with it: the invariant-factor form from one Smith normal
form (Z), or the complement of an echelon basis of the span (F_p).
`section(epi)` reads it back, and solves one preimage per generator for an
epi built any other way.  Cokernel, `simplify`, `cofactor_through_epi`,
`iso_inverse` and the tensor and base-change objects and maps of
`tensorops` are all built on these two.
`submodule(M, cols)` presents the span of cols: lattice syzygies then
`simplify` (Z), or the actions solved on the subspace (F_p); `kernel` is
`submodule` of the map's `preimage_lattice`, the lattice the Z verdicts
test.  A kernel out of, or cokernel into, a module with no generators is
forced by shape (`no_generators`, `forced_epi`), equal to the general
answer with no elimination run.  `HomSystem` builds the linear system for
unknown module matrices, and `hom_space` is the one solver on it, for C
and C^I alike: each object lays out its own unknowns and naturality rows
(see `abelian`), so `hom_basis` and the morphisms of short exact
sequences have one body for modules and diagrams.  Values are immutable
after construction and every operation is pure.

Validation follows one rule.  Outside input is checked in full:
`ModuleObj(..., check=True)` tests the unit and every structure constant
on the action matrices, and that a module marked free (`free_rank`) has
the layout of `free_module`, which free covers, lifting and base change
rely on.  Modules the package builds (`check=False`)
inherit their laws from the checked map that defines them: free modules
and biproducts by their block layout, a kernel or submodule K from its
inclusion w, and a quotient Q from its epi q (see `_AlgebraOps`).  Maps
are checked on `Ring.algebra_generators`: when both endpoints' actions
are representations, {x : f.a_x = b_x.f} is a subalgebra, so commuting
with the generators is commuting with everything.

`ModuleObj` and `ModMor` answer the method interface listed in `abelian`.
Each method calls the function of this module by its global name (never a
class attribute bound to it), so patching the module attribute reaches
method callers too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import abelian, fplinalg, intlinalg
from .errors import ExactnessError, MorphismError, RingMismatchError, ShapeError
from .fplinalg import FpMatrix, fp_from_columns
from .intlinalg import IntMatrix, from_columns, hstack
from .rings import Ring, ZZ, require_algebra


# -- the base-ring seam -----------------------------------------------------


class _RingOps:
    """The base-ring seam: everything that differs between Z and an
    F_p-algebra.  A subclass supplies `matrix_type`, `matrix` (the checked
    constructor), `from_columns`, `identity`, `zeros` and `from_blocks`
    (the trusted producers of its matrix module), `kernel_basis`, `solver`,
    `free_images` and `unit` (coordinates of a free generator on its free
    basis), `n_actions` and `has_relations` (the shape of a
    presentation), `residue` (coordinates that vanish exactly on the
    relations), `preimage_lattice` (generators of the x that f sends into
    its target's relations: the kernel's columns before `submodule`),
    `quotient`, `submodule`, `generators` (of a free cover),
    `describe`, the exactness verdicts `is_mono`, `is_epi` and `exact_at`
    (exactness at the middle of f, g, given g . f = 0), `base_change_epi`
    and `base_change_lift` (the epi onto S (x)_R M from a cover, with its
    section, for a ring map R -> S out of this ring, and a matrix lifted
    to covers), and `coefficient_range` (the entries of a random map).
    `invariant_factors` and `simplify` answer over Z only, and
    `fp_dimension` and `minimal_generators` over an F_p-algebra; on the
    other ring each raises a ShapeError.  The constructors below are
    shared and checked.
    """

    __slots__ = ()

    def from_rows(self, data):
        return self.matrix(len(data), len(data[0]) if data else 0, data)


class _IntegerOps(_RingOps):
    """Z: matrices are IntMatrix, equations hold modulo relations, and a
    module is a presentation with no actions."""

    __slots__ = ()
    matrix_type = IntMatrix
    unit = (1,)
    n_actions = 0
    has_relations = True

    def matrix(self, rows, cols, data):
        return IntMatrix(rows, cols, data)

    def from_columns(self, cols, rows):
        return from_columns(cols, rows)

    def identity(self, n):
        return IntMatrix.identity(n)

    def zeros(self, rows, cols):
        return IntMatrix.zeros(rows, cols)

    def from_blocks(self, rows, cols, placed):
        return IntMatrix.from_blocks(rows, cols, placed)

    def kernel_basis(self, A):
        return intlinalg.kernel_basis(A)

    def solver(self, f):
        """b -> some x with f.matrix x = b modulo f.target's relations, or
        None; one Smith normal form serves every right-hand side."""
        res = intlinalg.snf(hstack([f.matrix, f.target._rel_cols()]))
        n = f.source.gens

        def solve(b):
            x = intlinalg.solve_snf(res, b)
            return None if x is None else x[:n]
        return solve

    def free_images(self, M, v):
        """Images of the free basis elements of one generator sent to v."""
        return [v]

    def residue(self, M, vec):
        """vec in the Smith basis of M's relations, each torsion coordinate
        reduced modulo its invariant factor: zero exactly on relations."""
        res = M._pres_snf()
        u = res.U.mul_vec(list(vec))
        diag = res.diagonal()
        for i in range(res.rank):
            u[i] %= diag[i]
        return u

    def preimage_lattice(self, f):
        """Generators of the lattice {x : f.matrix x in f.target's
        relations}: the source coordinates of the integer kernel of
        [f | R_B], R_B the target's relation columns."""
        n = f.source.gens
        comb = hstack([f.matrix, f.target._rel_cols()])
        return [v[:n] for v in intlinalg.kernel_basis(comb)]

    def quotient(self, M, cols):
        """The epi from M onto M modulo the extra relation columns, in
        invariant-factor form (Smith normal form of all relations, dropping
        unit factors); its section takes the matching columns of U^-1."""
        raw = ModuleObj(ZZ, M.gens, M.rels + tuple(map(tuple, cols))) if cols else M
        res = raw._pres_snf()
        diag = res.diagonal()
        r = res.rank
        keep = [i for i in range(r) if diag[i] > 1] + list(range(r, M.gens))
        rels = [[diag[i] if k == idx else 0 for k in range(len(keep))]
                for idx, i in enumerate(keep) if i < r]
        Q = ModuleObj(ZZ, len(keep), rels)
        uinv = raw._uinv()
        epi = ModMor(M, Q, IntMatrix(len(keep), M.gens, [res.U.data[i] for i in keep]),
                     check=False)
        epi._cache["section"] = from_columns([uinv.col(i) for i in keep], M.gens)
        return epi

    def submodule(self, M, cols):
        """The submodule spanned by cols: the lattice syzygies of the
        columns modulo M's relations, then `simplify`."""
        k_mat = from_columns(cols, M.gens)
        syz = intlinalg.kernel_basis(hstack([k_mat, M._rel_cols()]))
        raw = ModuleObj(ZZ, len(cols), [v[: len(cols)] for v in syz])
        simple, _, from_simple = simplify(raw)
        return simple, ModMor(simple, M, k_mat.mul(from_simple.matrix), check=False)

    def generators(self, M):
        return fplinalg.unit_vectors(M.gens)

    def invariant_factors(self, M):
        res = M._pres_snf()
        return [d for d in res.diagonal() if d > 1], M.gens - res.rank

    def simplify(self, M):
        to_simple = self.quotient(M, [])
        simple = to_simple.target
        return simple, to_simple, ModMor(simple, M, section(to_simple), check=False)

    def fp_dimension(self, M):
        raise ShapeError("an F_p dimension needs a module over an F_p-algebra")

    def minimal_generators(self, M):
        raise ShapeError("minimal generators need a module over an F_p-algebra")

    def coefficient_range(self, bound):
        return -bound, bound

    def base_change_epi(self, rm, M):
        """Z -> Z: the identity.  Z -> S: the free S-module on M's
        generators modulo M's relations, lifted."""
        if rm.target == M.ring:
            epi = identity_mor(M)
            epi._cache["section"] = epi.matrix
            return epi
        cover = free_module(rm.target, M.gens)
        psi = self.base_change_lift(rm, M._rel_cols())
        return cover.ops.quotient(cover, [psi.col(j) for j in range(psi.cols)])

    def base_change_lift(self, rm, matrix):
        """Each entry times the identity of S (the matrix itself if S = Z)."""
        ops = ring_ops(rm.target)
        scalars = ops.matrix(matrix.rows, matrix.cols, matrix.data)
        return scalars.kron(ops.identity(len(ops.unit)))

    def describe(self, M):
        torsion, free = M.invariant_factors()
        parts = [f"Z/{d}" for d in torsion]
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append(f"Z^{free}")
        return " ⊕ ".join(parts) if parts else "0"

    # Over Z a presentation is zero only when its relations span, which no
    # count of generators decides, so each verdict is a lattice question
    # answered by Smith normal forms, with no module built (Newman,
    # Integral Matrices, ch. II; Cohen, A Course in Computational
    # Algebraic Number Theory, 2.4).  For f: A -> B: f is epi iff the
    # columns of [R_B | f] span Z^gens(B), i.e. their Smith form has
    # gens(B) diagonal entries, all 1 (the unit factors `quotient` drops);
    # mono iff every generator of f's preimage lattice lies in R_A; and,
    # given g . f = 0 (so im f + R_M lies inside g's preimage lattice),
    # exact at M iff every generator of g's preimage lattice lies in
    # im f + R_M.

    def is_mono(self, f):
        return all(f.source.in_relations(v) for v in self.preimage_lattice(f))

    def is_epi(self, f):
        res = intlinalg.snf(hstack([f.target._rel_cols(), f.matrix]))
        return res.diagonal()[:f.target.gens] == [1] * f.target.gens

    def exact_at(self, f, g):
        vectors = self.preimage_lattice(g)
        if not vectors:
            return True
        solve = self.solver(f)
        return all(solve(v) is not None for v in vectors)


class _AlgebraOps(_RingOps):
    """An F_p-algebra: matrices are FpMatrix, equations are strict, and a
    module is a vector space with one action matrix per algebra basis
    element and no relations."""

    __slots__ = ("ring", "p", "unit", "n_actions")
    matrix_type = FpMatrix
    has_relations = False

    def __init__(self, ring):
        self.ring = ring
        self.p = ring.p
        self.unit = ring.unit
        self.n_actions = ring.dim

    def matrix(self, rows, cols, data):
        return FpMatrix(self.p, rows, cols, data)

    def from_columns(self, cols, rows):
        return fp_from_columns(self.p, cols, rows)

    def identity(self, n):
        return FpMatrix.identity(self.p, n)

    def zeros(self, rows, cols):
        return FpMatrix.zeros(self.p, rows, cols)

    def from_blocks(self, rows, cols, placed):
        return FpMatrix.from_blocks(self.p, rows, cols, placed)

    def kernel_basis(self, A):
        return fplinalg.kernel_basis(A)

    def solver(self, f):
        return fplinalg.solver(f.matrix)

    def free_images(self, M, v):
        # the free basis of one generator is (generator, algebra basis element)
        return [act.mul_vec(v) for act in M.actions]

    def residue(self, M, vec):
        return [x % self.p for x in vec]

    def preimage_lattice(self, f):
        """A basis of ker f (no relations to map into)."""
        return fplinalg.kernel_basis(f.matrix)

    def quotient(self, M, cols):
        """The epi from M onto M modulo the span of cols: extend a basis of
        the span by unit vectors; the quotient map takes the coordinates
        along the added ones, which also give its section.

        Q's actions are q.a.sec, built unchecked; the checked epi proves
        them.  q.sec = 1, and q.a_g = b_g.q for each generator g puts
        a_g(ker q) inside ker q.  So ker q is invariant under the whole
        algebra, M's actions descend to Q, and the descended action of a
        is q.a.sec: Q is a module and q commutes with every action."""
        p, n = self.p, M.gens
        span = fplinalg.Span(p, n, cols)
        r = len(span)
        units = fplinalg.unit_vectors(n)
        for e in units:
            span.insert(e)
        q_mat = fp_from_columns(p, [span.coords(e)[r:] for e in units], n - r)
        sec = fp_from_columns(p, span.basis[r:], n)
        Q = ModuleObj(M.ring, n - r, actions=[q_mat.mul(a).mul(sec) for a in M.actions],
                      check=False)
        epi = ModMor(M, Q, q_mat)
        epi._cache["section"] = sec
        return epi

    def submodule(self, M, cols):
        """The subspace spanned by cols (independent columns, as
        `kernel_basis` gives), with every action solved on it in one system
        w X = [a_1 w | ... | a_d w] (one span of w's columns).

        K is built unchecked: w is injective and w.x_a = a.w holds exactly
        for every basis element a, so x_a.x_b and the structure-constant
        sum agree after w, hence before it, and the unit acts as 1.  The
        inclusion is still a checked map."""
        p, k = self.p, len(cols)
        w = fp_from_columns(p, cols, M.gens)
        images = self.from_blocks(M.gens, k * len(M.actions),
                                  [(0, a * k, act.mul(w)) for a, act in enumerate(M.actions)])
        x = fplinalg.solve_matrix(w, images)
        if x is None:
            raise ExactnessError("kernel subspace must be action-invariant")
        actions = [x.submatrix(range(k), range(a * k, (a + 1) * k))
                   for a in range(self.n_actions)]
        K = ModuleObj(M.ring, k, actions=actions, check=False)
        return K, ModMor(K, M, w)

    def generators(self, M):
        return self.minimal_generators(M)

    def invariant_factors(self, M):
        raise ShapeError("invariant factors need an integer module")

    def simplify(self, M):
        raise ShapeError("simplify needs an integer module")

    def fp_dimension(self, M):
        return M.gens

    def minimal_generators(self, M):
        """A greedy module generating set, scanning the basis in order.
        Deterministic; not guaranteed minimal, but small."""
        chosen = []
        span = fplinalg.Span(self.p, M.gens)
        for v in fplinalg.unit_vectors(M.gens):
            if span.contains(v):
                continue
            chosen.append(v)
            for act in M.actions:
                span.insert(act.mul_vec(v))
        return chosen

    def describe(self, M):
        return f"dim {M.gens} over {M.ring.label}" if M.gens else "0"

    def coefficient_range(self, bound):
        return 0, self.p - 1

    def base_change_epi(self, rm, M):
        """The cover S (x)_{F_p} M, onto free_module(S, k) when M is free of
        rank k (`_free_base_change`), and otherwise by `quotient` modulo
        s.rm(a) (x) x - s (x) a.x."""
        S, ident = rm.target, self.identity(M.gens)
        actions = [lam.kron(ident) for lam in S.regular]
        cover = ModuleObj(S, S.dim * M.gens, actions=actions, check=False)
        if M.free_rank is not None:
            return _free_base_change(rm, M, cover)
        cols = []
        for image, act in zip(rm.images, M.actions):
            m = S.right_mult_matrix(image).kron(ident).add(
                self.base_change_lift(rm, act).scale(-1))
            cols.extend(m.col(j) for j in range(m.cols))
        return cover.ops.quotient(cover, cols)

    def base_change_lift(self, rm, matrix):
        return self.identity(rm.target.dim).kron(matrix)

    # Over an F_p-algebra a module has no relations, so a map is an
    # F_p-linear map of its generator coordinates and every verdict is a
    # rank count (rank-nullity), complete and exact: f is mono iff
    # rank f = dim source, epi iff rank f = dim target, and, given
    # g . f = 0 (so im f <= ker g), exact at M iff
    # rank f = dim ker g = dim M - rank g.

    def rank(self, f):
        """The rank of f's matrix, kept in f's own cache."""
        if "rank" not in f._cache:
            f._cache["rank"] = fplinalg.rank(f.matrix)
        return f._cache["rank"]

    def is_mono(self, f):
        return self.rank(f) == f.source.gens

    def is_epi(self, f):
        return self.rank(f) == f.target.gens

    def exact_at(self, f, g):
        return self.rank(f) + self.rank(g) == f.target.gens


def _free_base_change(rm, M: ModuleObj, cover: ModuleObj) -> ModMor:
    """S (x)_R R^k = S^k: the epi from the cover S (x)_{F_p} M onto
    free_module(S, k), for M in the layout of `free_module` (copy j of R on
    coordinates j.dim R onwards), sending s (x) r.e_j to s.rm(r) in copy j.
    Its section sends e_t in copy j to e_t (x) 1.e_j, i.e. the sum over r
    of unit_r . (e_t (x) r.e_j).  The epi is a checked map."""
    S, R, k = rm.target, rm.source, M.free_rank
    ds, n = S.dim, M.gens
    rights = [S.right_mult_matrix(image) for image in rm.images]
    cols = []
    for s in range(ds):  # cover coordinate s.n + j.dim R + r is s (x) r.e_j
        for j in range(k):
            for right in rights:
                col = [0] * (k * ds)
                col[j * ds:(j + 1) * ds] = right.col(s)
                cols.append(col)
    sec = []
    for j in range(k):
        for t in range(ds):
            col = [0] * (ds * n)
            col[t * n + j * R.dim: t * n + (j + 1) * R.dim] = R.unit
            sec.append(col)
    ops = cover.ops
    epi = ModMor(cover, free_module(S, k), ops.from_columns(cols, k * ds))
    epi._cache["section"] = ops.from_columns(sec, ds * n)
    return epi


_INTEGER_OPS = _IntegerOps()


def ring_ops(ring: Ring):
    """The ops object holding everything that differs between the rings:
    one per ring, built on first use and kept on the ring."""
    if ring._ops is None:
        ring._ops = _INTEGER_OPS if ring.is_integers else _AlgebraOps(ring)
    return ring._ops


class ModuleObj:
    """A finitely presented module over a `Ring`: `gens` generators, the
    relation rows `rels` (integers only) and one action matrix per algebra
    basis element (F_p-algebras only)."""

    def __init__(self, ring: Ring, gens, rels=(), actions=(), free_rank=None,
                 check=True):
        self.ring = ring
        self.ops = ring_ops(ring)
        self.gens = gens
        self.rels = tuple(tuple(r) for r in rels)
        self.actions = tuple(actions)
        self.free_rank = free_rank
        self._cache = {}
        if self.rels and not self.ops.has_relations:
            raise ShapeError("a module over an F_p-algebra has no relations")
        for r in self.rels:
            if len(r) != gens:
                raise ShapeError("relation length must equal generator count")
        if len(self.actions) != self.ops.n_actions:
            raise ShapeError(f"need {self.ops.n_actions} action matrices (one per "
                             f"algebra basis element), got {len(self.actions)}")
        for m in self.actions:
            if m.rows != gens or m.cols != gens or m.p != ring.p:
                raise ShapeError("action matrix has wrong shape")
        if check and gens and self.actions:
            self._check_actions()
        if check and free_rank is not None and self != free_module(ring, free_rank):
            raise ShapeError("a module marked free must have the layout of free_module")

    @property
    def dim(self):
        """The number of generators: the F_p dimension over an algebra."""
        return self.gens

    def _check_actions(self):
        ring, n = self.ring, self.gens
        unit_action = FpMatrix.zeros(ring.p, n, n)
        for a, coeff in enumerate(ring.unit):
            if coeff:
                unit_action = unit_action.add(self.actions[a].scale(coeff))
        if unit_action != FpMatrix.identity(ring.p, n):
            raise MorphismError("unit of the algebra must act as the identity")
        for a in range(ring.dim):
            for b in range(ring.dim):
                lhs = self.actions[a].mul(self.actions[b])
                rhs = FpMatrix.zeros(ring.p, n, n)
                for e, coeff in enumerate(ring.mult[a][b]):
                    if coeff:
                        rhs = rhs.add(self.actions[e].scale(coeff))
                if lhs != rhs:
                    raise MorphismError(
                        f"actions violate the structure constants at {(a, b)}")

    # -- presentation data (integer case) --------------------------------

    def _rel_cols(self) -> IntMatrix:
        if "rel_cols" not in self._cache:
            self._cache["rel_cols"] = from_columns([list(r) for r in self.rels], self.gens)
        return self._cache["rel_cols"]

    def _pres_snf(self):
        if "pres_snf" not in self._cache:
            self._cache["pres_snf"] = intlinalg.snf(self._rel_cols())
        return self._cache["pres_snf"]

    def _uinv(self) -> IntMatrix:
        if "uinv" not in self._cache:
            self._cache["uinv"] = self._pres_snf().u_inverse()
        return self._cache["uinv"]

    def in_relations(self, vec) -> bool:
        """Is this generator-coordinate vector zero in the module?"""
        return not any(self.ops.residue(self, vec))

    def invariant_factors(self):
        """(torsion factors > 1, free rank) for integer modules."""
        return self.ops.invariant_factors(self)

    def is_zero(self) -> bool:
        """Does every generator lie in the relations?"""
        return all(self.in_relations(e) for e in fplinalg.unit_vectors(self.gens))

    def describe(self) -> str:
        return self.ops.describe(self)

    # -- the abelian interface (see `abelian`) -----------------------------

    def identity(self) -> "ModMor":
        return identity_mor(self)

    def zero_to(self, B: "ModuleObj") -> "ModMor":
        return zero_mor(self, B)

    def zero_object(self) -> "ModuleObj":
        return zero_module(self.ring)

    def biproduct(self, B: "ModuleObj") -> abelian.BiproductData:
        return biproduct(self, B)

    def free_cover(self):
        return free_cover(self)

    # A module is a diagram over the one-object category: one unknown
    # matrix and no naturality squares (see `hom_space`).

    def hom_unknowns(self, system: "HomSystem", B: "ModuleObj") -> list:
        return [system.unknown(self, B)]

    def naturality(self, system: "HomSystem", var, B: "ModuleObj"):
        """No rows: the one object has only its identity."""

    def mor_from_matrices(self, B: "ModuleObj", mats) -> "ModMor":
        (m,) = mats
        return ModMor(self, B, m)

    def fp_dimension(self) -> int:
        """Underlying F_p dimension (algebra case only)."""
        return self.ops.fp_dimension(self)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ModuleObj) or self.ring != other.ring:
            return False
        return (self.gens == other.gens and self.rels == other.rels
                and self.actions == other.actions)

    def __repr__(self):
        return f"ModuleObj({self.describe()})"


def cyclic(n) -> ModuleObj:
    """Z/n (n = 0 gives Z)."""
    return ModuleObj(ZZ, gens=1, rels=[[n]] if n else [])


def free_module(ring: Ring, rank: int) -> ModuleObj:
    """rank copies of the ring, each acting on itself by left
    multiplication (block-diagonal copies of `ring.regular`; none over
    Z)."""
    ops = ring_ops(ring)
    actions = [ops.identity(rank).kron(lam) for lam in ring.regular]
    return ModuleObj(ring, rank * len(ops.unit), actions=actions, free_rank=rank,
                     check=False)


def free_generator_columns(P: ModuleObj):
    """Coordinate columns of the module generators of a free module."""
    if P.free_rank is None:
        raise ShapeError("module is not marked free")
    unit = P.ops.unit
    cols = []
    for j in range(P.free_rank):
        v = [0] * P.gens
        v[j * len(unit):(j + 1) * len(unit)] = unit
        cols.append(v)
    return cols


def trivial_module(ring: Ring) -> ModuleObj:
    """One-dimensional module where every basis element acts as 1.

    Valid for group algebras (and any algebra whose basis maps to 1 under
    an augmentation); construction-time checks reject anything else, and
    the integers raise a RingError (`rings.require_algebra`).
    """
    one = FpMatrix(require_algebra(ring, "the trivial module").p, 1, 1, [[1]])
    return ModuleObj(ring, 1, actions=[one] * ring.dim)


def ring_as_module(ring: Ring) -> ModuleObj:
    return free_module(ring, 1)


class ModMor:
    """Morphism of modules, given by its matrix on generators."""

    def __init__(self, source: ModuleObj, target: ModuleObj, matrix, check=True):
        if source.ring != target.ring:
            raise RingMismatchError("morphism endpoints over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.ops = source.ops
        if not isinstance(matrix, self.ops.matrix_type):
            matrix = self.ops.from_rows(matrix)
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise ShapeError(
                f"matrix must be {target.gens}x{source.gens}, got "
                f"{matrix.rows}x{matrix.cols}")
        self.matrix = matrix
        self._cache = {}
        if check:
            self._check()

    def _check(self):
        """Relations go into relations, and the map commutes with the action
        of every algebra generator (`Ring.algebra_generators`).  That is the
        full check: both endpoints' actions are representations, so the x
        with f.a_x = b_x.f form a subalgebra, which holds the generators
        and therefore everything."""
        for rel in self.source.rels:
            img = self.matrix.mul_vec(list(rel))
            if not self.target.in_relations(img):
                raise MorphismError(
                    f"relation {list(rel)} is not sent into target relations")
        if not (self.source.gens and self.target.gens):
            return
        src, tgt = self.source.actions, self.target.actions
        for a in self.ring.algebra_generators:
            if self.matrix.mul(src[a]) != tgt[a].mul(self.matrix):
                raise MorphismError(f"map does not commute with action {a}")

    def then(self, other: "ModMor") -> "ModMor":
        """self followed by other (i.e. other compose self)."""
        if self.target != other.source:
            raise ShapeError("morphisms are not composable")
        return ModMor(self.source, other.target, other.matrix.mul(self.matrix),
                      check=False)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeError("morphism sum needs equal endpoints")
        return ModMor(self.source, self.target, self.matrix.add(other.matrix),
                      check=False)

    def __neg__(self):
        return ModMor(self.source, self.target, self.matrix.scale(-1), check=False)

    def __sub__(self, other):
        return self + (-other)

    # -- the abelian interface (see `abelian`) -----------------------------

    def kernel(self):
        return kernel(self)

    def cokernel(self):
        return cokernel(self)

    def factor(self, h: "ModMor") -> "ModMor":
        return factor_through_mono(self, h)

    def cofactor(self, w: "ModMor") -> "ModMor":
        return cofactor_through_epi(self, w)

    def inverse(self) -> "ModMor":
        return iso_inverse(self)

    def lift(self, e: "ModMor") -> "ModMor":
        return lift_through_epi(self, e)

    def is_exact_at(self, g: "ModMor") -> bool:
        return is_exact_at(self, g)

    def is_mono(self) -> bool:
        return is_mono(self)

    def is_epi(self) -> bool:
        return is_epi(self)

    def is_split_exact(self, p: "ModMor", r: "ModMor", s: "ModMor") -> bool:
        return is_split_exact(self, p, r, s)

    def matrices(self) -> list:
        return [self.matrix]

    def is_zero(self) -> bool:
        cols = self.matrix.cols
        return all(self.target.in_relations(self.matrix.col(j)) for j in range(cols))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ModMor):
            return False
        if self.source != other.source or self.target != other.target:
            return False
        return same_map_into(self.target, self.matrix, other.matrix)

    def __repr__(self):
        return f"ModMor({self.source.describe()} -> {self.target.describe()})"


def same_map_into(T: ModuleObj, a, b) -> bool:
    """Do the equal-shaped matrices a and b give the same map into T?  The
    equality rule for morphisms, written once: identical matrices agree,
    and otherwise every column of a - b must lie in T's relations.  Builds
    no morphism."""
    if a == b:
        return True
    if not T.ops.has_relations:
        return False  # entries stored reduced, and no relations to absorb a - b
    a, b = a.data, b.data
    return all(T.in_relations([x[j] - y[j] for x, y in zip(a, b)])
               for j in range(len(a[0])))


def identity_mor(A: ModuleObj) -> ModMor:
    return ModMor(A, A, A.ops.identity(A.gens), check=False)


def zero_mor(A: ModuleObj, B: ModuleObj) -> ModMor:
    return ModMor(A, B, A.ops.zeros(B.gens, A.gens), check=False)


# -- simplification, kernels, cokernels, factorisations ---------------------


def simplify(M: ModuleObj):
    """Invariant-factor presentation plus the two canonical isomorphisms.

    Returns (M', to_simple: M -> M', from_simple: M' -> M) with
    to_simple . from_simple the identity matrix on M'.
    """
    return M.ops.simplify(M)


def no_generators(ring: Ring) -> ModuleObj:
    """The module with no generators, as `submodule` and `quotient` present
    it: no relations, and 0x0 actions over an F_p-algebra."""
    ops = ring_ops(ring)
    return ModuleObj(ring, 0, actions=[ops.zeros(0, 0)] * ops.n_actions, check=False)


def forced_epi(B: ModuleObj, Q: ModuleObj) -> ModMor:
    """The 0x0 epi of B onto Q, both with no generators, with its section."""
    epi = zero_mor(B, Q)
    epi._cache["section"] = epi.matrix
    return epi


def kernel(f: ModMor):
    """(K, mono) with f . mono = 0, universal among such: f's preimage
    lattice (the x with f.matrix x in f.target's relations), presented as
    a submodule, or forced by shape (`no_generators`) if f.source has none."""
    if not f.source.gens:
        K = no_generators(f.ring)
        return K, zero_mor(K, f.source)
    return f.ops.submodule(f.source, f.ops.preimage_lattice(f))


def cokernel(f: ModMor):
    """(Q, epi) with epi . f = 0, couniversal; forced if f.target has no generators."""
    if not f.target.gens:
        Q = no_generators(f.ring)
        return Q, forced_epi(f.target, Q)
    epi = f.ops.quotient(f.target, [f.matrix.col(j) for j in range(f.matrix.cols)])
    return epi.target, epi


def _preimages(f: ModMor, vectors, error):
    """One x with f.matrix x = b (modulo f.target's relations) per b; no
    solver is built when there is no b."""
    if not vectors:
        return []
    solve = f.ops.solver(f)
    out = []
    for b in vectors:
        x = solve(b)
        if x is None:
            raise MorphismError(error)
        out.append(x)
    return out


def section(epi: ModMor):
    """A matrix s with epi.matrix . s the identity map of epi.target: the
    one `quotient` built with the epi, or else one preimage per generator
    (not kept)."""
    if "section" in epi._cache:
        return epi._cache["section"]
    cols = _preimages(epi, fplinalg.unit_vectors(epi.target.gens),
                      "map is not an epimorphism")
    return epi.ops.from_columns(cols, epi.source.gens)


def factor_through_mono(mono: ModMor, h: ModMor) -> ModMor:
    """The unique u with mono . u = h; error if h misses the subobject."""
    if h.target != mono.target:
        raise ShapeError("factor_through_mono endpoints do not match")
    cols = _preimages(mono, [h.matrix.col(j) for j in range(h.source.gens)],
                      "map does not factor through the mono")
    u = ModMor(h.source, mono.source, mono.ops.from_columns(cols, mono.source.gens))
    if not u.then(mono) == h:
        raise ExactnessError("factorisation through the mono does not recover the map")
    return u


def cofactor_through_epi(epi: ModMor, w: ModMor) -> ModMor:
    """The unique v with v . epi = w; requires w to kill ker(epi)."""
    if w.source != epi.source:
        raise ShapeError("cofactor_through_epi endpoints do not match")
    v = ModMor(epi.target, w.target, w.matrix.mul(section(epi)))
    if not epi.then(v) == w:
        raise MorphismError("map does not descend along the epi")
    return v


def iso_inverse(f: ModMor) -> ModMor:
    """Inverse of an isomorphism: its section, checked to be two-sided."""
    inv = ModMor(f.target, f.source, section(f))
    if not (f.then(inv) == identity_mor(f.source)
            and inv.then(f) == identity_mor(f.target)):
        raise MorphismError("morphism is not an isomorphism")
    return inv


def is_exact_at(f: ModMor, g: ModMor) -> bool:
    """Exactness at the middle of f, g, i.e. ker g <= im f: after the
    g . f = 0 test (`NonzeroCompositeError` otherwise), the ring's ops
    decide it, by solving each generator of g's preimage lattice against
    f modulo M's relations (Z) or by rank f + rank g = dim M
    (F_p-algebra); no homology is built.  Neither is the construction of
    `abelian.exact_at` (ker g -> coker f is zero), so
    `diagrams.d_exactness_report`, which takes its componentwise verdict
    through this name, compares two criteria."""
    abelian.require_complex(f, g)
    return f.ops.exact_at(f, g)


def is_mono(f: ModMor) -> bool:
    """ker f = 0, decided by the ring's ops (f's preimage lattice inside
    the source's relations over Z, a rank over an F_p-algebra)."""
    return f.ops.is_mono(f)


def is_epi(f: ModMor) -> bool:
    """coker f = 0, decided by the ring's ops (f's columns and the
    target's relations span, over Z; a rank over an F_p-algebra)."""
    return f.ops.is_epi(f)


def is_split_exact(i: ModMor, p: ModMor, r: ModMor, s: ModMor) -> bool:
    """Do r: M -> L and s: N -> M split 0 -> L -> M -> N -> 0 (i: L -> M,
    p: M -> N)?  The certificate of the splitting lemma (Weibel, An
    Introduction to Homological Algebra, ch. 1), tested on the matrices:
    r.i = 1_L, p.s = 1_N, p.i = 0 and i.r + s.p = 1_M.  These four prove
    the sequence exact: i is mono and p is epi (each has a one-sided
    inverse), im i <= ker p, and p(m) = 0 gives m = i(r(m)) + s(p(m)) =
    i(r(m)).  Wrong endpoints raise `ShapeError`."""
    L, M, N = i.source, i.target, p.target
    if not (p.source == M and r.source == M and r.target == L
            and s.source == N and s.target == M):
        raise ShapeError("splitting maps have the wrong endpoints")
    ops, im, pm, rm, sm = i.ops, i.matrix, p.matrix, r.matrix, s.matrix
    return (same_map_into(L, rm.mul(im), ops.identity(L.gens))
            and same_map_into(N, pm.mul(sm), ops.identity(N.gens))
            and same_map_into(N, pm.mul(im), ops.zeros(N.gens, L.gens))
            and same_map_into(M, im.mul(rm).add(sm.mul(pm)), ops.identity(M.gens)))


# -- biproducts ------------------------------------------------------------


def biproduct(A: ModuleObj, B: ModuleObj) -> abelian.BiproductData:
    nb = nary_biproduct([A, B])
    return abelian.BiproductData(nb.obj, *nb.injs, *nb.projs)


@dataclass
class NaryBiproduct:
    obj: ModuleObj
    injs: list
    projs: list


def zero_module(ring: Ring) -> ModuleObj:
    return free_module(ring, 0)


def nary_biproduct(mods, ring=None) -> NaryBiproduct:
    """Biproduct of a list of modules with all injections/projections.

    An empty list gives the zero module (ring then required).  Relations
    and action matrices are placed block-diagonally.
    """
    mods = list(mods)
    if not mods:
        if ring is None:
            raise ShapeError("the empty biproduct needs a ring")
        return NaryBiproduct(zero_module(ring), [], [])
    ring = mods[0].ring
    if any(m.ring != ring for m in mods):
        raise RingMismatchError("biproduct needs a common ring")
    ops = mods[0].ops
    sizes = [m.gens for m in mods]
    offsets = [sum(sizes[:k]) for k in range(len(mods))]
    total = sum(sizes)
    rels = []
    for off, m in zip(offsets, mods):
        for r in m.rels:
            row = [0] * total
            row[off: off + m.gens] = r
            rels.append(row)
    actions = [ops.from_blocks(total, total, [(off, off, b) for off, b in zip(offsets, blocks)])
               for blocks in zip(*(m.actions for m in mods))]
    free_ranks = [m.free_rank for m in mods]
    fr = None if None in free_ranks else sum(free_ranks)
    obj = ModuleObj(ring, total, rels, actions, free_rank=fr, check=False)
    injs, projs = [], []
    for off, m in zip(offsets, mods):
        ident = ops.identity(m.gens)
        injs.append(ModMor(m, obj, ops.from_blocks(total, m.gens, [(off, 0, ident)]),
                           check=False))
        projs.append(ModMor(obj, m, ops.from_blocks(m.gens, total, [(0, off, ident)]),
                            check=False))
    return NaryBiproduct(obj, injs, projs)


# -- free covers and lifting ----------------------------------------------


def free_cover(M: ModuleObj):
    """(P, epi) with P free on `ops.generators(M)`: the presentation's
    generators (integers) or a greedy generating set (algebras)."""
    gens_cols = M.ops.generators(M)
    P = free_module(M.ring, len(gens_cols))
    cols = [c for v in gens_cols for c in M.ops.free_images(M, v)]
    return P, ModMor(P, M, M.ops.from_columns(cols, M.gens))


def lift_through_epi(g: ModMor, e: ModMor) -> ModMor:
    """h with e . h = g, for g out of a free module and e an epi."""
    P = g.source
    if P.free_rank is None:
        raise ShapeError("lifting needs a free source")
    if g.target != e.target:
        raise ShapeError("lift endpoints do not match")
    targets = [g.matrix.mul_vec(gc) for gc in free_generator_columns(P)]
    cols = []
    for x in _preimages(e, targets, "cannot lift through the (non-)epi"):
        # column order must follow the free basis (generator, algebra element)
        cols.extend(e.ops.free_images(e.source, x))
    h = ModMor(P, e.source, e.ops.from_columns(cols, e.source.gens))
    if not h.then(e) == g:
        raise ExactnessError("lift through the epi does not recover the map")
    return h


# -- hom spaces, in C and C^I ---------------------------------------------


class HomSystem:
    """Homogeneous linear system whose unknowns are module matrices.

    `unknown(S, T)` adds the entries of a matrix S -> T, row by row, as
    unknowns.  `well_defined(k)` asks unknown k to be a morphism: each
    relation of S goes into T's relations and the action of each algebra
    generator (`Ring.algebra_generators`) commutes, which is the same
    solution space as commuting with every basis element (see `ModMor`).
    `commute(x, A, B, y)` asks x.A = B.y as maps into x's target.  Every
    equation holds modulo its target's relations, through one auxiliary
    column per relation (integers); over an F_p-algebra it is strict.
    Rows and columns come in the order they were asked for, so equal
    requests give byte-identical systems.
    """

    def __init__(self, ring: Ring):
        self.ops = ring_ops(ring)
        self.blocks = []  # (source, target, first column)
        self.rows = []  # {column: coefficient}
        self.aux = []  # per auxiliary column: [(row, coefficient)]
        self.width = 0

    def unknown(self, S: ModuleObj, T: ModuleObj) -> int:
        self.blocks.append((S, T, self.width))
        self.width += T.gens * S.gens
        return len(self.blocks) - 1

    def _var(self, k, i, j):
        S, _, off = self.blocks[k]
        return off + i * S.gens + j

    def _new_rows(self, T):
        """One row per generator of T, plus T's relations as aux columns."""
        base = len(self.rows)
        self.rows.extend({} for _ in range(T.gens))
        for rel in T.rels:
            self.aux.append([(base + i, -rel[i]) for i in range(T.gens)])
        return self.rows[base:]

    def well_defined(self, k):
        S, T, _ = self.blocks[k]
        for rel in S.rels:
            for i, row in enumerate(self._new_rows(T)):
                for j, c in enumerate(rel):
                    if c:
                        row[self._var(k, i, j)] = c
        for a in S.ring.algebra_generators:
            self.commute(k, S.actions[a], T.actions[a], k)

    def commute(self, x, A, B, y):
        """x.A - B.y = 0 for unknowns x, y and known matrices A, B."""
        Sx, Tx, _ = self.blocks[x]
        Sy, Ty, _ = self.blocks[y]
        b_cols = [B.col(k) for k in range(Ty.gens)]
        for g in range(Sy.gens):
            a_col = A.col(g)
            for r, row in enumerate(self._new_rows(Tx)):
                for k in range(Sx.gens):
                    if a_col[k]:
                        key = self._var(x, r, k)
                        row[key] = row.get(key, 0) + a_col[k]
                for k in range(Ty.gens):
                    if b_cols[k][r]:
                        key = self._var(y, k, g)
                        row[key] = row.get(key, 0) - b_cols[k][r]

    def solve(self):
        """One list of unknown matrices per kernel basis vector."""
        width = self.width + len(self.aux)
        data = [[0] * width for _ in self.rows]
        for dense, row in zip(data, self.rows):
            for c, v in row.items():
                dense[c] = v
        for a, entries in enumerate(self.aux):
            for r, coeff in entries:
                data[r][self.width + a] = coeff
        if not data:
            data = [[0] * width]
        out = []
        for v in self.ops.kernel_basis(self.ops.matrix(len(data), width, data)):
            out.append([self.ops.matrix(T.gens, S.gens,
                                        [v[off + i * S.gens: off + (i + 1) * S.gens]
                                         for i in range(T.gens)])
                        for S, T, off in self.blocks])
        return out


def hom_space(pairs, squares=()):
    """Generators of the tuples of maps (u_0: A_0 -> B_0, u_1: ...), one
    per pair (A_k, B_k) of `pairs`, with u_y . f = g . u_x for every
    (x, f, g, y) in `squares`; the all-zero tuple is dropped.

    The pairs are modules or diagrams alike: each object lays out its own
    unknowns (`hom_unknowns`, one per index object of a diagram, in object
    order) and naturality rows (`naturality`, none for a module), and
    rebuilds a checked map from solved matrices (`mor_from_matrices`); a
    map gives its matrices in the same order (`matrices`).  The system is
    asked for in one order: every unknown, then every well-definedness
    block, then every naturality square, then the squares, object by
    object."""
    ring = pairs[0][0].ring
    if any(X.ring != ring for pair in pairs for X in pair):
        raise RingMismatchError("hom needs a common ring")
    system = HomSystem(ring)
    var = [A.hom_unknowns(system, B) for A, B in pairs]
    for ks in var:
        for k in ks:
            system.well_defined(k)
    for (A, B), ks in zip(pairs, var):
        A.naturality(system, ks, B)
    for x, f, g, y in squares:
        for kx, ky, fm, gm in zip(var[x], var[y], f.matrices(), g.matrices()):
            system.commute(ky, fm, gm, kx)
    out = []
    for mats in system.solve():
        mors, start = [], 0
        for (A, B), ks in zip(pairs, var):
            mors.append(A.mor_from_matrices(B, mats[start:start + len(ks)]))
            start += len(ks)
        if not all(m.is_zero() for m in mors):
            out.append(tuple(mors))
    return out


def hom_basis(A, B):
    """Generators of the nonzero maps A -> B, of modules or of diagrams."""
    return [u for u, in hom_space([(A, B)])]
