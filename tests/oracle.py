"""Independent oracles for the test suite.

These deliberately avoid the library's computation paths: invariant
factors from gcds of minors, determinants by fraction-free elimination,
kernels by exhaustive search, homology of hand-built periodic resolutions
by rank counting, the connecting map by an element-by-element zig-zag
(with the element calculus it needs: `Element`, `apply`, `preimage` and
`enumerate_elements`),
the maps of spectral sequences of a diagram carried page by page in
canonical coordinates, one module spectral sequence per index object,
morphisms checked against every algebra basis element, hom spaces solved
with a commutation row block per basis element, base change of every
module by the quotient of its cover, and the mono, epi and exactness
verdicts by building the kernel, cokernel and homology they ask about,
the dense F_p linear algebra (list rows reduced mod p at every step)
that the packed F_2 rows of `fplinalg` are tested against, and the
general kernel and cokernel bodies (elimination for modules, one
factorisation per index morphism for diagrams) that the answers forced by
shape are tested against, the abutment filtration of a spectral
sequence with the cycles of each filtration solved from its own prefix,
the diagram checks that compare every identity, composite and naturality
square whatever its shape, the horseshoe that builds every degree up
to n_max, past the end of both outer resolutions too, and the
Cartan-Eilenberg grid and spectral-sequence checks that compute every
column, E2 row and acyclicity witness from scratch, equal or not, and
the workbench parser and printer with one hand-written branch per
declaration form and functor constructor.
"""

import weakref
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, prod

from functor_homology import abelian, fplinalg, functors
from functor_homology.complexes import SES, homology_at, induced_on_homology
from functor_homology.derived import (HorseshoeData, Resolution, derived_data, horseshoe,
                                      lift_resolution_map, resolve)
from functor_homology.diagrams import DiagMor, Diagram
from functor_homology.dsl import (TASK_KINDS, Decl, Diagnostic, FunctorExpr, Token,
                                  WorkbenchDoc, _tokenize)
from functor_homology.errors import ExactnessError, NonzeroCompositeError, ShapeError
from functor_homology.fplinalg import (FpMatrix, Span, fp_from_columns, rank,
                                       unit_vectors)
from functor_homology.intlinalg import IntMatrix
from functor_homology.modules import HomSystem, ModMor, ModuleObj, same_map_into
from functor_homology.spectral import (AcyclicityReport, CEData, DoubleComplex,
                                       GrothendieckData, SSResult, _class_map,
                                       grothendieck_ss, ss_pages)


def minors_gcd(data, k):
    """gcd of all k x k minors of an integer matrix (list of rows)."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            g = gcd(g, _det([[data[i][j] for j in csel] for i in rsel]))
    return abs(g)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def invariant_factors_by_minors(data):
    """Nonzero invariant factors d_1 | d_2 | ... via d_1...d_k = gcd of
    k x k minors."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors_gcd(data, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def det_sign_of_unimodular(M: IntMatrix) -> int:
    """Determinant of a matrix known to be unimodular (+1 or -1).

    Fraction-free Gaussian elimination, independent of the Smith normal
    form; the unimodularity oracle for its U and V.
    """
    n = M.rows
    if n != M.cols:
        raise ShapeError("only a square matrix can be unimodular")
    a = [list(r) for r in M.data]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    d = sign * prev
    if d not in (1, -1):
        raise ExactnessError("matrix was not unimodular")
    return d


def brute_solve_int(data, b, box=6):
    """Search A x = b over a small coordinate box; None if not found."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    for x in product(range(-box, box + 1), repeat=cols):
        if all(sum(data[i][j] * x[j] for j in range(cols)) == b[i]
               for i in range(rows)):
            return list(x)
    return None


def enumerate_fp_kernel(p, data):
    """All kernel vectors of a matrix over F_p by exhaustion."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    out = []
    for x in product(range(p), repeat=cols):
        if all(sum(data[i][j] * x[j] for j in range(cols)) % p == 0
               for i in range(rows)):
            out.append(list(x))
    return out


# -- the dense F_p reference ---------------------------------------------------
#
# The bodies `fplinalg` had before F_2 rows were packed into ints: every
# matrix a list of row lists with entries in [0, p), every operation
# reducing mod p as it goes.  Shapes travel with the data (rows x cols).


def dense_mul(p, a, b, cols):
    """a times b, for b with `cols` columns."""
    out = [[0] * cols for _ in range(len(a))]
    for ai, oi in zip(a, out):
        for k, x in enumerate(ai):
            if x:
                for j in range(cols):
                    oi[j] = (oi[j] + x * b[k][j]) % p
    return out


def dense_mul_vec(p, a, v):
    return [sum(r[j] * v[j] for j in range(len(v))) % p for r in a]


def dense_add(p, a, b):
    return [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_scale(p, a, c):
    return [[(c * x) % p for x in r] for r in a]


def dense_col(a, j):
    return [r[j] for r in a]


def dense_kron(p, a, b, a_cols, b_cols):
    out = [[0] * (a_cols * b_cols) for _ in range(len(a) * len(b))]
    for i, ra in enumerate(a):
        for k in range(a_cols):
            if ra[k]:
                for j, rb in enumerate(b):
                    for l in range(b_cols):
                        out[i * len(b) + j][k * b_cols + l] = ra[k] * rb[l] % p
    return out


def dense_block_diagonal(blocks, sizes):
    """Blocks (row lists) of the given square sizes down the diagonal."""
    total = sum(sizes)
    out = [[0] * total for _ in range(total)]
    off = 0
    for block, n in zip(blocks, sizes):
        for i, row in enumerate(block):
            out[off + i][off: off + n] = row
        off += n
    return out


def dense_from_columns(p, cols, rows):
    return [[c[i] % p for c in cols] for i in range(rows)]


def dense_rref(p, a, cols):
    """(R, pivot columns) of the rows a with `cols` columns."""
    R = [list(r) for r in a]
    pivots = []
    r = 0
    for c in range(cols):
        if r >= len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [(x * inv) % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def dense_kernel_basis(p, a, cols):
    R, pivots = dense_rref(p, a, cols)
    basis = []
    for f in (j for j in range(cols) if j not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r][f]) % p
        basis.append(v)
    return basis


class DenseSpan:
    """`fplinalg.Span` with list rows: echelon row k is basis[k] reduced by
    rows 0..k-1 and scaled to a leading 1, keeping its reduction factors
    and scale, which unfold into coordinates."""

    def __init__(self, p, dim, vectors=()):
        self.p, self.dim, self.basis = p, dim, []
        self._rows, self._factors, self._scales = [], [], []
        for v in vectors:
            self.insert(v)

    def _reduce(self, v):
        if len(v) != self.dim:
            raise ShapeError(f"{len(v)}-vector in a span inside F_p^{self.dim}")
        p = self.p
        w = [x % p for x in v]
        factors = []
        for c, row in self._rows:
            f = w[c]
            factors.append(f)
            if f:
                w[c:] = [(x - f * y) % p for x, y in zip(w[c:], row)]
        return w, factors

    def insert(self, v):
        w, factors = self._reduce(v)
        c = next((j for j, x in enumerate(w) if x), None)
        if c is None:
            return False
        p = self.p
        scale = pow(w[c], p - 2, p)
        self._rows.append((c, [(x * scale) % p for x in w[c:]]))
        self._factors.append(factors)
        self._scales.append(scale)
        self.basis.append(v)
        return True

    def contains(self, v):
        return not any(self._reduce(v)[0])

    def coords(self, v):
        w, factors = self._reduce(v)
        if any(w):
            return None
        p = self.p
        out = [0] * len(factors)
        for k in range(len(factors) - 1, -1, -1):
            a = factors[k] * self._scales[k] % p
            if a:
                out[k] = a
                for j, f in enumerate(self._factors[k]):
                    if f:
                        factors[j] = (factors[j] - a * f) % p
        return out


def dense_solver(p, a, cols):
    span = DenseSpan(p, len(a))
    pivots = [j for j in range(cols) if span.insert(dense_col(a, j))]

    def solve_one(b):
        c = span.coords(b)
        if c is None:
            return None
        x = [0] * cols
        for j, cj in zip(pivots, c):
            x[j] = cj
        return x

    return solve_one


def dense_solve_matrix(p, a, a_cols, b, b_cols):
    solve_one = dense_solver(p, a, a_cols)
    cols = [solve_one(dense_col(b, j)) for j in range(b_cols)]
    return None if None in cols else dense_from_columns(p, cols, a_cols)


def dense_inverse(p, a):
    n = len(a)
    return dense_solve_matrix(p, a, n, [[int(i == j) for j in range(n)] for i in range(n)], n)


def fp_complex_homology_dims(p, mats, dims):
    """dims of H_n for a chain complex given by matrices d_n: C_n -> C_{n-1}
    (mats[n] for 1 <= n <= N)."""
    out = {}
    N = len(dims) - 1
    for n in range(N + 1):
        dn_rank = rank(mats[n]) if n in mats else 0
        dn1_rank = rank(mats[n + 1]) if (n + 1) in mats else 0
        out[n] = dims[n] - dn_rank - dn1_rank
    return out


def cyclic_group_homology_dims(p, order, n_max):
    """dim H_n(C_order; F_p) from the explicit periodic resolution of the
    trivial module: alternating multiplication by (g - 1) and the norm."""
    from functor_homology.rings import cyclic_group_table, group_algebra

    ring = group_algebra(p, cyclic_group_table(order))
    d = ring.dim
    g_minus_1 = [0] * d
    g_minus_1[1] = 1
    unit = list(ring.unit)
    gm1 = [a - b for a, b in zip(g_minus_1, unit)]
    norm = [1] * d
    mul_gm1 = ring.left_mult_matrix([x % p for x in gm1])
    mul_norm = ring.left_mult_matrix(norm)
    # after applying coinvariants (F_p (x) -), each map becomes its
    # augmentation image: aug(g-1) = 0, aug(norm) = order
    aug_gm1 = FpMatrix(p, 1, 1, [[0]])
    aug_norm = FpMatrix(p, 1, 1, [[order % p]])
    dims = [1] * (n_max + 2)
    mats = {}
    for n in range(1, n_max + 2):
        mats[n] = aug_gm1 if n % 2 == 1 else aug_norm
    return fp_complex_homology_dims(p, mats, dims)


def product_c2_homology_dims(p, n_max):
    """dim H_n(C_2 x C_2; F_2) from the tensor of two periodic resolutions
    (rank counting on the total complex after coinvariants)."""
    assert p == 2
    # after coinvariants every differential of each periodic factor is 0
    # (aug(g-1) = 0, aug(norm) = 2 = 0 over F_2), so the total complex has
    # zero differentials and H_n has dimension (number of bidegrees) = n+1
    return {n: n + 1 for n in range(n_max + 1)}


class Element:
    """An element of a module, stored as generator coordinates."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: ModuleObj, coords):
        if len(coords) != parent.gens:
            raise ShapeError("coordinate length must equal generator count")
        self.parent = parent
        self.coords = tuple(coords)

    def normal_form(self):
        """Canonical coordinates: the residue modulo the relations, read
        back in the generator basis (over Z), or reduced mod p."""
        M = self.parent
        res = M.ops.residue(M, self.coords)
        return tuple(M._uinv().mul_vec(res) if M.ring.is_integers else res)

    def is_zero(self):
        return self.parent.in_relations(self.coords)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.parent == other.parent
                and self.normal_form() == other.normal_form())

    def _check_parent(self, other):
        if self.parent != other.parent:
            raise ShapeError("elements of different modules do not combine")

    def __add__(self, other):
        self._check_parent(other)
        return Element(self.parent, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check_parent(other)
        return Element(self.parent, [a - b for a, b in zip(self.coords, other.coords)])

    def __repr__(self):
        return f"Element({list(self.coords)} in {self.parent.describe()})"


def apply(f: ModMor, elt: Element) -> Element:
    """f(elt)."""
    if elt.parent != f.source:
        raise ShapeError("element is not in the source of the morphism")
    return Element(f.target, f.matrix.mul_vec(list(elt.coords)))


def preimage(f: ModMor, y: Element):
    """Some x with f(x) = y, or None when y is not in the image."""
    if y.parent != f.target:
        raise ShapeError("element is not in the target of the morphism")
    sol = f.ops.solver(f)(list(y.coords))
    return None if sol is None else Element(f.source, sol)


def enumerate_elements(A: ModuleObj, limit=4096):
    """All elements of a finite module (oracle-sized only): every residue
    tuple of the Smith basis, read back in generators (Z), or every
    coordinate vector (F_p)."""
    if A.ring.is_integers:
        if A.invariant_factors()[1]:
            raise ValueError("module is infinite")
        sizes, basis = [max(d, 1) for d in A._pres_snf().diagonal()], A._uinv()
    else:
        sizes, basis = [A.ring.p] * A.gens, A.ops.identity(A.gens)
    if prod(sizes) > limit:
        raise ValueError("module too large to enumerate")
    return [Element(A, basis.mul_vec(list(idx))) for idx in product(*map(range, sizes))]


def connecting_by_elements(sub, mid, quo, incl, proj, n):
    """delta_n: H_n(quo) -> H_{n-1}(sub) of a degreewise short exact
    sequence of module complexes (incl, proj: degree -> map), by the
    snake-lemma zig-zag on elements: for each generator of H_n(quo) pick a
    cycle, lift it to mid, apply d, pull back to sub, and take its class;
    every pick is a fresh single-vector `modules.preimage`."""
    sub_n = homology_at(quo, n)
    sub_l = homology_at(sub, n - 1)
    cols = []
    for t in range(sub_n.obj.gens):
        e = Element(sub_n.obj, [1 if k == t else 0 for k in range(sub_n.obj.gens)])
        z = apply(sub_n.mono, preimage(sub_n.epi, e))
        m = preimage(proj[n], z)
        if m is None:
            raise ExactnessError("projection of complexes must be degreewise epi")
        l = preimage(incl[n - 1], apply(mid.diffs[n], m))
        if l is None:
            raise ExactnessError("boundary must come from the subcomplex")
        kl = preimage(sub_l.mono, l)
        if kl is None:
            raise ExactnessError("representative must be a cycle")
        cols.append(list(apply(sub_l.epi, kl).coords))
    return ModMor(sub_n.obj, sub_l.obj,
                  sub_n.obj.ops.from_columns(cols, sub_l.obj.gens))


def commutes_with_every_action(A, B, matrix):
    """Does `matrix` (B.gens x A.gens) commute with the action of every
    algebra basis element, generator or not?"""
    return all(matrix.mul(a) == b.mul(matrix) for a, b in zip(A.actions, B.actions))


def _commute_with_every_basis_element(system, k):
    """Commutation rows of unknown k for every algebra basis element,
    generator or not (F_p-algebra modules, which have no relations)."""
    S, T, _ = system.blocks[k]
    if S.rels or T.rels:
        raise ShapeError("the all-basis hom oracle takes F_p-algebra modules")
    for a, b in zip(S.actions, T.actions):
        system.commute(k, a, b, k)


def hom_matrices_all_basis(A, B):
    """The nonzero kernel-basis matrices of Hom(A, B), from a system that
    commutes with every basis element."""
    system = HomSystem(A.ring)
    _commute_with_every_basis_element(system, system.unknown(A, B))
    return [m for m, in system.solve() if not m.is_zero()]


def d_hom_matrices_all_basis(A, B):
    """Component matrices (in object order) of the diagram hom basis, from
    a system that commutes with every basis element at every object."""
    system = HomSystem(A.ring)
    var = A.hom_unknowns(system, B)
    for k in var:
        _commute_with_every_basis_element(system, k)
    A.naturality(system, var, B)
    return [mats for mats in system.solve() if not all(m.is_zero() for m in mats)]


def mono_by_kernel(f) -> bool:
    """f is mono: its kernel, built as a module, is zero."""
    return f.kernel()[0].is_zero()


def epi_by_cokernel(f) -> bool:
    """f is epi: its cokernel, built as a module, is zero."""
    return f.cokernel()[0].is_zero()


def exact_by_homology(f, g) -> bool:
    """Exactness at the middle of f, g: NonzeroCompositeError unless
    g.f = 0, then the homology ker g / im f, built as the cokernel of f
    factored through ker g, is zero."""
    if not f.then(g).is_zero():
        raise NonzeroCompositeError("composite is nonzero")
    _, kappa = g.kernel()
    return kappa.factor(f).cokernel()[0].is_zero()


def ses_by_construction(f, g) -> bool:
    """0 -> L -> M -> N -> 0 is short exact, every verdict by construction."""
    if not f.then(g).is_zero():
        return False
    return mono_by_kernel(f) and epi_by_cokernel(g) and exact_by_homology(f, g)


def base_change_by_quotient(rm, M):
    """The epi onto S (x)_R M for R an F_p-algebra, free M or not: the cover
    S (x)_{F_p} M modulo s.rm(a) (x) x - s (x) a.x for every basis element
    a, by the algebra's `quotient`."""
    S = rm.target
    ops, ident = M.ops, M.ops.identity(M.gens)
    cover = ModuleObj(S, S.dim * M.gens, actions=[lam.kron(ident) for lam in S.regular])
    cols = []
    for image, act in zip(rm.images, M.actions):
        m = S.right_mult_matrix(image).kron(ident).add(
            ops.identity(S.dim).kron(act).scale(-1))
        cols.extend(m.col(j) for j in range(m.cols))
    return cover.ops.quotient(cover, cols)


# -- kernels and cokernels by the general route -------------------------------


def kernel_by_submodule(f: ModMor):
    """(K, mono): f's preimage lattice presented as a submodule, whatever
    the shape of f."""
    return f.ops.submodule(f.source, f.ops.preimage_lattice(f))


def cokernel_by_quotient(f: ModMor):
    """(Q, epi): f.target modulo the columns of f, whatever the shape of f;
    the epi carries the section `quotient` built."""
    epi = f.ops.quotient(f.target, [f.matrix.col(j) for j in range(f.matrix.cols)])
    return epi.target, epi


def d_kernel_by_factoring(f: DiagMor):
    """(K, mono): `kernel_by_submodule` at every object, and each
    structure map factored through the kernel at its target."""
    idx = f.index
    per = {o: kernel_by_submodule(f.comps[o]) for o in idx.objects}
    monos = {o: m for o, (_, m) in per.items()}
    maps = {}
    for m in idx.mor_names:
        i, j = idx.src(m), idx.tgt(m)
        maps[m] = (per[i][0].identity() if idx.is_identity(m) else
                   monos[j].factor(monos[i].then(f.source.maps[m])))
    K = Diagram(idx, {o: k for o, (k, _) in per.items()}, maps)
    return K, DiagMor(K, f.source, monos)


def d_cokernel_by_cofactoring(f: DiagMor):
    """(Q, epi): `cokernel_by_quotient` at every object, and each
    structure map descended along the cokernel at its source."""
    idx = f.index
    per = {o: cokernel_by_quotient(f.comps[o]) for o in idx.objects}
    epis = {o: e for o, (_, e) in per.items()}
    maps = {}
    for m in idx.mor_names:
        i, j = idx.src(m), idx.tgt(m)
        maps[m] = (per[i][0].identity() if idx.is_identity(m) else
                   epis[i].cofactor(f.target.maps[m].then(epis[j])))
    Q = Diagram(idx, {o: q for o, (q, _) in per.items()}, maps)
    return Q, DiagMor(f.target, Q, epis)


# -- diagram checks and the horseshoe, every comparison and every degree -----


def check_diagram_every_square(d: Diagram):
    """`diagrams.check_diagram` comparing the identity at every object and
    every composite, also where an end has no generators."""
    idx = d.index
    for o in idx.objects:
        if o not in d.components:
            return f"missing component at {o}"
    for m in idx.mor_names:
        if m not in d.maps:
            return f"missing structure map at {m}"
        f = d.maps[m]
        if f.source != d.components[idx.src(m)] or f.target != d.components[idx.tgt(m)]:
            return f"structure map {m} has wrong endpoints"
        if f.ring != d.ring:
            return f"structure map {m} lives over the wrong ring"
    for o in idx.objects:
        A = d.components[o]
        if not same_map_into(A, d.maps[idx.identity[o]].matrix, A.ops.identity(A.gens)):
            return f"identity of {o} does not act as the identity"
    for (g, f), h in idx.comp.items():
        gf = d.maps[g].matrix.mul(d.maps[f].matrix)
        if not same_map_into(d.maps[h].target, gf, d.maps[h].matrix):
            return f"functoriality fails on composite {g} after {f}"
    return None


def diag_mor_every_square(f: DiagMor):
    """`DiagMor._check` comparing every naturality square, also where a
    corner has no generators."""
    idx = f.index
    for o in idx.objects:
        if o not in f.comps:
            return f"missing component at {o}"
        c = f.comps[o]
        if c.source != f.source.components[o]:
            return f"component at {o} has wrong source"
        if c.target != f.target.components[o]:
            return f"component at {o} has wrong target"
    for m in idx.mor_names:
        if idx.is_identity(m):
            continue
        i, j = idx.src(m), idx.tgt(m)
        left = f.target.maps[m].matrix.mul(f.comps[i].matrix)
        right = f.comps[j].matrix.mul(f.source.maps[m].matrix)
        if not same_map_into(f.target.components[j], left, right):
            return f"naturality square fails at index morphism {m}"
    return None


_OWN_STEPS = weakref.WeakKeyDictionary()  # middle -> (covers, monos), built below


def _steps(res, n_max):
    """(covers, monos) of res through degree n_max, as a resolution by
    iterated free covers holds them: covers[n]: P_n -> K_n onto the n-th
    kernel (K_0 = res.A) and, for n >= 1, monos[n]: K_n -> P_{n-1}, so
    that d_n is covers[n] followed by monos[n].  A middle built by
    `horseshoe_every_degree` keeps its own.  Any other resolution is
    rebuilt by iterated free covers and kernels of res.A, as `resolve`
    builds it, with zero maps through res's zero object past the first
    zero kernel."""
    if res in _OWN_STEPS:
        return _OWN_STEPS[res]
    zero, ended = res.zero(), False
    covers, monos = [res.A.free_cover()[1]], [None]
    for _ in range(n_max):
        if ended:
            K, mono = zero, zero.zero_to(covers[-1].source)
        else:
            K, mono = covers[-1].kernel()
            ended = K.is_zero()
        monos.append(mono)
        covers.append(zero.zero_to(K) if ended else K.free_cover()[1])
    return covers, monos


def horseshoe_every_degree(ses: SES, res_sub: Resolution, res_quo: Resolution,
                           n_max) -> HorseshoeData:
    """`derived.horseshoe` building the biproduct, its cover and the kernel
    sequence in every degree up to n_max, also past the end of both outer
    resolutions, from the covers and monos of the outer resolutions
    (`_steps`)."""
    res_sub.extend_to(n_max)
    res_quo.extend_to(n_max)
    covers_l, monos_l = _steps(res_sub, n_max)
    covers_n, monos_n = _steps(res_quo, n_max)
    ci, cp = ses.f, ses.g
    terms, covers, monos = [], [], [None]
    incl, proj, retr, sec = {}, {}, {}, {}
    for n in range(0, n_max + 1):
        bp = covers_l[n].source.biproduct(covers_n[n].source)
        lam = covers_n[n].lift(cp)
        eps = bp.proj1.then(covers_l[n]).then(ci) + bp.proj2.then(lam)
        terms.append(bp.obj)
        covers.append(eps)
        incl[n] = bp.inj1
        proj[n] = bp.proj2
        retr[n] = bp.proj1
        sec[n] = bp.inj2
        if n == n_max:
            break
        KM, monoM = eps.kernel()
        monos.append(monoM)
        ii = monoM.factor(monos_l[n + 1].then(bp.inj1))
        pp = monos_n[n + 1].factor(monoM.then(bp.proj2))
        SES(ii, pp)  # the kernels form a short exact sequence again
        ci, cp = ii, pp
    out = Resolution(ses.M, terms, covers[0],
                     {n: covers[n].then(monos[n]) for n in range(1, n_max + 1)}, False)
    _OWN_STEPS[out] = covers, monos
    return HorseshoeData(out, incl, proj, retr, sec)


# -- Cartan-Eilenberg grids and spectral-sequence checks, every one built ----


def ce_grid_every_column(C, depth) -> CEData:
    """`spectral.ce_grid` computing the image of every differential and
    every column from scratch, also where (d_p, d_{p+1}) equals an earlier
    column's pair."""
    width = C.hi
    Z, B, H, monoZ, u_bz, epiH, epiB, monoB = {}, {}, {}, {}, {}, {}, {}, {}
    for pdeg in range(width, 0, -1):
        img = abelian.image(C.diffs[pdeg])
        B[pdeg - 1], monoB[pdeg - 1], epiB[pdeg - 1] = img.obj, img.mono, img.epi
    B[width] = C.objects[0].zero_object()
    for pdeg in range(0, width + 1):
        Z[pdeg], monoZ[pdeg] = C.diff(pdeg).kernel()
        if pdeg == width:
            u_bz[pdeg] = B[pdeg].zero_to(Z[pdeg])
        else:
            u_bz[pdeg] = monoZ[pdeg].factor(monoB[pdeg])
        H[pdeg], epiH[pdeg] = u_bz[pdeg].cokernel()
    res_B = {pdeg: resolve(B[pdeg], depth) for pdeg in range(0, width + 1)}
    res_H = {pdeg: resolve(H[pdeg], depth) for pdeg in range(0, width + 1)}
    hsZ, hsC = {}, {}
    for pdeg in range(0, width + 1):
        hsZ[pdeg] = horseshoe(SES(u_bz[pdeg], epiH[pdeg]), res_B[pdeg], res_H[pdeg], depth)
        if pdeg == 0:
            quo = C.objects[0].zero_object()
            ses_c = SES(monoZ[0], C.objects[0].zero_to(quo))
            res_quo = resolve(quo, depth)
        else:
            ses_c = SES(monoZ[pdeg], epiB[pdeg - 1])
            res_quo = res_B[pdeg - 1]
        hsC[pdeg] = horseshoe(ses_c, hsZ[pdeg].res_mid, res_quo, depth)
    ce = CEData(depth, width, monoZ, epiH, res_H, hsZ, hsC)
    for pdeg in range(1, width + 1):
        for q in range(0, depth):
            lhs = ce.d_h(pdeg, q + 1).then(ce.d_v(pdeg - 1, q + 1))
            rhs = ce.d_v(pdeg, q + 1).then(ce.d_h(pdeg, q))
            if lhs != rhs:
                raise ExactnessError("CE horizontal differential is not a chain map")
        if pdeg >= 2:
            for q in range(0, depth + 1):
                if not ce.d_h(pdeg, q).then(ce.d_h(pdeg - 1, q)).is_zero():
                    raise ExactnessError("CE horizontal differential does not "
                                         "square to zero")
        if (ce.d_h(pdeg, 0).then(ce.aug(pdeg - 1))
                != ce.aug(pdeg).then(C.diffs[pdeg])):
            raise ExactnessError("CE augmentation is not compatible")
    return ce


def check_acyclic_hypothesis_every_witness(F, G, witnesses, n_max) -> AcyclicityReport:
    """`spectral.check_acyclic_hypothesis` deciding every entry on its own
    witness, equal to an earlier one or not."""
    entries = []
    for w_idx, P in enumerate(witnesses):
        FP = functors.apply(F, P)
        for k in range(1, n_max + 1):
            entries.append((w_idx, k, derived_data(G, FP, k).obj.is_zero()))
    return AcyclicityReport(entries)


def checked_ss_every_check(F, G, dc, n_max, witnesses, lq, gf) -> SSResult:
    """`spectral._checked_ss` computing the E2 dimensions of every row,
    equal to an earlier row or not."""
    report = check_acyclic_hypothesis_every_witness(F, G, witnesses, n_max)
    ss = ss_pages(dc, n_valid=n_max)
    ss.hypothesis_ok = report.ok()
    ss.hypothesis_report = report.entries
    for q in range(0, n_max + 1):
        for pp in range(0, n_max + 1):
            ss.e2_expected[(pp, q)] = derived_data(G, lq[q], pp).obj.fp_dimension()
    ss.e2_matches = all(
        ss.pages[2].get((pp, q), 0) == ss.e2_expected[(pp, q)]
        for pp in range(0, n_max + 1) for q in range(0, n_max + 1))
    for n in range(0, n_max + 1):
        ss.abutment_expected[n] = gf[n].fp_dimension()
    ss.abutment_matches = all(ss.abutment.get(n, 0) == ss.abutment_expected[n]
                              for n in range(0, n_max + 1))
    if not ss.hypothesis_ok:
        ss.extra["convergence_claim"] = "hypothesis unverified"
    return ss


# -- maps of spectral sequences in canonical coordinates ---------------------


def _slice_cell(ss: SSResult, dc: DoubleComplex, v, n, s, t):
    off = ss.internal.tot.offsets[(n, s, t)]
    return v[off: off + dc.dim(s, t)]


@dataclass
class CanonPages:
    """Spectral-sequence pages rewritten in the canonical presentation
    (L_s G applied to the Cartan-Eilenberg homology resolutions), with the
    identification maps from the filtration pages."""

    dims: dict  # r -> {(s,t): dim}
    psi: dict  # r -> {(s,t): FpMatrix}, page reps -> canonical coords
    d: dict  # r -> {(s,t): FpMatrix} in canonical coordinates
    reps: dict  # r -> {(s,t): [vectors in page-(r-1) canonical coords]}
    spans: dict  # r >= 3 -> {(s,t): Span of the incoming image, then reps}
    ident_ok: bool


def _canon_complex(gd: GrothendieckData, t):
    key = ("canon_cx", t)
    if key not in gd.ss.extra:
        gd.ss.extra[key] = functors.apply_to_complex(
            gd.G, gd.ce.res_H[t].complex(gd.ce.depth), check=False)
    return gd.ss.extra[key]


def _canon_sub(gd: GrothendieckData, s, t):
    return homology_at(_canon_complex(gd, t), s)


def _window_cells(gd: GrothendieckData):
    return [(s, n - s) for n in range(gd.n_max + 1) for s in range(n + 1)]


def build_canon_pages(gd: GrothendieckData) -> CanonPages:
    """Identify every window page cell with its canonical presentation and
    rewrite the page differentials there, page by page."""
    ss, dc = gd.ss, gd.dc
    p = ss.p
    ok = True
    dims = {2: {}}
    psi = {2: {}}
    reps = {2: {}}
    spans = {}
    cells = _window_cells(gd)
    for (s, t) in cells:
        n = s + t
        sub = _canon_sub(gd, s, t)
        k_canon = sub.obj.fp_dimension()
        page_reps = ss.internal.reps(2, s, t)
        dims[2][(s, t)] = k_canon
        if k_canon != len(page_reps):
            ok = False
            continue
        proj_h = functors.apply(gd.G, gd.ce.proj_to_h(t, s)).matrix
        to_class = _class_map(sub)

        def classify(v):
            return to_class(proj_h.mul_vec(_slice_cell(ss, dc, v, n, s, t)))

        cols = [classify(v) for v in page_reps]
        bounds = [classify(v) for v in ss.internal.boundaries(2, s, t)]
        if None in cols or any(c is None or any(c) for c in bounds):
            ok = False
            continue
        m = fp_from_columns(p, cols, k_canon)
        if k_canon and fplinalg.rank(m) != k_canon:
            ok = False
            continue
        psi[2][(s, t)] = m
        reps[2][(s, t)] = unit_vectors(k_canon)
    for r in range(3, ss.r_stop + 1):
        dims[r] = {}
        psi[r] = {}
        reps[r] = {}
        spans[r] = {}
        prev = r - 1
        for (s, t) in cells:
            if (s, t) not in psi[prev]:
                continue
            k_prev = dims[prev][(s, t)]
            prev_psi = psi[prev][(s, t)]
            # kernel of the outgoing differential and image of the incoming
            # one, straight from the filtration pages and transported into
            # canonical coordinates; the sources may lie outside the window
            dout_tot = ss.diffs[prev].get((s, t))
            if dout_tot is not None:
                ker_rep = fplinalg.kernel_basis(dout_tot)
            else:
                ker_rep = unit_vectors(k_prev)
            din_tot = ss.diffs[prev].get((s + prev, t - prev + 1))
            imv = []
            if din_tot is not None:
                imv = [prev_psi.mul_vec(din_tot.col(j)) for j in range(din_tot.cols)]
            span = Span(p, k_prev, imv)
            cell_reps = [v for v in map(prev_psi.mul_vec, ker_rep) if span.insert(v)]
            # compose the previous identification with the subquotient step;
            # a page-r rep is a page-(r-1) rep, so its previous coordinates
            # are a unit vector and pick a column of prev_psi
            prev_idx = ss.internal.page_indices(prev, s, t)
            page_idx = ss.internal.page_indices(r, s, t)
            k_r = len(cell_reps)
            m = _tail_coords(p, span, [prev_psi.col(prev_idx.index(k))
                                       for k in page_idx], k_r)
            if m is None or len(page_idx) != k_r or (
                    k_r and fplinalg.rank(m) != k_r):
                ok = False
                continue
            dims[r][(s, t)] = k_r
            psi[r][(s, t)] = m
            reps[r][(s, t)] = cell_reps
            spans[r][(s, t)] = span
    # every page differential between identified cells, in canonical coords
    dmats = {}
    for r in psi:
        dmats[r] = {}
        for (s, t), m in psi[r].items():
            tgt = (s - r, t + r - 1)
            d_tot = ss.diffs[r].get((s, t))
            if tgt in psi[r] and d_tot is not None:
                dmats[r][(s, t)] = psi[r][tgt].mul(d_tot).mul(fplinalg.inverse(m))
    return CanonPages(dims, psi, dmats, reps, spans, ok)


def _tail_coords(p, span, vectors, k):
    """The matrix whose columns are the last k coordinates of each vector
    over span.basis, or None if some vector lies outside the span."""
    cols = [span.coords(v) for v in vectors]
    if None in cols:
        return None
    return fp_from_columns(p, [c[len(c) - k:] for c in cols], k)


@dataclass
class CanonComponentwise:
    per_object: dict
    data: dict
    canon: dict
    e2_cell_maps: dict  # (morphism, (s,t)) -> FpMatrix in canonical coords
    page_maps: dict  # (morphism, r, (s,t)) -> E_r map, propagated coords
    e2_squares: dict  # (morphism, (s,t)) -> bool
    page_squares: dict  # (morphism, r, (s,t)) -> bool (d_r naturality, r >= 3)
    abutment_maps: dict  # (morphism, n) -> FpMatrix on homology coords
    abutment_filtration_ok: dict  # (morphism, n) -> bool
    gr_matches_einf: dict  # (morphism, n, s) -> bool
    ident_ok: dict  # object -> bool

    def acceptance_ok(self) -> bool:
        return (all(self.e2_squares.values())
                and all(self.page_squares.values())
                and all(self.abutment_filtration_ok.values())
                and all(self.gr_matches_einf.values())
                and all(self.ident_ok.values()))


def _canon_d(cp: CanonPages, p, r, s, t):
    """d_r out of (s, t) in canonical coordinates; zero where none is stored."""
    d = cp.d[r].get((s, t))
    if d is None:
        d = FpMatrix.zeros(p, cp.dims[r].get((s - r, t + r - 1), 0),
                           cp.dims[r].get((s, t), 0))
    return d


def _theta_matrices(gd: GrothendieckData):
    """Chain map from the total complex to GF(P_*): project to the q = 0
    cells and apply G of the augmentations."""
    key = "theta"
    if key in gd.ss.extra:
        return gd.ss.extra[key]
    ss, dc = gd.ss, gd.dc
    p = ss.p
    out = {}
    for n in range(0, gd.n_max + 2):
        rows = gd.gf_complex.objects[n].fp_dimension() if n <= gd.gf_complex.hi else 0
        cols = ss.internal.tot.dims.get(n, 0)
        data = [[0] * cols for _ in range(rows)]
        if n <= gd.gf_complex.hi:
            if (n, 0, n) in ss.internal.tot.offsets:
                aug = functors.apply(gd.G, gd.ce.aug(n)).matrix
                off = ss.internal.tot.offsets[(n, 0, n)]
                for i in range(aug.rows):
                    for j in range(aug.cols):
                        data[i][off + j] = aug.data[i][j]
        out[n] = FpMatrix(p, rows, cols, data)
    # chain-map check on the window
    for n in range(1, gd.n_max + 1):
        lhs = out[n - 1].mul(ss.internal.tot.D[n])
        rhs = gd.gf_complex.diffs[n].matrix.mul(out[n])
        if lhs != rhs:
            raise ExactnessError("edge map to GF(P_*) is not a chain map")
    gd.ss.extra[key] = out
    return out


def _abutment_class(theta_n, to_class, v):
    c = to_class(theta_n.mul_vec(v))
    if c is None:
        raise ExactnessError("edge image of a cycle must be a cycle")
    return c


def _cycles_in_prefix(dn, prefix, dim):
    """Basis of ker(dn) intersected with the coordinate prefix, from a
    kernel of the prefix columns."""
    if prefix == 0:
        return []
    restricted = dn.submatrix(range(dn.rows), range(prefix))
    return [v + [0] * (dim - prefix) for v in fplinalg.kernel_basis(restricted)]


def _filt_cycles(ss: SSResult, n, s):
    """A basis of the cycles of Tot_n in filtration s (the coordinate prefix
    of filtration <= s)."""
    tot = ss.internal.tot
    return _cycles_in_prefix(tot.D[n], sum(f <= s for f in ss.internal.filt[n]),
                             tot.dims[n])


def filtration_by_prefix_kernels(ss: SSResult):
    """{n: [dim F_s H_n / F_{s-1} H_n for s = 0..n]} of the total complex,
    where F_s H_n is spanned by the boundaries and a kernel basis of the
    columns of D[n] in filtration <= s."""
    tot = ss.internal.tot
    out = {}
    for n, dim in tot.dims.items():
        dn1 = tot.D[n + 1]
        bnd = [dn1.col(j) for j in range(dn1.cols)]
        ranks = [rank(fp_from_columns(ss.p, bnd + _filt_cycles(ss, n, s), dim))
                 for s in range(-1, n + 1)]
        out[n] = [b - a for a, b in zip(ranks, ranks[1:])]
    return out


def componentwise_by_canonical_coords(F, G, A, n_max) -> CanonComponentwise:
    """The reference for `spectral.ss_componentwise`: one module spectral
    sequence per component, with its own resolution, plus, for every index
    morphism, the induced maps at E2 (checked to commute with d2 through
    the canonical identification), their propagation through later pages,
    and the abutment maps (checked to respect the transported filtration
    with graded pieces matching the E_inf maps)."""
    index = A.index
    per_object = {}
    data = {}
    canon = {}
    ident_ok = {}
    for i in index.objects:
        gd = grothendieck_ss(F, G, A.components[i], n_max, with_data=True)
        data[i] = gd
        per_object[i] = gd.ss
        canon[i] = build_canon_pages(gd)
        ident_ok[i] = canon[i].ident_ok
    e2_cell_maps = {}
    e2_squares = {}
    page_squares = {}
    abutment_maps = {}
    abutment_filtration_ok = {}
    gr_matches = {}
    page_maps = {}
    T = n_max + 1
    for m in index.nonidentity_morphisms():
        i, j = index.src(m), index.tgt(m)
        p = per_object[i].p
        gi, gj = data[i], data[j]
        ci, cj = canon[i], canon[j]
        lift = lift_resolution_map(A.maps[m], gi.res, gj.res, T)
        cfmap = {t: functors.apply(F, lift[t]) for t in range(T + 1)}
        hmaps = {}
        for t in range(0, n_max + 1):
            zmap = gj.ce.monoZ[t].factor(gi.ce.monoZ[t].then(cfmap[t]))
            hmaps[t] = gi.ce.epiH[t].cofactor(zmap.then(gj.ce.epiH[t]))
        # canonical E2 cell maps: (L_s G)(L_t F)(structure map)
        cell_maps = {2: {}}
        for (s, t) in _window_cells(gi):
            hl = lift_resolution_map(hmaps[t], gi.ce.res_H[t], gj.ce.res_H[t],
                                     s + 1)
            phi = functors.apply(G, hl[s])
            mor = induced_on_homology(phi, _canon_sub(gi, s, t),
                                      _canon_sub(gj, s, t))
            cell_maps[2][(s, t)] = mor.matrix
            e2_cell_maps[(m, (s, t))] = mor.matrix
        # d2 squares in canonical coordinates
        for (s, t) in _window_cells(gi):
            tgt = (s - 2, t + 1)
            if tgt[0] < 0 or (s + t) > n_max:
                continue
            lhs = cell_maps[2][tgt].mul(_canon_d(ci, p, 2, s, t))
            rhs = _canon_d(cj, p, 2, s, t).mul(cell_maps[2][(s, t)])
            e2_squares[(m, (s, t))] = lhs == rhs
        # propagate the maps through later pages (recorded)
        for r in range(3, per_object[i].r_stop + 1):
            cell_maps[r] = {}
            for (s, t) in _window_cells(gi):
                if (s, t) not in ci.reps.get(r, {}) or (s, t) not in cj.reps.get(r, {}):
                    continue
                prev = cell_maps[r - 1].get((s, t))
                if prev is None:
                    continue
                mat = _tail_coords(p, cj.spans[r][(s, t)],
                                   map(prev.mul_vec, ci.reps[r][(s, t)]),
                                   len(cj.reps[r][(s, t)]))
                if mat is None:
                    page_squares[(m, r, (s, t))] = False
                else:
                    cell_maps[r][(s, t)] = mat
            for (s, t), mat in cell_maps[r].items():
                tgt = (s - r, t + r - 1)
                if tgt not in cell_maps[r]:
                    continue
                if (s, t) not in ci.d[r] and (s, t) not in cj.d[r]:
                    page_squares[(m, r, (s, t))] = True
                    continue
                page_squares[(m, r, (s, t))] = (
                    cell_maps[r][tgt].mul(_canon_d(ci, p, r, s, t))
                    == _canon_d(cj, p, r, s, t).mul(mat))
        page_maps.update({(m, r, c): mat for r, cm in cell_maps.items()
                          for c, mat in cm.items()})
        # abutment maps and filtration compatibility
        theta_i = _theta_matrices(gi)
        theta_j = _theta_matrices(gj)
        for n in range(0, n_max + 1):
            sub_i = homology_at(gi.gf_complex, n)
            sub_j = homology_at(gj.gf_complex, n)
            spec_gf = functors.compose(G, F)
            phi = functors.apply(spec_gf, lift[n])
            amap = induced_on_homology(phi, sub_i, sub_j).matrix
            abutment_maps[(m, n)] = amap
            hdim_i = sub_i.obj.fp_dimension()
            hdim_j = sub_j.obj.fp_dimension()
            cls_i = _class_map(sub_i)
            cls_j = _class_map(sub_j)
            spans_i = {}
            spans_j = {}
            for s in range(0, n + 1):
                spans_i[s] = [_abutment_class(theta_i[n], cls_i, v)
                              for v in _filt_cycles(gi.ss, n, s)]
                spans_j[s] = [_abutment_class(theta_j[n], cls_j, v)
                              for v in _filt_cycles(gj.ss, n, s)]
            filt_j = [Span(p, hdim_j, spans_j[s]) for s in range(0, n + 1)]
            abutment_filtration_ok[(m, n)] = all(
                filt_j[s].contains(amap.mul_vec(v))
                for s in range(0, n + 1) for v in spans_i[s])
            # graded pieces against the E_inf maps
            r_top = per_object[i].r_stop
            for s in range(0, n + 1):
                t = n - s
                einf_map = cell_maps.get(r_top, {}).get((s, t))
                # gr_s = F_s / F_{s-1}: reps of F_s modulo F_{s-1}
                gr_i = Span(p, hdim_i, spans_i[s - 1] if s >= 1 else [])
                gr_j = Span(p, hdim_j, spans_j[s - 1] if s >= 1 else [])
                gr_reps_i = [v for v in spans_i[s] if gr_i.insert(v)]
                gr_reps_j = [v for v in spans_j[s] if gr_j.insert(v)]
                if einf_map is None:
                    gr_matches[(m, n, s)] = not gr_reps_i
                    continue
                # identify gr_s with the canonical E_inf cell on each side
                tau_i = _gr_identification(gi, ci, s, t, cls_i, theta_i[n],
                                           gr_reps_i, gr_i)
                tau_j = _gr_identification(gj, cj, s, t, cls_j, theta_j[n],
                                           gr_reps_j, gr_j)
                if tau_i is None or tau_j is None:
                    gr_matches[(m, n, s)] = False
                    continue
                gr_map = _tail_coords(p, gr_j, map(amap.mul_vec, gr_reps_i),
                                      len(gr_reps_j))
                gr_matches[(m, n, s)] = (gr_map is not None and
                                         gr_map.mul(tau_i) == tau_j.mul(einf_map))
    return CanonComponentwise(per_object, data, canon, e2_cell_maps, page_maps,
                               e2_squares, page_squares, abutment_maps,
                               abutment_filtration_ok, gr_matches, ident_ok)


def _gr_identification(gd: GrothendieckData, cp: CanonPages, s, t, to_class,
                       theta_n, gr_reps, gr_span):
    """Matrix from the canonical E_inf cell to gr_s of the abutment:
    canonical coords -> page reps -> cycles -> edge classes -> gr coords.
    gr_span spans F_{s-1} and then gr_reps."""
    ss = gd.ss
    p = ss.p
    r_top = ss.r_stop
    page_reps = ss.internal.reps(r_top, s, t)
    psi = cp.psi.get(r_top, {}).get((s, t))
    if psi is None:
        return None if gr_reps else FpMatrix.zeros(p, len(gr_reps), 0)
    if len(page_reps) != len(gr_reps):
        return None
    k = len(page_reps)
    # column j: the cycle whose canonical coordinates are the j-th unit vector
    cycles = fp_from_columns(p, page_reps, ss.internal.tot.dims[s + t]).mul(
        fplinalg.inverse(psi))
    return _tail_coords(p, gr_span, [_abutment_class(theta_n, to_class, cycles.col(j))
                                     for j in range(k)], k)


# -- the workbench parser and printer with every form written by hand ----------
#
# The reference that `dsl`'s table-driven parser and printer are tested
# against: one branch per declaration form and functor constructor in the
# parser, the printer and name resolution.  It shares only `dsl`'s
# tokenizer and its result types.


def _ref_functor_str(expr):
    if expr.op == "name":
        return expr.args[0]
    if expr.op == "tensor":
        return f"tensor({expr.args[0]})"
    if expr.op == "base_change":
        src, tgt, images = expr.args
        if images is None:
            return f"base_change({src} -> {tgt})"
        imgs = ", ".join(str(i) for i in images)
        return f"base_change({src} -> {tgt}, images=[{imgs}])"
    if expr.op == "coinvariants":
        return f"coinvariants({expr.args[0]})"
    if expr.op == "compose":
        return f"compose({_ref_functor_str(expr.args[0])}, {_ref_functor_str(expr.args[1])})"
    if expr.op == "exponent":
        return f"exponent({_ref_functor_str(expr.args[0])}, {expr.args[1]})"
    raise ValueError(expr.op)


def _ref_format_value(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    return _ref_functor_str(v) if isinstance(v, FunctorExpr) else str(v)


class _RefParseError(Exception):
    def __init__(self, tok: Token, message: str):
        super().__init__(message)
        self.tok = tok
        self.message = message


class _RefParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def skip_separators(self):
        while self.peek().kind == "newline" or (
                self.peek().kind == "punct" and self.peek().value == ";"):
            self.next()

    def expect_punct(self, value):
        t = self.next()
        if t.kind != "punct" or t.value != value:
            raise _RefParseError(t, f"expected {value!r}, found {t.value!r}")
        return t

    def expect_name(self, what="a name"):
        t = self.next()
        if t.kind != "name":
            raise _RefParseError(t, f"expected {what}, found {t.value!r}")
        return t

    def expect_keyword(self, value):
        t = self.next()
        if t.kind != "name" or t.value != value:
            raise _RefParseError(t, f"expected {value!r}, found {t.value!r}")
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise _RefParseError(t, f"expected an integer, found {t.value!r}")
        return int(t.value)

    def at_name(self, value=None):
        t = self.peek()
        return t.kind == "name" and (value is None or t.value == value)

    def at_punct(self, value):
        t = self.peek()
        return t.kind == "punct" and t.value == value

    def expect_label(self, what="a label"):
        """Object/morphism labels may be bare names or numerals."""
        t = self.next()
        if t.kind not in ("name", "int"):
            raise _RefParseError(t, f"expected {what}, found {t.value!r}")
        return t.value

    # vectors / matrices / cubes ------------------------------------------

    def int_vector(self):
        self.expect_punct("[")
        out = []
        while not self.at_punct("]"):
            out.append(self.expect_int())
            if self.at_punct(","):
                self.next()
        self.expect_punct("]")
        return out

    def int_matrix(self):
        self.expect_punct("[")
        out = []
        while not self.at_punct("]"):
            out.append(self.int_vector())
            if self.at_punct(","):
                self.next()
        self.expect_punct("]")
        return out

    def int_cube(self):
        self.expect_punct("[")
        out = []
        while not self.at_punct("]"):
            out.append(self.int_matrix())
            if self.at_punct(","):
                self.next()
        self.expect_punct("]")
        return out

    # functor expressions ---------------------------------------------------

    def functor_expr(self) -> FunctorExpr:
        t = self.expect_name("a functor expression")
        if not self.at_punct("("):
            return FunctorExpr("name", (t.value,))
        if t.value == "tensor":
            self.expect_punct("(")
            m = self.expect_name("a module name").value
            self.expect_punct(")")
            return FunctorExpr("tensor", (m,))
        if t.value == "base_change":
            self.expect_punct("(")
            src = self.expect_name("a ring name").value
            self.expect_punct("->")
            tgt = self.expect_name("a ring name").value
            images = None
            if self.at_punct(","):
                self.next()
                self.expect_keyword("images")
                self.expect_punct("=")
                images = tuple(self.int_vector())
            self.expect_punct(")")
            return FunctorExpr("base_change", (src, tgt, images))
        if t.value == "coinvariants":
            self.expect_punct("(")
            r = self.expect_name("a ring name").value
            self.expect_punct(")")
            return FunctorExpr("coinvariants", (r,))
        if t.value == "compose":
            self.expect_punct("(")
            outer = self.functor_expr()
            self.expect_punct(",")
            inner = self.functor_expr()
            self.expect_punct(")")
            return FunctorExpr("compose", (outer, inner))
        if t.value == "exponent":
            self.expect_punct("(")
            inner = self.functor_expr()
            self.expect_punct(",")
            cat = self.expect_name("a category name").value
            self.expect_punct(")")
            return FunctorExpr("exponent", (inner, cat))
        raise _RefParseError(t, f"unknown functor constructor {t.value!r}")

    # declarations -----------------------------------------------------------

    def binding_list(self):
        """{ name: name, ... } possibly split by ';' into two groups."""
        self.expect_punct("{")
        groups = [[]]
        while not self.at_punct("}"):
            if self.at_punct(";"):
                self.next()
                groups.append([])
                continue
            key = self.expect_label("a binding key")
            self.expect_punct(":")
            val = self.expect_name("a binding value").value
            groups[-1].append((key, val))
            if self.at_punct(","):
                self.next()
        self.expect_punct("}")
        return groups

    def decl(self) -> Decl:
        t = self.expect_name("a declaration keyword")
        line, col = t.line, t.col
        kind = t.value
        if kind == "ring":
            name = self.expect_name().value
            payload = {"form": "integers"}
            if self.at_punct("="):
                self.next()
                head = self.expect_name("a ring form").value
                if head == "integers":
                    payload = {"form": "integers"}
                elif head == "fp":
                    self.expect_keyword("p")
                    self.expect_punct("=")
                    payload = {"form": "fp", "p": self.expect_int()}
                elif head == "group_algebra":
                    self.expect_keyword("p")
                    self.expect_punct("=")
                    p = self.expect_int()
                    self.expect_keyword("table")
                    payload = {"form": "group_algebra", "p": p,
                               "table": self.int_matrix()}
                elif head == "fp_algebra":
                    self.expect_keyword("p")
                    self.expect_punct("=")
                    p = self.expect_int()
                    self.expect_keyword("unit")
                    unit = self.int_vector()
                    self.expect_keyword("table")
                    payload = {"form": "fp_algebra", "p": p, "unit": unit,
                               "table": self.int_cube()}
                else:
                    raise _RefParseError(t, f"unknown ring form {head!r}")
            return Decl("ring", name, payload, line, col)
        if kind == "module":
            name = self.expect_name().value
            self.expect_keyword("over")
            ring = self.expect_name("a ring name").value
            self.expect_punct("=")
            head = self.expect_name("a module form").value
            if head == "free":
                payload = {"ring": ring, "form": "free", "rank": self.expect_int()}
            elif head == "coker":
                payload = {"ring": ring, "form": "coker",
                           "relations": self.int_matrix()}
            elif head == "trivial":
                payload = {"ring": ring, "form": "trivial"}
            elif head == "fp":
                self.expect_keyword("dim")
                dim = self.expect_int()
                self.expect_keyword("actions")
                payload = {"ring": ring, "form": "fp", "dim": dim,
                           "actions": self.int_cube()}
            else:
                raise _RefParseError(t, f"unknown module form {head!r}")
            return Decl("module", name, payload, line, col)
        if kind == "morphism":
            name = self.expect_name().value
            self.expect_punct(":")
            src = self.expect_name().value
            self.expect_punct("->")
            tgt = self.expect_name().value
            self.expect_punct("=")
            mat = self.int_matrix()
            return Decl("morphism", name,
                        {"source": src, "target": tgt, "matrix": mat}, line, col)
        if kind == "category":
            name = self.expect_name().value
            self.expect_punct("=")
            head = self.expect_name("a category form").value
            if head == "standard":
                payload = {"form": "standard",
                           "which": self.expect_name("a category name").value}
            elif head == "product":
                self.expect_punct("(")
                a = self.expect_name().value
                self.expect_punct(",")
                b = self.expect_name().value
                self.expect_punct(")")
                payload = {"form": "product", "left": a, "right": b}
            elif head == "opposite":
                self.expect_punct("(")
                a = self.expect_name().value
                self.expect_punct(")")
                payload = {"form": "opposite", "of": a}
            elif head == "monoid":
                self.expect_keyword("table")
                payload = {"form": "monoid", "table": self.int_matrix()}
            elif head == "objects":
                self.expect_punct("[")
                objs = []
                while not self.at_punct("]"):
                    objs.append(self.expect_label())
                    if self.at_punct(","):
                        self.next()
                self.expect_punct("]")
                self.expect_keyword("arrows")
                self.expect_punct("[")
                arrows = []
                while not self.at_punct("]"):
                    a = self.expect_name().value
                    self.expect_punct(":")
                    s = self.expect_label()
                    self.expect_punct("->")
                    g = self.expect_label()
                    arrows.append((a, s, g))
                    if self.at_punct(","):
                        self.next()
                self.expect_punct("]")
                comps = []
                if self.at_name("compose"):
                    self.next()
                    self.expect_punct("[")
                    while not self.at_punct("]"):
                        g = self.expect_name().value
                        self.expect_punct(".")
                        f = self.expect_name().value
                        self.expect_punct("=")
                        h = self.expect_name().value
                        comps.append((g, f, h))
                        if self.at_punct(","):
                            self.next()
                    self.expect_punct("]")
                payload = {"form": "explicit", "objects": objs,
                           "arrows": arrows, "compose": comps}
            else:
                raise _RefParseError(t, f"unknown category form {head!r}")
            return Decl("category", name, payload, line, col)
        if kind == "diagram":
            name = self.expect_name().value
            self.expect_keyword("over")
            cat = self.expect_name().value
            self.expect_punct("=")
            groups = self.binding_list()
            objs = groups[0]
            maps = groups[1] if len(groups) > 1 else []
            return Decl("diagram", name,
                        {"category": cat, "objects": objs, "maps": maps},
                        line, col)
        if kind == "diagmor":
            name = self.expect_name().value
            self.expect_punct(":")
            src = self.expect_name().value
            self.expect_punct("->")
            tgt = self.expect_name().value
            self.expect_punct("=")
            groups = self.binding_list()
            return Decl("diagmor", name,
                        {"source": src, "target": tgt, "components": groups[0]},
                        line, col)
        if kind == "functor":
            name = self.expect_name().value
            self.expect_punct("=")
            return Decl("functor", name, {"expr": self.functor_expr()}, line, col)
        if kind == "ses":
            name = self.expect_name().value
            self.expect_punct("=")
            self.expect_punct("(")
            f = self.expect_name().value
            self.expect_punct(",")
            g = self.expect_name().value
            self.expect_punct(")")
            return Decl("ses", name, {"f": f, "g": g}, line, col)
        if kind == "task":
            first = self.expect_name("a task kind or name")
            if self.at_punct("=") and first.value not in TASK_KINDS:
                self.next()
                name = first.value
                tk = self.expect_name("a task kind").value
            else:
                name = None
                tk = first.value
            if tk not in TASK_KINDS:
                raise _RefParseError(first, f"unknown task kind {tk!r}")
            args = {}
            while self.at_name():
                key = self.expect_name().value
                self.expect_punct("=")
                nxt = self.peek()
                if nxt.kind == "int":
                    args[key] = self.expect_int()
                elif nxt.kind == "name" and nxt.value in ("true", "false") \
                        and not (self.toks[self.pos + 1].kind == "punct"
                                 and self.toks[self.pos + 1].value == "("):
                    args[key] = self.next().value == "true"
                elif nxt.kind == "name":
                    args[key] = self.functor_expr()
                else:
                    raise _RefParseError(nxt, "expected a task argument value")
            return Decl("task", name, {"task_kind": tk, "args": args}, line, col)
        raise _RefParseError(t, f"unknown declaration {kind!r}")


_REF_REFERENCE_KEYS = {
    "module": [("ring", "ring")],
    "morphism": [("source", None), ("target", None)],
    "category": [("left", "category"), ("right", "category"), ("of", "category")],
    "diagram": [("category", "category")],
    "diagmor": [("source", "diagram"), ("target", "diagram")],
    "ses": [("f", None), ("g", None)],
}


def _ref_functor_expr_names(expr: FunctorExpr):
    if expr.op == "name":
        yield expr.args[0]
    elif expr.op == "tensor":
        yield expr.args[0]
    elif expr.op == "base_change":
        yield expr.args[0]
        yield expr.args[1]
    elif expr.op == "coinvariants":
        yield expr.args[0]
    elif expr.op == "compose":
        yield from _ref_functor_expr_names(expr.args[0])
        yield from _ref_functor_expr_names(expr.args[1])
    elif expr.op == "exponent":
        yield from _ref_functor_expr_names(expr.args[0])
        yield expr.args[1]


def reference_parse(text):
    """(WorkbenchDoc or None, diagnostics).

    The document is returned only when there are no diagnostics.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            return None, [Diagnostic(1, 1, f"input is not valid UTF-8: {exc}")]
    toks, diags = _tokenize(text)
    if diags:
        return None, diags
    parser = _RefParser(toks)
    decls = []
    while True:
        parser.skip_separators()
        if parser.peek().kind == "eof":
            break
        try:
            decls.append(parser.decl())
        except _RefParseError as exc:
            diags.append(Diagnostic(exc.tok.line, exc.tok.col, exc.message))
            # resynchronise at the next separator
            while parser.peek().kind not in ("eof",) and not (
                    parser.peek().kind == "newline"
                    or (parser.peek().kind == "punct"
                        and parser.peek().value == ";")):
                parser.next()
        except RecursionError:
            diags.append(Diagnostic(parser.peek().line, parser.peek().col,
                                    "input nests too deeply"))
            break
    if diags:
        return None, diags
    # name resolution: unique names, references resolve to earlier decls
    seen = {}
    auto = 0
    for d in decls:
        if d.kind == "task" and d.name is None:
            auto += 1
            d.name = f"task{auto}"
        key = (d.kind if d.kind != "task" else "task", d.name)
        if key in seen:
            diags.append(Diagnostic(d.line, d.col,
                                    f"duplicate {d.kind} name {d.name!r}"))
        seen[key] = d

    names = {}

    def resolve(name, want, d):
        if name not in names:
            diags.append(Diagnostic(d.line, d.col,
                                    f"unresolved name {name!r}"))
            return
        if want is not None and names[name] != want:
            diags.append(Diagnostic(
                d.line, d.col,
                f"{name!r} is a {names[name]}, expected a {want}"))

    for d in decls:
        for key, want in _REF_REFERENCE_KEYS.get(d.kind, []):
            if key in d.payload and d.payload[key] is not None:
                resolve(d.payload[key], want, d)
        if d.kind == "diagram":
            for _, v in d.payload["objects"]:
                resolve(v, "module", d)
            for _, v in d.payload["maps"]:
                resolve(v, "morphism", d)
        if d.kind == "diagmor":
            for _, v in d.payload["components"]:
                resolve(v, "morphism", d)
        if d.kind == "functor":
            for n in _ref_functor_expr_names(d.payload["expr"]):
                resolve(n, None, d)
        if d.kind == "task":
            for key, v in d.payload["args"].items():
                if key == "suite":
                    continue
                if isinstance(v, FunctorExpr):
                    for n in _ref_functor_expr_names(v):
                        resolve(n, None, d)
        if d.kind != "task":
            names[d.name] = d.kind
    if diags:
        return None, diags
    return WorkbenchDoc(decls), []


def _ref_fmt_vector(v):
    return "[" + ", ".join(str(x) for x in v) + "]"


def _ref_fmt_matrix(m):
    return "[" + ", ".join(_ref_fmt_vector(r) for r in m) + "]"


def _ref_fmt_cube(c):
    return "[" + ", ".join(_ref_fmt_matrix(m) for m in c) + "]"


def _ref_print_decl(d: Decl) -> str:
    p = d.payload
    if d.kind == "ring":
        if p["form"] == "integers":
            return f"ring {d.name}"
        if p["form"] == "fp":
            return f"ring {d.name} = fp p={p['p']}"
        if p["form"] == "group_algebra":
            return (f"ring {d.name} = group_algebra p={p['p']} "
                    f"table {_ref_fmt_matrix(p['table'])}")
        return (f"ring {d.name} = fp_algebra p={p['p']} "
                f"unit {_ref_fmt_vector(p['unit'])} table {_ref_fmt_cube(p['table'])}")
    if d.kind == "module":
        if p["form"] == "free":
            body = f"free {p['rank']}"
        elif p["form"] == "coker":
            body = f"coker {_ref_fmt_matrix(p['relations'])}"
        elif p["form"] == "trivial":
            body = "trivial"
        else:
            body = f"fp dim {p['dim']} actions {_ref_fmt_cube(p['actions'])}"
        return f"module {d.name} over {p['ring']} = {body}"
    if d.kind == "morphism":
        return (f"morphism {d.name} : {p['source']} -> {p['target']} = "
                f"{_ref_fmt_matrix(p['matrix'])}")
    if d.kind == "category":
        if p["form"] == "standard":
            return f"category {d.name} = standard {p['which']}"
        if p["form"] == "product":
            return f"category {d.name} = product({p['left']}, {p['right']})"
        if p["form"] == "opposite":
            return f"category {d.name} = opposite({p['of']})"
        if p["form"] == "monoid":
            return f"category {d.name} = monoid table {_ref_fmt_matrix(p['table'])}"
        objs = ", ".join(p["objects"])
        arrows = ", ".join(f"{a}: {s} -> {t}" for a, s, t in p["arrows"])
        out = f"category {d.name} = objects [{objs}] arrows [{arrows}]"
        if p["compose"]:
            comps = ", ".join(f"{g}.{f} = {h}" for g, f, h in p["compose"])
            out += f" compose [{comps}]"
        return out
    if d.kind == "diagram":
        objs = ", ".join(f"{k}: {v}" for k, v in p["objects"])
        maps = ", ".join(f"{k}: {v}" for k, v in p["maps"])
        body = objs + ("; " + maps if maps else "")
        return f"diagram {d.name} over {p['category']} = {{ {body} }}"
    if d.kind == "diagmor":
        comps = ", ".join(f"{k}: {v}" for k, v in p["components"])
        return (f"diagmor {d.name} : {p['source']} -> {p['target']} = "
                f"{{ {comps} }}")
    if d.kind == "functor":
        return f"functor {d.name} = {_ref_functor_str(p['expr'])}"
    if d.kind == "ses":
        return f"ses {d.name} = ({p['f']}, {p['g']})"
    if d.kind == "task":
        args = " ".join(f"{k}={_ref_format_value(v)}" for k, v in p["args"].items())
        body = f"{p['task_kind']}" + (f" {args}" if args else "")
        return f"task {d.name} = {body}"
    raise ValueError(d.kind)


def reference_print_doc(doc: WorkbenchDoc) -> str:
    return "\n".join(_ref_print_decl(d) for d in doc.decls) + "\n"
