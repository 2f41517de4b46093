"""Base rings: the integers, and finite-dimensional algebras over F_p.

An FpAlgebra is given by structure constants on a chosen basis; group
algebras are the main source.  Associativity and unitality are checked at
construction so downstream code can rely on them.  Constructors that need
an F_p-algebra (`RingMap` out of one, `group_ring_map`, `augmentation_map`,
`modules.trivial_module`) reject the integers by `require_algebra`.
"""

from __future__ import annotations

from .errors import ShapeError
from .fplinalg import Span, fp_from_columns, is_prime

INT = "integers"
FP_ALGEBRA = "fp_algebra"
P_CEILING = 2 ** 31  # is_prime trial-divides up to sqrt(p): under 46,341 steps


class RingError(ValueError):
    pass


class Ring:
    """Either the ring of integers or an F_p-algebra with chosen basis.

    For FpAlgebra: `mult[a][b]` is the coordinate vector of e_a * e_b,
    `unit` the coordinates of 1, and `regular` the regular representation:
    the matrix of left multiplication by each e_a, built once here (these
    are matrices, so the ring still holds no modules; over Z it is empty).
    `algebra_generators` are basis indices whose products span the algebra
    (see `_generators`; empty over Z and over F_p itself).
    `_ops` is the ring's one ops object, set by `modules.ring_ops` on first
    use; it too holds matrices and no modules.
    """

    __slots__ = ("kind", "p", "dim", "basis", "mult", "unit", "label", "regular",
                 "algebra_generators", "_ops")

    def __init__(self, kind, p=None, dim=None, basis=None, mult=None, unit=None,
                 label=None):
        self.kind = kind
        self._ops = None
        if kind == INT:
            self.p = self.dim = self.basis = self.mult = self.unit = None
            self.label = label or "Z"
            self.regular = self.algebra_generators = ()
            return
        if kind != FP_ALGEBRA:
            raise ShapeError(f"unknown ring kind {kind!r}")
        if p >= P_CEILING:
            raise RingError(f"p must be below 2^31 = {P_CEILING}, not {p}")
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        self.p = p
        self.dim = dim
        self.basis = tuple(basis)
        if len(self.basis) != dim:
            raise ShapeError(f"{len(self.basis)} basis labels for dimension {dim}")
        self.mult = tuple(tuple(tuple(x % p for x in mult[a][b]) for b in range(dim))
                          for a in range(dim))
        self.unit = tuple(x % p for x in unit)
        self.label = label or f"F{p}-algebra(dim {dim})"
        self._validate()
        self.regular = tuple(self.left_mult_matrix(self._e(a)) for a in range(dim))
        self.algebra_generators = self._generators()

    def _validate(self):
        d, p = self.dim, self.p
        for a in range(d):
            for b in range(d):
                if len(self.mult[a][b]) != d:
                    raise RingError("structure constant table has wrong shape")
        # unit laws on basis elements
        for a in range(d):
            if self.multiply(self.unit, self._e(a)) != list(self._e(a)):
                raise RingError(f"unit fails on the left at basis {a}")
            if self.multiply(self._e(a), self.unit) != list(self._e(a)):
                raise RingError(f"unit fails on the right at basis {a}")
        # associativity on all basis triples
        for a in range(d):
            for b in range(d):
                ab = self.mult[a][b]
                for c in range(d):
                    left = self.multiply(ab, self._e(c))
                    right = self.multiply(self._e(a), self.mult[b][c])
                    if left != right:
                        raise RingError(f"associativity fails on triple {(a, b, c)}")

    def _generators(self):
        """Basis indices whose products span the algebra, chosen greedily in
        basis order: e_a joins when it lies outside the subalgebra the
        earlier choices generate, i.e. the span of the unit closed under
        right multiplication by every choice."""
        chosen = []
        span = Span(self.p, self.dim, [self.unit])
        for a in range(self.dim):
            if span.contains(self._e(a)):
                continue
            chosen.append(a)
            k = 0
            while k < len(span.basis):
                for g in chosen:
                    span.insert(self.multiply(span.basis[k], self._e(g)))
                k += 1
        return tuple(chosen)

    def _e(self, a):
        v = [0] * self.dim
        v[a] = 1
        return v

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ring) or self.kind != other.kind:
            return False
        if self.kind == INT:
            return True
        return (self.p == other.p and self.dim == other.dim
                and self.mult == other.mult and self.unit == other.unit)

    def __repr__(self):
        return f"Ring({self.label})"

    @property
    def is_integers(self):
        return self.kind == INT

    def multiply(self, x, y):
        """Product of two coordinate vectors in the algebra."""
        p, d = self.p, self.dim
        out = [0] * d
        for a in range(d):
            xa = x[a]
            if xa:
                for b in range(d):
                    yb = y[b]
                    if yb:
                        c = self.mult[a][b]
                        for e in range(d):
                            out[e] = (out[e] + xa * yb * c[e]) % p
        return out

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y on the basis."""
        cols = [self.multiply(x, self._e(b)) for b in range(self.dim)]
        return fp_from_columns(self.p, cols, self.dim)

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x on the basis."""
        cols = [self.multiply(self._e(b), x) for b in range(self.dim)]
        return fp_from_columns(self.p, cols, self.dim)

    def is_commutative(self):
        if self.kind == INT:
            return True
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                if self.mult[a][b] != self.mult[b][a]:
                    return False
        return True


ZZ = Ring(INT)


def require_algebra(ring, what):
    """ring, or a RingError saying that `what` needs an F_p-algebra."""
    if ring.is_integers:
        raise RingError(f"{what} needs an F_p-algebra, not {ring.label}")
    return ring


def fp_field(p, label=None):
    """F_p itself, as a one-dimensional algebra."""
    return Ring(FP_ALGEBRA, p=p, dim=1, basis=("1",), mult=(((1,),),), unit=(1,),
                label=label or f"F{p}")


def _check_group_table(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise RingError("multiplication table is not closed")
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise RingError("table has no identity element")
    for i in range(n):
        if not any(table[i][j] == identity and table[j][i] == identity for j in range(n)):
            raise RingError(f"element {i} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise RingError(f"table is not associative at {(a, b, c)}")
    return identity


def group_algebra(p, table, label=None):
    """Group algebra F_p[G] from a group multiplication table.

    `table[i][j]` is the index of g_i * g_j; the table is checked to be a
    group (identity, inverses, associativity).
    """
    n = len(table)
    identity = _check_group_table(table)
    mult = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = [0] * n
            v[table[a][b]] = 1
            mult[a][b] = tuple(v)
    unit = [0] * n
    unit[identity] = 1
    basis = tuple(f"g{i}" for i in range(n))
    return Ring(FP_ALGEBRA, p=p, dim=n, basis=basis, mult=tuple(map(tuple, mult)),
                unit=tuple(unit), label=label or f"F{p}[G{n}]")


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_group_table(t1, t2):
    """Direct product group, elements ordered (i1, i2) -> i1*len(t2)+i2."""
    n1, n2 = len(t1), len(t2)
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + a2][b1 * n2 + b2] = t1[a1][b1] * n2 + t2[a2][b2]
    return table


class RingMap:
    """Ring homomorphism, the datum behind base-change functors.

    Supported shapes: Z -> Z (identity), Z -> FpAlgebra (the unique map),
    FpAlgebra -> FpAlgebra over the same prime (basis-image matrix,
    checked to be unital and multiplicative).  An algebra source with no
    images, or with the integers as target, is a RingError.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Ring, target: Ring, images=None):
        self.source = source
        self.target = target
        if source.is_integers:
            self.images = None
            return
        require_algebra(target, "a ring map out of an F_p-algebra")
        if images is None:
            raise RingError("a ring map out of an F_p-algebra needs images")
        if source.p != target.p:
            raise RingError("ring map must preserve the prime")
        p = source.p
        self.images = tuple(tuple(x % p for x in img) for img in images)
        if len(self.images) != source.dim:
            raise RingError("need one image per source basis element")
        if self.apply(source.unit) != list(target.unit):
            raise RingError("ring map does not preserve the unit")
        for a in range(source.dim):
            for b in range(source.dim):
                lhs = self.apply(source.mult[a][b])
                rhs = target.multiply(self.images[a], self.images[b])
                if lhs != rhs:
                    raise RingError(f"ring map not multiplicative at {(a, b)}")

    def apply(self, x):
        """Image of a source coordinate vector (FpAlgebra sources only)."""
        p, d = self.target.p, self.target.dim
        out = [0] * d
        for a, xa in enumerate(x):
            if xa:
                img = self.images[a]
                for e in range(d):
                    out[e] = (out[e] + xa * img[e]) % p
        return out

    def __eq__(self, other):
        return (isinstance(other, RingMap) and self.source == other.source
                and self.target == other.target and self.images == other.images)

    def __repr__(self):
        return f"RingMap({self.source.label} -> {self.target.label})"


def group_ring_map(source: Ring, target: Ring, element_images, label=None):
    """Ring map induced by sending the i-th basis group element of `source`
    to the `element_images[i]`-th basis element of `target`, an
    F_p-algebra."""
    require_algebra(target, "a group ring map's target")
    images = []
    for idx in element_images:
        if not 0 <= idx < target.dim:
            raise RingError(f"{idx} is not a basis index of {target.label}")
        v = [0] * target.dim
        v[idx] = 1
        images.append(tuple(v))
    return RingMap(source, target, images)


def augmentation_map(source: Ring):
    """F_p[G] -> F_p sending every group element to 1."""
    target = fp_field(require_algebra(source, "the augmentation").p)
    images = [(1,)] * source.dim
    return RingMap(source, target, images)
