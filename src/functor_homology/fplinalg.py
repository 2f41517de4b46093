"""Dense linear algebra over a prime field F_p.

Entries are ints reduced into [0, p).  Two eliminators: `rref` reduces a
whole matrix and serves `kernel_basis` and `rank`; `Span` grows an echelon
basis one vector at a time and answers every membership, coordinate and
basis-extension question.  `solver(A)` spans A's columns once and returns
the map from a right-hand side to its coordinates; `solve` and
`solve_matrix` go through it.  Both scan in a fixed order (rref: columns left
to right; Span: insertion order), so every derived basis is deterministic,
and Span keeps exactly rref's pivot columns.  Shape mismatches raise
`ShapeError`, also under `python -O`.

Two constructors.  `FpMatrix(p, rows, cols, data)` is the checked one: it
tests that p is prime, raises ShapeError unless data is rows x cols, and
copies every row reducing each entry mod p, so it serves all outside input
(and products such as `kron` whose entries arrive unreduced).
`FpMatrix._owned(p, rows, cols, data)` is the trusted one, for producers
in this package whose output holds its invariant by construction: p is a
prime already checked, and `data` is a fresh list of fresh rows that no one
else holds (the matrix takes ownership and never copies it), with exactly
`rows` rows of `cols` entries, each already reduced into [0, p).  Here its
producers are `mul`, `add`, `scale`, `identity`, `zeros`, `rref` and
`fp_from_columns` (after its column-length check).
"""

from __future__ import annotations

from .errors import ShapeError, check_shape


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p, rows, cols, data):
        if not is_prime(p):
            raise ShapeError(f"{p} is not prime")
        check_shape(rows, cols, data)
        self.p = p
        self.rows = rows
        self.cols = cols
        self.data = [[x % p for x in r] for r in data]

    @classmethod
    def _owned(cls, p, rows, cols, data):
        """The trusted constructor (see the module docstring): no check, no
        copy, no reduction."""
        m = object.__new__(cls)
        m.p = p
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def identity(cls, p, n):
        return cls._owned(p, n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, p, rows, cols):
        return cls._owned(p, rows, cols, [[0] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols}, {self.data})"

    def mul(self, other):
        if self.cols != other.rows or self.p != other.p:
            raise ShapeError("matrix product: shapes or primes do not match")
        p = self.p
        a, b = self.data, other.data
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            ai, oi = a[i], out[i]
            for k in range(self.cols):
                x = ai[k]
                if x:
                    bk = b[k]
                    for j in range(other.cols):
                        oi[j] = (oi[j] + x * bk[j]) % p
        return FpMatrix._owned(p, self.rows, other.cols, out)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ShapeError(f"{self.cols}-column matrix times a {len(v)}-vector")
        p = self.p
        return [sum(r[j] * v[j] for j in range(self.cols)) % p for r in self.data]

    def add(self, other):
        if (self.rows, self.cols, self.p) != (other.rows, other.cols, other.p):
            raise ShapeError("matrix sum: shapes or primes do not match")
        p = self.p
        return FpMatrix._owned(p, self.rows, self.cols,
                               [[(x + y) % p for x, y in zip(r, s)]
                                for r, s in zip(self.data, other.data)])

    def scale(self, c):
        p = self.p
        return FpMatrix._owned(p, self.rows, self.cols,
                               [[(c * x) % p for x in r] for r in self.data])

    def col(self, j):
        return [r[j] for r in self.data]

    def is_zero(self):
        return all(x == 0 for r in self.data for x in r)


def fp_from_columns(p, cols, rows):
    """The rows x len(cols) matrix with the given columns (rows x 0 if none),
    entries reduced mod p; a column of another length raises ShapeError."""
    for j, c in enumerate(cols):
        if len(c) != rows:
            raise ShapeError(f"column {j} must have {rows} entries, got {len(c)}")
    return FpMatrix._owned(p, rows, len(cols),
                           [[c[i] % p for c in cols] for i in range(rows)])


def unit_vectors(n):
    """The standard basis of F_p^n, as lists."""
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def rref(A: FpMatrix):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    p = A.p
    R = [list(r) for r in A.data]
    pivots = []
    r = 0
    for c in range(A.cols):
        if r >= A.rows:
            break
        pr = None
        for i in range(r, A.rows):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [(x * inv) % p for x in R[r]]
        for i in range(A.rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return FpMatrix._owned(p, A.rows, A.cols, R), pivots


def rank(A: FpMatrix) -> int:
    return len(rref(A)[1])


def kernel_basis(A: FpMatrix) -> list[list[int]]:
    """Basis vectors (columns) of the right kernel { x : A*x = 0 }."""
    p = A.p
    R, pivots = rref(A)
    free = [j for j in range(A.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * A.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R.data[r][f]) % p
        basis.append(v)
    return basis


class Span:
    """The subspace of F_p^dim (p prime) spanned by the inserted vectors.

    `basis` lists the inserted vectors independent of those before them, in
    order.  Echelon row k is basis[k] reduced by rows 0..k-1 and scaled to a
    leading 1 at its pivot, where no later row is nonzero; so one pass over
    the rows reduces a vector, and the reduction factors give coordinates.
    """

    __slots__ = ("p", "dim", "basis", "_rows", "_factors", "_scales")

    def __init__(self, p, dim, vectors=()):
        self.p = p
        self.dim = dim
        self.basis = []
        self._rows = []  # (pivot, row entries from the pivot on)
        self._factors = []  # row k's reduction factors over rows 0..k-1
        self._scales = []  # row k = scale * (basis[k] - sum factor * row)
        for v in vectors:
            self.insert(v)

    def __len__(self):
        return len(self.basis)

    def _reduce(self, v):
        """(residual, factors): v = residual + sum factors[k] * row k."""
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

    def insert(self, v) -> bool:
        """Add v; True when it was not already in the span."""
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

    def contains(self, v) -> bool:
        return not any(self._reduce(v)[0])

    def coords(self, v):
        """The unique coefficients of v over `basis`, or None if v is
        outside the span."""
        w, factors = self._reduce(v)
        if any(w):
            return None
        p = self.p
        out = [0] * len(factors)
        # unfold the rows into basis vectors, last row first
        for k in range(len(factors) - 1, -1, -1):
            a = factors[k] * self._scales[k] % p
            if a:
                out[k] = a
                for j, f in enumerate(self._factors[k]):
                    if f:
                        factors[j] = (factors[j] - a * f) % p
        return out


def solver(A: FpMatrix):
    """b -> the solution of A*x = b supported on A's pivot columns, or
    None; one span of A's columns serves every right-hand side."""
    span = Span(A.p, A.rows)
    pivots = [j for j in range(A.cols) if span.insert(A.col(j))]

    def solve_one(b):
        c = span.coords(b)
        if c is None:
            return None
        x = [0] * A.cols
        for j, cj in zip(pivots, c):
            x[j] = cj
        return x

    return solve_one


def solve(A: FpMatrix, b: list[int]):
    """One solution of A*x = b (free variables zero), or None."""
    return solver(A)(b)


def solve_matrix(A: FpMatrix, B: FpMatrix):
    """X with A*X = B (columnwise), or None if some column is unsolvable."""
    if A.rows != B.rows or A.p != B.p:
        raise ShapeError("solve_matrix: rows or primes do not match")
    solve_one = solver(A)
    cols = [solve_one(B.col(j)) for j in range(B.cols)]
    return None if None in cols else fp_from_columns(A.p, cols, A.cols)


def inverse(A: FpMatrix):
    if A.rows != A.cols:
        raise ShapeError(f"a {A.rows}x{A.cols} matrix has no inverse")
    X = solve_matrix(A, FpMatrix.identity(A.p, A.rows))
    if X is None:
        raise ShapeError("matrix not invertible")
    return X
