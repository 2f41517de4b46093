"""Dense linear algebra over a prime field F_p.

Entries are ints reduced into [0, p).  Row reduction scans columns left to
right and rows top to bottom, so pivots (and hence every derived basis)
are deterministic.
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
    def identity(cls, p, n):
        return cls(p, n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, p, rows, cols):
        return cls(p, rows, cols, [[0] * cols for _ in range(rows)])

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

    def transpose(self):
        return FpMatrix(
            self.p, self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def mul(self, other):
        assert self.cols == other.rows and self.p == other.p
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
        return FpMatrix(self.p, self.rows, other.cols, out)

    def mul_vec(self, v):
        assert len(v) == self.cols
        p = self.p
        return [sum(r[j] * v[j] for j in range(self.cols)) % p for r in self.data]

    def add(self, other):
        assert self.rows == other.rows and self.cols == other.cols and self.p == other.p
        p = self.p
        return FpMatrix(p, self.rows, self.cols,
                        [[(x + y) % p for x, y in zip(r, s)]
                         for r, s in zip(self.data, other.data)])

    def scale(self, c):
        p = self.p
        return FpMatrix(p, self.rows, self.cols, [[(c * x) % p for x in r] for r in self.data])

    def col(self, j):
        return [r[j] for r in self.data]

    def is_zero(self):
        return all(x == 0 for r in self.data for x in r)


def fp_from_columns(p, cols, rows):
    return FpMatrix(p, rows, len(cols), [[c[i] % p for c in cols] for i in range(rows)])


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
    return FpMatrix(p, A.rows, A.cols, R), pivots


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


def solve(A: FpMatrix, b: list[int]):
    """One solution of A*x = b, or None."""
    assert len(b) == A.rows
    aug = FpMatrix(A.p, A.rows, A.cols + 1,
                   [row + [bi] for row, bi in zip(A.data, b)])
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [0] * A.cols
    for r, c in enumerate(pivots):
        x[c] = R.data[r][A.cols]
    return x


def solve_matrix(A: FpMatrix, B: FpMatrix):
    """X with A*X = B (columnwise), or None if some column is unsolvable."""
    assert A.rows == B.rows and A.p == B.p
    cols = []
    for j in range(B.cols):
        x = solve(A, B.col(j))
        if x is None:
            return None
        cols.append(x)
    return fp_from_columns(A.p, cols, A.cols)


def column_space_basis(A: FpMatrix) -> list[list[int]]:
    """Deterministic basis of the column span (subset of A's columns)."""
    _, pivots = rref(A)
    return [A.col(j) for j in pivots]


def inverse(A: FpMatrix):
    assert A.rows == A.cols
    X = solve_matrix(A, FpMatrix.identity(A.p, A.rows))
    assert X is not None, "matrix not invertible"
    return X
