"""Exact integer matrix arithmetic: Smith normal form, solving, kernels.

All entries are Python ints (arbitrary precision).  Matrices are dense,
row-major lists of lists.  Everything here is pure and total; callers own
shape checking unless a function documents otherwise.

Two constructors.  `IntMatrix(rows, cols, data)` is the checked one: it
raises ShapeError unless data is rows x cols and copies every row, so it
serves all outside input.  `IntMatrix._owned(rows, cols, data)` is the
trusted one, for producers in this package whose output holds its
invariant by construction: `data` is a fresh list of fresh rows that no
one else holds (the matrix takes ownership and never copies it), with
exactly `rows` rows of `cols` entries each.  Here its producers are
`mul`, `add`, `scale`, `kron`, `identity`, `zeros`, `from_blocks`,
`transpose`, `hstack`, `from_columns` (after its column-length check)
and the Smith normal form (U, D, V, and U^-1 from
`SnfResult.u_inverse`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError, check_shape


class IntMatrix:
    """Immutable-by-convention dense integer matrix; the constructor raises
    ShapeError when data is not rows x cols."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        check_shape(rows, cols, data)
        self.rows = rows
        self.cols = cols
        self.data = [list(r) for r in data]

    @classmethod
    def _owned(cls, rows, cols, data):
        """The trusted constructor (see the module docstring): no check, no
        copy."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        return cls._owned(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls._owned(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_blocks(cls, rows, cols, placed):
        """The rows x cols sum of the blocks in placed, each (roff, coff,
        block) putting block's entry (i, j) at (roff + i, coff + j).  A
        block that does not fit raises ShapeError."""
        out = [[0] * cols for _ in range(rows)]
        for roff, coff, b in placed:
            if min(roff, coff) < 0 or roff + b.rows > rows or coff + b.cols > cols:
                raise ShapeError(f"a {b.rows}x{b.cols} block at {(roff, coff)} "
                                 f"does not fit a {rows}x{cols} matrix")
            for i, r in enumerate(b.data, roff):
                oi = out[i]
                for j, x in enumerate(r, coff):
                    oi[j] += x
        return cls._owned(rows, cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def transpose(self):
        return IntMatrix._owned(
            self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        a, b = self.data, other.data
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            ai, oi = a[i], out[i]
            for k in range(self.cols):
                x = ai[k]
                if x:
                    bk = b[k]
                    for j in range(other.cols):
                        oi[j] += x * bk[j]
        return IntMatrix._owned(self.rows, other.cols, out)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix sum: shapes do not match")
        return IntMatrix._owned(self.rows, self.cols,
                                [[x + y for x, y in zip(r, s)]
                                 for r, s in zip(self.data, other.data)])

    def scale(self, c):
        return IntMatrix._owned(self.rows, self.cols,
                                [[c * x for x in r] for r in self.data])

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ShapeError(f"vector of length {len(v)} for {self.cols} columns")
        return [sum(r[j] * v[j] for j in range(self.cols)) for r in self.data]

    def kron(self, other):
        """The Kronecker product: entry (i.other.rows + j, k.other.cols + l)
        is self[i][k] * other[j][l]."""
        return IntMatrix._owned(self.rows * other.rows, self.cols * other.cols,
                                [[x * y for x in r for y in s]
                                 for r in self.data for s in other.data])

    def col(self, j):
        return [r[j] for r in self.data]

    def is_zero(self):
        return all(x == 0 for r in self.data for x in r)


def hstack(mats):
    """Concatenate matrices left to right (equal row counts)."""
    mats = [m for m in mats]
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack needs equal row counts")
    data = [[] for _ in range(rows)]
    for m in mats:
        for i in range(rows):
            data[i].extend(m.data[i])
    return IntMatrix._owned(rows, sum(m.cols for m in mats), data)


def from_columns(cols, rows):
    """Matrix with the given columns (each a length-`rows` vector); a column
    of another length raises ShapeError."""
    for j, c in enumerate(cols):
        if len(c) != rows:
            raise ShapeError(f"column {j} must have {rows} entries, got {len(c)}")
    return IntMatrix._owned(rows, len(cols), [[c[i] for c in cols] for i in range(rows)])


@dataclass
class SnfResult:
    """U*A*V = D with U, V unimodular and D in Smith normal form.

    Nonzero diagonal entries of D are positive, come first, and divide
    each other in order.  det(U) and det(V) are +-1.  U is the product of the
    elementary row operations in `row_ops`, in order: ("swap", i, j),
    ("add", src, dst, q) for row[dst] += q * row[src], and ("neg", i);
    `u_inverse` undoes them to give U^-1 without a second reduction.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    row_ops: list

    def u_inverse(self) -> IntMatrix:
        """U^-1 = E_1^-1 ... E_k^-1 for U = E_k ... E_1: the inverse row
        operations replayed, in order, as column operations on I.  They run
        here as row operations on the transpose, which is flipped at the
        end."""
        m = self.U.rows
        t = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for op in self.row_ops:
            if op[0] == "swap":
                _, i, j = op
                t[i], t[j] = t[j], t[i]
            elif op[0] == "add":
                # column src of U^-1 loses q times column dst
                _, src, dst, q = op
                t[src] = [x - q * y for x, y in zip(t[src], t[dst])]
            else:
                t[op[1]] = [-x for x in t[op[1]]]
        return IntMatrix._owned(m, m, [list(r) for r in zip(*t)])

    @property
    def rank(self):
        n = min(self.D.rows, self.D.cols)
        return sum(1 for i in range(n) if self.D.data[i][i] != 0)

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return [self.D.data[i][i] for i in range(n)]


def snf(A: IntMatrix) -> SnfResult:
    """Smith normal form by elementary row/column operations.

    Pivot selection: smallest nonzero absolute value, topmost then
    leftmost on ties, so the output is deterministic.
    """
    m, n = A.rows, A.cols
    D = [list(r) for r in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    row_ops = []

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]
            row_ops.append(("swap", i, j))

    def swap_cols(i, j):
        if i != j:
            for r in D:
                r[i], r[j] = r[j], r[i]
            for r in V:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        Ds, Dd = D[src], D[dst]
        for j in range(n):
            Dd[j] += q * Ds[j]
        Us, Ud = U[src], U[dst]
        for j in range(m):
            Ud[j] += q * Us[j]
        row_ops.append(("add", src, dst, q))

    def add_col(src, dst, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        row_ops.append(("neg", i))

    k = 0
    while k < m and k < n:
        # locate pivot in the trailing submatrix
        piv = None
        for i in range(k, m):
            Di = D[i]
            for j in range(k, n):
                x = Di[j]
                if x != 0 and (piv is None or abs(x) < piv[0]):
                    piv = (abs(x), i, j)
        if piv is None:
            break
        swap_rows(k, piv[1])
        swap_cols(k, piv[2])

        while True:
            # clear column k below the pivot, then row k right of it;
            # restart whenever a remainder shrinks the pivot
            restart = False
            for i in range(k + 1, m):
                a = D[i][k]
                if a:
                    q = a // D[k][k]
                    add_row(k, i, -q)
                    if D[i][k]:
                        swap_rows(k, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, n):
                a = D[k][j]
                if a:
                    q = a // D[k][k]
                    add_col(k, j, -q)
                    if D[k][j]:
                        swap_cols(k, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the rest of the submatrix
            d = D[k][k]
            bad = None
            for i in range(k + 1, m):
                Di = D[i]
                for j in range(k + 1, n):
                    if Di[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, k, 1)
        if D[k][k] < 0:
            negate_row(k)
        k += 1

    return SnfResult(IntMatrix._owned(m, m, U), IntMatrix._owned(m, n, D),
                     IntMatrix._owned(n, n, V), row_ops)


def kernel_basis(A: IntMatrix) -> list[list[int]]:
    """Basis (list of column vectors) of { x : A*x = 0 } over the integers.

    The returned vectors generate the full kernel lattice, not just a
    finite-index sublattice.
    """
    res = snf(A)
    r = res.rank
    return [res.V.col(j) for j in range(r, A.cols)]


def solve_snf(res: SnfResult, b: list[int]):
    """Solve A*x = b given a precomputed SnfResult for A."""
    c = res.U.mul_vec(b)
    r = res.rank
    cols = res.V.rows
    y = [0] * cols
    for i in range(min(res.D.rows, cols)):
        d = res.D.data[i][i]
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
    for i in range(r, res.D.rows):
        if c[i] != 0:
            return None
    return res.V.mul_vec(y)


def solve(A: IntMatrix, b: list[int]):
    """One integer solution of A*x = b, or None when none exists; a b of
    the wrong length raises ShapeError."""
    if len(b) != A.rows:
        raise ShapeError(f"{len(b)}-vector for a {A.rows}-row matrix")
    return solve_snf(snf(A), b)
