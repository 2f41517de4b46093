"""Linear algebra over a prime field F_p, in two row layouts.

Over F_2 each row of a matrix is one Python int whose bit j holds column
j: a sum is an XOR of rows, and row i of a product is the XOR of the rows
of the right factor picked out by the bits of row i of the left one (the
packed rows of M4RI; Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS
2010).  Over an odd prime each row is a list of ints reduced into [0, p).
The constructors choose the layout from p, and every operation here works
in it without converting; vectors going in and out (`mul_vec`, `col`,
`kernel_basis`, `Span`) are lists of ints in both layouts.
`FpMatrix.data` is the entries as a list of row lists, for printing and
for tests: over F_2 a view built on first read and kept (writing into it
does not change the matrix), over an odd prime the rows themselves.  No
code of this package outside this module reads it.

Two eliminators: `rref` reduces a whole matrix and serves `kernel_basis`
and `rank`; `Span` grows an echelon basis one vector at a time and
answers every membership, coordinate and basis-extension question.
`solver(A)` spans A's columns once and returns the map from a right-hand
side to its coordinates; `solve` goes through it, and `solve_matrix`
reduces every column of its right-hand side in one such span.  Both
scan in a fixed order (rref: columns left to right; Span: insertion
order), so every derived basis is deterministic, and Span keeps exactly
rref's pivot columns.  Shape mismatches raise `ShapeError`, also under
`python -O`.

Two constructors.  `FpMatrix(p, rows, cols, data)` is the checked one: it
tests that p is prime, raises ShapeError unless data is rows x cols, and
copies every row into p's layout, reducing each entry mod p, so it serves
all outside input.  `FpMatrix._owned(p, rows, cols, store)` is the
trusted one, for producers in this module whose output holds its
invariant by construction: p is a prime already checked, and `store` is a
fresh list of exactly `rows` rows in p's layout (ints below 2**cols over
F_2; over an odd prime fresh lists of `cols` entries in [0, p) that no
one else holds), which the matrix takes without copying.  Its producers
are `mul`, `add`, `scale`, `kron`, `submatrix`, `identity`, `zeros`,
`from_blocks`, `rref`, `solve_matrix` and `fp_from_columns` (after its
column-length check).
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


def _pack(v):
    """The F_2 row of a vector of ints: bit j is v[j] mod 2."""
    return sum([1 << j for j, x in enumerate(v) if x & 1])


def _unpack(x, n):
    """The n entries of an F_2 row, as a list."""
    return [(x >> j) & 1 for j in range(n)]


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "_rows", "_data")

    def __init__(self, p, rows, cols, data):
        if not is_prime(p):
            raise ShapeError(f"{p} is not prime")
        check_shape(rows, cols, data)
        self.p = p
        self.rows = rows
        self.cols = cols
        if p == 2:
            self._rows = [_pack(r) for r in data]
        else:
            self._rows = [[x % p for x in r] for r in data]
        self._data = None

    @classmethod
    def _owned(cls, p, rows, cols, store):
        """The trusted constructor (see the module docstring): no check, no
        copy, no reduction."""
        m = object.__new__(cls)
        m.p = p
        m.rows = rows
        m.cols = cols
        m._rows = store
        m._data = None
        return m

    @property
    def data(self):
        """The entries as a list of row lists (see the module docstring)."""
        if self.p != 2:
            return self._rows
        if self._data is None:
            self._data = [_unpack(r, self.cols) for r in self._rows]
        return self._data

    @classmethod
    def identity(cls, p, n):
        if p == 2:
            return cls._owned(p, n, n, [1 << i for i in range(n)])
        return cls._owned(p, n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, p, rows, cols):
        if p == 2:
            return cls._owned(p, rows, cols, [0] * rows)
        return cls._owned(p, rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_blocks(cls, p, rows, cols, placed):
        """The rows x cols sum of the blocks in placed, each (roff, coff,
        block) putting block's entry (i, j) at (roff + i, coff + j).  A
        block that does not fit raises ShapeError."""
        for roff, coff, b in placed:
            if (b.p != p or min(roff, coff) < 0 or roff + b.rows > rows
                    or coff + b.cols > cols):
                raise ShapeError(f"a {b.rows}x{b.cols} block at {(roff, coff)} "
                                 f"does not fit a {rows}x{cols} matrix over F_{p}")
        if p == 2:
            out = [0] * rows
            for roff, coff, b in placed:
                for i, r in enumerate(b._rows, roff):
                    out[i] ^= r << coff
        else:
            out = [[0] * cols for _ in range(rows)]
            for roff, coff, b in placed:
                for i, r in enumerate(b._rows, roff):
                    oi = out[i]
                    for j, x in enumerate(r, coff):
                        if x:
                            oi[j] = (oi[j] + x) % p
        return cls._owned(p, rows, cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols}, {self.data})"

    def mul(self, other):
        if self.cols != other.rows or self.p != other.p:
            raise ShapeError("matrix product: shapes or primes do not match")
        p = self.p
        b = other._rows
        if p == 2:
            out = []
            for r in self._rows:
                acc = 0
                while r:
                    low = r & -r
                    acc ^= b[low.bit_length() - 1]
                    r ^= low
                out.append(acc)
            return FpMatrix._owned(p, self.rows, other.cols, out)
        out = [[0] * other.cols for _ in range(self.rows)]
        for ai, oi in zip(self._rows, out):
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
        if p == 2:
            x = _pack(v)
            return [(r & x).bit_count() & 1 for r in self._rows]
        return [sum(r[j] * v[j] for j in range(self.cols)) % p for r in self._rows]

    def add(self, other):
        if (self.rows, self.cols, self.p) != (other.rows, other.cols, other.p):
            raise ShapeError("matrix sum: shapes or primes do not match")
        p = self.p
        if p == 2:
            return FpMatrix._owned(p, self.rows, self.cols,
                                   [r ^ s for r, s in zip(self._rows, other._rows)])
        return FpMatrix._owned(p, self.rows, self.cols,
                               [[(x + y) % p for x, y in zip(r, s)]
                                for r, s in zip(self._rows, other._rows)])

    def scale(self, c):
        p = self.p
        if p == 2:
            return FpMatrix._owned(p, self.rows, self.cols,
                                   list(self._rows) if c & 1 else [0] * self.rows)
        return FpMatrix._owned(p, self.rows, self.cols,
                               [[(c * x) % p for x in r] for r in self._rows])

    def kron(self, other):
        """The Kronecker product: entry (i.other.rows + j, k.other.cols + l)
        is self[i][k] * other[j][l]."""
        if self.p != other.p:
            raise ShapeError("Kronecker product: primes do not match")
        p = self.p
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if p == 2:
            out = []
            for r in self._rows:
                shifts = [k * other.cols for k in range(self.cols) if r >> k & 1]
                for s in other._rows:
                    acc = 0
                    for sh in shifts:
                        acc |= s << sh
                    out.append(acc)
            return FpMatrix._owned(p, rows, cols, out)
        return FpMatrix._owned(p, rows, cols, [[x * y % p for x in r for y in s]
                                               for r in self._rows for s in other._rows])

    def submatrix(self, rows, cols):
        """The matrix of the entries in the given rows and columns (index
        sequences, in their order); an index out of range raises
        ShapeError."""
        rows, cols = list(rows), list(cols)
        for idx, n in ((rows, self.rows), (cols, self.cols)):
            if idx and not (0 <= min(idx) and max(idx) < n):
                raise ShapeError(f"indices {idx} outside a {self.rows}x{self.cols} matrix")
        src = self._rows
        if self.p == 2:
            n = len(cols)
            if n and cols == list(range(cols[0], cols[0] + n)):
                lo, mask = cols[0], (1 << n) - 1
                out = [(src[a] >> lo) & mask for a in rows]
            else:
                out = [sum([1 << b for b, c in enumerate(cols) if src[a] >> c & 1])
                       for a in rows]
        else:
            out = [[src[a][c] for c in cols] for a in rows]
        return FpMatrix._owned(self.p, len(rows), len(cols), out)

    def col(self, j):
        if self.p == 2:
            return [(r >> j) & 1 for r in self._rows]
        return [r[j] for r in self._rows]

    def is_zero(self):
        if self.p == 2:
            return not any(self._rows)
        return all(x == 0 for r in self._rows for x in r)


def fp_from_columns(p, cols, rows):
    """The rows x len(cols) matrix with the given columns (rows x 0 if none),
    entries reduced mod p; a column of another length raises ShapeError."""
    for j, c in enumerate(cols):
        if len(c) != rows:
            raise ShapeError(f"column {j} must have {rows} entries, got {len(c)}")
    if p == 2:
        out = [0] * rows
        for j, c in enumerate(cols):
            bit = 1 << j
            for i, x in enumerate(c):
                if x & 1:
                    out[i] |= bit
        return FpMatrix._owned(p, rows, len(cols), out)
    return FpMatrix._owned(p, rows, len(cols),
                           [[c[i] % p for c in cols] for i in range(rows)])


def unit_vectors(n):
    """The standard basis of F_p^n, as lists."""
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def rref(A: FpMatrix):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    p = A.p
    R = list(A._rows) if p == 2 else [list(r) for r in A._rows]
    pivots = []
    r = 0
    for c in range(A.cols):
        if r >= A.rows:
            break
        if p == 2:
            bit = 1 << c
            pr = next((i for i in range(r, A.rows) if R[i] & bit), None)
            if pr is None:
                continue
            R[r], R[pr] = R[pr], R[r]
            row = R[r]
            for i in range(A.rows):
                if i != r and R[i] & bit:
                    R[i] ^= row
        else:
            pr = next((i for i in range(r, A.rows) if R[i][c]), None)
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
    """Basis vectors (columns) of the right kernel { x : A*x = 0 }: one per
    free column of the rref, ascending, with a 1 there and zeros after it.
    So those ending before column c span the kernel of A's first c columns
    (padded with zeros), which `spectral.ss_pages` relies on."""
    p = A.p
    R, pivots = rref(A)
    free = [j for j in range(A.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * A.cols
        v[f] = 1
        for r, c in zip(R._rows, pivots):
            v[c] = (r >> f) & 1 if p == 2 else (-r[f]) % p
        basis.append(v)
    return basis


class Span:
    """The subspace of F_p^dim (p prime) spanned by the inserted vectors.

    `basis` lists the inserted vectors independent of those before them, in
    order.  Echelon row k is basis[k] reduced by rows 0..k-1 and scaled to a
    leading 1 at its pivot, where no later row is nonzero; so one pass over
    the rows reduces a vector.  Over an odd prime a row keeps its
    reduction factors and scale, and the factors of a reduction unfold
    into coordinates.  Over F_2 a row is one int, as in `FpMatrix`, and
    keeps its coordinates over `basis` as a bitmask, so the coordinates of
    a reduced vector are the XOR of the masks of the rows it used.
    """

    __slots__ = ("p", "dim", "basis", "_rows")

    def __init__(self, p, dim, vectors=()):
        self.p = p
        self.dim = dim
        self.basis = []
        # F_2: (pivot bit, row, coordinate mask); odd p: (pivot, row entries
        # from the pivot on, reduction factors over rows 0..k-1, scale) with
        # row = scale * (basis[k] - sum factor * row)
        self._rows = []
        for v in vectors:
            self.insert(v)

    def __len__(self):
        return len(self.basis)

    def _reduce(self, v):
        """(residual, factors): v = residual + sum factors[k] * row k; over
        F_2, (residual row, coordinate mask of v - residual)."""
        if len(v) != self.dim:
            raise ShapeError(f"{len(v)}-vector in a span inside F_p^{self.dim}")
        p = self.p
        if p == 2:
            return self._reduce_bits(_pack(v))
        w = [x % p for x in v]
        factors = []
        for c, row, _, _ in self._rows:
            f = w[c]
            factors.append(f)
            if f:
                w[c:] = [(x - f * y) % p for x, y in zip(w[c:], row)]
        return w, factors

    def _reduce_bits(self, w):
        """_reduce over F_2, of the row w."""
        mask = 0
        for bit, row, m in self._rows:
            if w & bit:
                w ^= row
                mask ^= m
        return w, mask

    def _push_bits(self, w, mask, v):
        """Over F_2, add v, whose reduction `_reduce_bits` gave (w, mask)
        with w nonzero."""
        self._rows.append((w & -w, w, mask ^ (1 << len(self.basis))))
        self.basis.append(v)

    def insert(self, v) -> bool:
        """Add v; True when it was not already in the span."""
        w, factors = self._reduce(v)
        p = self.p
        if p == 2:
            if w:
                self._push_bits(w, factors, v)
            return bool(w)
        c = next((j for j, x in enumerate(w) if x), None)
        if c is None:
            return False
        scale = pow(w[c], p - 2, p)
        self._rows.append((c, [(x * scale) % p for x in w[c:]], factors, scale))
        self.basis.append(v)
        return True

    def contains(self, v) -> bool:
        w = self._reduce(v)[0]
        return not w if self.p == 2 else not any(w)

    def coords(self, v):
        """The unique coefficients of v over `basis`, or None if v is
        outside the span."""
        w, factors = self._reduce(v)
        p = self.p
        if p == 2:
            return None if w else _unpack(factors, len(self.basis))
        if any(w):
            return None
        out = [0] * len(factors)
        # unfold the rows into basis vectors, last row first
        for k in range(len(factors) - 1, -1, -1):
            _, _, row_factors, scale = self._rows[k]
            a = factors[k] * scale % p
            if a:
                out[k] = a
                for j, f in enumerate(row_factors):
                    if f:
                        factors[j] = (factors[j] - a * f) % p
        return out


def _bit_columns(A: FpMatrix):
    """The columns of an F_2 matrix, each packed like a row."""
    cols = [0] * A.cols
    for i, r in enumerate(A._rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return cols


def _column_span(A: FpMatrix):
    """(the span of A's columns, A's pivot columns: those outside the span
    of the columns before them), in insertion order."""
    span = Span(A.p, A.rows)
    if A.p != 2:
        return span, [j for j in range(A.cols) if span.insert(A.col(j))]
    pivots = []
    for j, c in enumerate(_bit_columns(A)):
        w, mask = span._reduce_bits(c)
        if w:
            span._push_bits(w, mask, A.col(j))
            pivots.append(j)
    return span, pivots


def solver(A: FpMatrix):
    """b -> the solution of A*x = b supported on A's pivot columns, or
    None; one span of A's columns serves every right-hand side."""
    span, pivots = _column_span(A)

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
    if A.p != 2:
        solve_one = solver(A)
        cols = [solve_one(B.col(j)) for j in range(B.cols)]
        return None if None in cols else fp_from_columns(A.p, cols, A.cols)
    # over F_2 each column of B reduces as a packed row, and its
    # coordinate mask sets bit j of X's rows at A's pivot columns
    span, pivots = _column_span(A)
    out = [0] * A.cols
    for j, c in enumerate(_bit_columns(B)):
        w, mask = span._reduce_bits(c)
        if w:
            return None
        bit = 1 << j
        while mask:
            low = mask & -mask
            out[pivots[low.bit_length() - 1]] |= bit
            mask ^= low
    return FpMatrix._owned(2, A.cols, B.cols, out)


def inverse(A: FpMatrix):
    if A.rows != A.cols:
        raise ShapeError(f"a {A.rows}x{A.cols} matrix has no inverse")
    X = solve_matrix(A, FpMatrix.identity(A.p, A.rows))
    if X is None:
        raise ShapeError("matrix not invertible")
    return X
