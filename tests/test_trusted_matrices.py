"""The trusted matrix constructor against the checked one.

Every producer that builds its result through `IntMatrix._owned` or
`FpMatrix._owned` must return exactly what the checked constructor returns
on the same entries: the same `rows`, `cols`, entries (`data`) and stored
rows, entries reduced mod p over F_p.  Integer and odd-p rows are lists,
which must be fresh and share nothing with the operands.  F_2 rows are
ints, one bit per column, which must lie below 2**cols; an int cannot be
written into, so over F_2 only the list of rows has to be fresh.
`kron` multiplies entries without reducing them over Z; over F_p its
entries are reduced as they are formed, and its case checks them against
the checked constructor on the unreduced products.
"""

import random

import pytest

from functor_homology.fplinalg import FpMatrix, fp_from_columns, rref
from functor_homology.intlinalg import IntMatrix, from_columns, hstack, snf

SEEDS = range(8)


def int_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols, [[rng.randint(-bound, bound) for _ in range(cols)]
                                  for _ in range(rows)])


def fp_matrix(rng, p, rows, cols):
    # entries outside [0, p) so that the checked constructor has to reduce
    return FpMatrix(p, rows, cols, [[rng.randint(-3 * p, 3 * p) for _ in range(cols)]
                                    for _ in range(rows)])


def assert_as_checked(m, *operands):
    """m equals the checked constructor on its own entries, and owns its
    rows."""
    if isinstance(m, FpMatrix):
        checked = FpMatrix(m.p, m.rows, m.cols, m.data)
        assert (m.p, m.rows, m.cols) == (checked.p, checked.rows, checked.cols)
        assert m._rows == checked._rows
        assert len(m._rows) == m.rows
        if m.p == 2:
            assert all(type(r) is int and 0 <= r < 1 << m.cols for r in m._rows)
        else:
            assert all(0 <= x < m.p for r in m.data for x in r)
        rows = m._rows
        shared_rows = [op._rows for op in operands]
    else:
        checked = IntMatrix(m.rows, m.cols, m.data)
        assert (m.rows, m.cols) == (checked.rows, checked.cols)
        rows = m.data
        shared_rows = [op.data for op in operands]
    assert m.data == checked.data
    assert type(m.data) is list and all(type(r) is list for r in m.data)
    assert type(rows) is list and not any(rows is op for op in shared_rows)
    if not (isinstance(m, FpMatrix) and m.p == 2):
        shared = {id(r) for op in shared_rows for r in op}
        assert len({id(r) for r in rows}) == len(rows)
        assert not any(id(r) in shared for r in rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_producers_match_checked(seed):
    rng = random.Random(seed)
    m, k, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    A, B, C = int_matrix(rng, m, k), int_matrix(rng, k, n), int_matrix(rng, m, k)
    assert_as_checked(A.mul(B), A, B)
    assert_as_checked(A.add(C), A, C)
    assert_as_checked(A.scale(rng.randint(-5, 5)), A)
    assert_as_checked(A.transpose(), A)
    assert_as_checked(IntMatrix.identity(n))
    assert_as_checked(IntMatrix.zeros(m, n))
    assert_as_checked(hstack([A, C]), A, C)
    assert_as_checked(A.kron(B), A, B)
    assert_as_checked(IntMatrix.from_blocks(m + k, k + n, [(0, 0, A), (m, k, B)]), A, B)
    cols = [A.col(j) for j in range(A.cols)]
    assert_as_checked(from_columns(cols, m))
    assert from_columns(cols, m) == A
    res = snf(A)
    for out in (res.U, res.D, res.V):
        assert_as_checked(out, A)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_producers_match_checked(seed, p):
    rng = random.Random(seed)
    m, k, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    A, B, C = fp_matrix(rng, p, m, k), fp_matrix(rng, p, k, n), fp_matrix(rng, p, m, k)
    assert_as_checked(A.mul(B), A, B)
    assert_as_checked(A.add(C), A, C)
    assert_as_checked(A.scale(rng.randint(-2 * p, 2 * p)), A)
    assert_as_checked(FpMatrix.identity(p, n))
    assert_as_checked(FpMatrix.zeros(p, m, n))
    raw_cols = [[rng.randint(-3 * p, 3 * p) for _ in range(m)] for _ in range(n)]
    X = fp_from_columns(p, raw_cols, m)
    assert_as_checked(X)
    assert X == FpMatrix(p, m, n, [[c[i] for c in raw_cols] for i in range(m)])
    R, _ = rref(A)
    assert_as_checked(R, A)
    assert_as_checked(A.kron(B), A, B)
    assert_as_checked(A.submatrix(range(m - 1, -1, -1), range(k)), A)
    assert_as_checked(A.submatrix(range(m), [j for j in range(k) if j % 2]), A)
    assert_as_checked(FpMatrix.from_blocks(p, m + k, k + n, [(0, 0, A), (m, k, B)]), A, B)


@pytest.mark.parametrize("seed", SEEDS)
def test_fp_kron_reduces_its_products(seed):
    # the products of entries in [0, p) reach p^2 - 2p + 1; kron must give
    # what the checked constructor makes of them unreduced
    rng = random.Random(seed)
    for p in (2, 5):
        A = fp_matrix(rng, p, rng.randint(1, 3), rng.randint(1, 3))
        B = fp_matrix(rng, p, rng.randint(1, 3), rng.randint(1, 3))
        K = A.kron(B)
        raw = [[A.data[i][k] * B.data[j][l] for k in range(A.cols) for l in range(B.cols)]
               for i in range(A.rows) for j in range(B.rows)]
        assert_as_checked(K, A, B)
        assert K == FpMatrix(p, len(raw), A.cols * B.cols, raw)
