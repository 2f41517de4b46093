"""The trusted matrix constructor against the checked one.

Every producer that builds its result through `IntMatrix._owned` or
`FpMatrix._owned` must return exactly what the checked constructor returns
on the same rows: the same `rows`, `cols` and `data`, entries reduced mod p
over F_p, in fresh row lists that share nothing with the operands.
`kron` is built from unreduced F_p products and stays on the checked
constructor; its case checks that the reduction still happens.
"""

import random

import pytest

from functor_homology.fplinalg import FpMatrix, fp_from_columns, rref
from functor_homology.intlinalg import IntMatrix, from_columns, hstack, snf
from functor_homology.modules import ring_ops
from functor_homology.rings import fp_field

SEEDS = range(8)


def int_matrix(rng, rows, cols, bound=9):
    return IntMatrix(rows, cols, [[rng.randint(-bound, bound) for _ in range(cols)]
                                  for _ in range(rows)])


def fp_matrix(rng, p, rows, cols):
    # entries outside [0, p) so that the checked constructor has to reduce
    return FpMatrix(p, rows, cols, [[rng.randint(-3 * p, 3 * p) for _ in range(cols)]
                                    for _ in range(rows)])


def assert_as_checked(m, *operands):
    """m equals the checked constructor on its own rows, and owns them."""
    if isinstance(m, FpMatrix):
        checked = FpMatrix(m.p, m.rows, m.cols, m.data)
        assert all(0 <= x < m.p for r in m.data for x in r)
        assert (m.p, m.rows, m.cols) == (checked.p, checked.rows, checked.cols)
    else:
        checked = IntMatrix(m.rows, m.cols, m.data)
        assert (m.rows, m.cols) == (checked.rows, checked.cols)
    assert m.data == checked.data
    assert type(m.data) is list and all(type(r) is list for r in m.data)
    shared = {id(r) for op in operands for r in op.data}
    assert len({id(r) for r in m.data}) == len(m.data)
    assert not any(id(r) in shared for r in m.data)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_fp_kron_reduces_its_products(seed):
    # kron multiplies entries in [0, p) without reducing; its checked
    # constructor must reduce them, unlike a trusted producer's input
    rng = random.Random(seed)
    p = 5
    ops = ring_ops(fp_field(p))
    A = fp_matrix(rng, p, rng.randint(1, 3), rng.randint(1, 3))
    B = fp_matrix(rng, p, rng.randint(1, 3), rng.randint(1, 3))
    K = ops.kron(A, B)
    raw = [[A.data[i][k] * B.data[j][l] for k in range(A.cols) for l in range(B.cols)]
           for i in range(A.rows) for j in range(B.rows)]
    assert_as_checked(K, A, B)
    assert K == FpMatrix(p, len(raw), A.cols * B.cols, raw)

