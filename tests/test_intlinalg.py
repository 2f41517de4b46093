import random

import pytest
from hypothesis import given, settings, strategies as st

from functor_homology.errors import ShapeError
from functor_homology.intlinalg import IntMatrix, kernel_basis, snf, solve
from oracle import (brute_solve_int, det_sign_of_unimodular,
                    invariant_factors_by_minors)

matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-10, 10), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def check_snf_contract(data):
    A = IntMatrix.from_rows(data)
    res = snf(A)
    assert res.U.mul(A).mul(res.V) == res.D
    assert det_sign_of_unimodular(res.U) in (1, -1)
    assert det_sign_of_unimodular(res.V) in (1, -1)
    diag = res.diagonal()
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail the nonzero entries
    assert diag[:len(nonzero)] == nonzero


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_snf_contract_random(data):
    check_snf_contract(data)


def test_snf_identity_and_zero():
    res = snf(IntMatrix.identity(3))
    assert res.D == IntMatrix.identity(3)
    res = snf(IntMatrix.zeros(2, 2))
    assert res.D == IntMatrix.zeros(2, 2)
    assert res.U == IntMatrix.identity(2)
    assert res.V == IntMatrix.identity(2)


def test_snf_diag_2_3():
    res = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.diagonal() == [1, 6]
    # independent oracle: products of invariant factors = gcds of minors
    assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_invariant_factors_match_minors(data):
    res = snf(IntMatrix.from_rows(data))
    assert [d for d in res.diagonal() if d] == invariant_factors_by_minors(data)


def test_solve_examples():
    assert solve(IntMatrix.from_rows([[2]]), [4]) == [2]
    assert solve(IntMatrix.from_rows([[2]]), [3]) is None
    A = [[1, 2], [3, 4]]
    x = solve(IntMatrix.from_rows(A), [1, 1])
    assert x == brute_solve_int(A, [1, 1]) or (
        x is not None and [sum(r[j] * x[j] for j in range(2)) for r in A] == [1, 1])


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # the shape error of every other check in intlinalg and fplinalg
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    for b in ([1], [1, 2, 3], []):
        with pytest.raises(ShapeError, match=f"^{len(b)}-vector for a 2-row matrix$"):
            solve(A, b)


def test_solve_consistency_random():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        data = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(data)
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = A.mul_vec(x)
        y = solve(A, b)
        assert y is not None and A.mul_vec(y) == b


def test_kernel_basis_generates_whole_kernel():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        data = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(data)
        basis = kernel_basis(A)
        for v in basis:
            assert A.mul_vec(v) == [0] * m
        # every small kernel vector in a box must be an integer combination
        from itertools import product as iproduct
        for x in iproduct(range(-2, 3), repeat=n):
            if A.mul_vec(list(x)) == [0] * m:
                if basis:
                    K = IntMatrix.from_rows(
                        [[basis[j][i] for j in range(len(basis))]
                         for i in range(n)])
                    assert solve(K, list(x)) is not None
                else:
                    assert all(v == 0 for v in x)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_snf_u_inverse(m, n, data):
    # U^-1 replayed from the recorded row operations, on any m x n input
    # (0 x n and m x 0 included): a two-sided inverse of U
    rows = data.draw(st.lists(st.lists(st.integers(-10, 10), min_size=n,
                                       max_size=n), min_size=m, max_size=m))
    res = snf(IntMatrix(m, n, rows))
    inv = res.u_inverse()
    assert (inv.rows, inv.cols) == (m, m)
    assert res.U.mul(inv) == IntMatrix.identity(m)
    assert inv.mul(res.U) == IntMatrix.identity(m)
