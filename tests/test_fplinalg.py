import os
import random
import subprocess
import sys
from itertools import product

import pytest

from functor_homology.errors import ShapeError
from functor_homology.fplinalg import (FpMatrix, Span, fp_from_columns,
                                       inverse, kernel_basis, rank, rref,
                                       solve, solve_matrix)
from oracle import enumerate_fp_kernel


def test_kernel_identity_empty():
    assert kernel_basis(FpMatrix.identity(2, 3)) == []


def test_kernel_zero_row():
    basis = kernel_basis(FpMatrix(2, 1, 3, [[0, 0, 0]]))
    assert len(basis) == 3


def test_kernel_f2_example():
    A = FpMatrix(2, 2, 2, [[1, 1], [1, 1]])
    basis = kernel_basis(A)
    assert basis == [[1, 1]]
    # enumeration oracle: kernel = {(0,0), (1,1)}
    assert sorted(enumerate_fp_kernel(2, [[1, 1], [1, 1]])) == [[0, 0], [1, 1]]


def test_kernel_matches_enumeration_random():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice((2, 3))
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        data = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
        A = FpMatrix(p, m, n, data)
        found = kernel_basis(A)
        want = enumerate_fp_kernel(p, data)
        assert p ** len(found) == len(want)
        for v in found:
            assert A.mul_vec(v) == [0] * m


def test_solve_and_inverse():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        data = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(n)]
        A = FpMatrix(p, n, n, data)
        x = [rng.randint(0, p - 1) for _ in range(n)]
        b = A.mul_vec(x)
        y = solve(A, b)
        assert y is not None and A.mul_vec(y) == b
        if rank(A) == n:
            Ainv = inverse(A)
            assert A.mul(Ainv) == FpMatrix.identity(p, n)


def test_rref_pivots_deterministic():
    A = FpMatrix(2, 2, 3, [[0, 1, 1], [1, 1, 0]])
    R1, piv1 = rref(A)
    R2, piv2 = rref(A)
    assert R1 == R2 and piv1 == piv2 == [0, 1]


def test_empty_shapes():
    for p in (2, 3):
        for n in (0, 3):
            m = fp_from_columns(p, [], n)
            assert (m.rows, m.cols, m.data) == (n, 0, [[]] * n)
        empty = inverse(FpMatrix.zeros(p, 0, 0))
        assert (empty.rows, empty.cols, empty.data) == (0, 0, [])


def _enumerate_span(p, dim, vectors):
    out = {(0,) * dim}
    for v in vectors:
        out = {tuple((x + c * y) % p for x, y in zip(w, v))
               for w in out for c in range(p)}
    return out


def _combine(p, dim, coeffs, vectors):
    out = [0] * dim
    for c, v in zip(coeffs, vectors):
        out = [(x + c * y) % p for x, y in zip(out, v)]
    return out


def test_span_against_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice((2, 3))
        dim = rng.randint(0, 4)

        def rand_vecs(k):
            return [[rng.randrange(p) for _ in range(dim)] for _ in range(k)]

        b, z = rand_vecs(rng.randint(0, 3)), rand_vecs(rng.randint(0, 4))
        span = Span(p, dim, b)
        reps = [v for v in z if span.insert(v)]
        # basis: the greedy independent subset, in insertion order
        greedy = []
        for v in b + z:
            if tuple(v) not in _enumerate_span(p, dim, greedy):
                greedy.append(v)
        assert span.basis == greedy and len(span) == len(greedy)
        assert reps == greedy[len(greedy) - len(reps):]
        full = _enumerate_span(p, dim, b + z)
        low = _enumerate_span(p, dim, b)
        for w in product(range(p), repeat=dim):
            w = list(w)
            assert span.contains(w) == (tuple(w) in full)
            c = span.coords(w)
            if tuple(w) not in full:
                assert c is None
                continue
            assert _combine(p, dim, c, span.basis) == w
            # the reps part is the class of w modulo span(b)
            rest = _combine(p, dim, [(-x) % p for x in c[len(c) - len(reps):]],
                            reps)
            assert tuple((x + y) % p for x, y in zip(w, rest)) in low


def _free_zero_solution(A, b):
    """The solution of A x = b read off rref([A | b]) with free variables 0."""
    aug = FpMatrix(A.p, A.rows, A.cols + 1,
                   [row + [bi] for row, bi in zip(A.data, b)])
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [0] * A.cols
    for r, c in enumerate(pivots):
        x[c] = R.data[r][A.cols]
    return x


def test_solve_is_free_variables_zero_solution():
    rng = random.Random(7)
    for _ in range(2000):
        p = rng.choice((2, 3, 5))
        m, n, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        A = FpMatrix(p, m, n, [[rng.randrange(p) for _ in range(n)]
                               for _ in range(m)])
        if rng.random() < 0.5:
            B = A.mul(FpMatrix(p, n, k, [[rng.randrange(p) for _ in range(k)]
                                         for _ in range(n)]))
        else:
            B = FpMatrix(p, m, k, [[rng.randrange(p) for _ in range(k)]
                                   for _ in range(m)])
        want = [_free_zero_solution(A, B.col(j)) for j in range(k)]
        assert [solve(A, B.col(j)) for j in range(k)] == want
        X = solve_matrix(A, B)
        if None in want:
            assert X is None
        else:
            assert X == fp_from_columns(p, want, n)


SHAPE_CHECKS = """
from functor_homology.errors import ShapeError
from functor_homology.fplinalg import FpMatrix, Span, inverse, solve
A = FpMatrix(2, 1, 2, [[1, 1]])
for call in (lambda: A.mul(FpMatrix(2, 3, 1, [[1], [1], [1]])),
             lambda: A.mul_vec([1, 1, 1]),
             lambda: solve(A, [1, 0]),
             lambda: inverse(FpMatrix(2, 2, 2, [[1, 1], [1, 1]])),
             lambda: Span(2, 2).insert([1, 0, 0])):
    try:
        call()
    except ShapeError:
        continue
    raise SystemExit("shape check not enforced")
"""


def test_shape_checks_raise_shape_error():
    A = FpMatrix(2, 1, 2, [[1, 1]])
    with pytest.raises(ShapeError):
        A.add(FpMatrix(3, 1, 2, [[1, 1]]))
    with pytest.raises(ShapeError):
        solve_matrix(A, FpMatrix.identity(2, 2))
    with pytest.raises(ShapeError):
        inverse(A)


def test_shape_checks_hold_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", SHAPE_CHECKS],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
