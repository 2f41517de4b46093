import os
import random
import subprocess
import sys
from itertools import product

import pytest

from functor_homology.errors import ShapeError
import oracle
from functor_homology.fplinalg import (FpMatrix, Span, fp_from_columns,
                                       inverse, kernel_basis, rank, rref,
                                       solve, solve_matrix, solver)
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


# -- packed F_2 rows against the dense reference -------------------------------

SHAPES = (0, 1, 2, 3, 5, 8, 13, 70)  # 70 columns overflow one machine word


def _rand_rows(rng, p, rows, cols, zero_bias):
    # entries outside [0, p) too, so that every entry point has to reduce
    return [[0 if rng.random() < zero_bias else rng.randint(-3 * p, 3 * p)
             for _ in range(cols)] for _ in range(rows)]


def _reduced(p, rows):
    return [[x % p for x in r] for r in rows]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_operations_match_dense_reference(p):
    rng = random.Random(20261019 + p)
    for case in range(120):
        m, k, n = (rng.choice(SHAPES) for _ in range(3))
        bias = rng.choice((0.0, 0.5, 0.8, 1.0))
        ra, rb, rc = (_rand_rows(rng, p, r, c, bias) for r, c in ((m, k), (k, n), (m, k)))
        a, b, c = _reduced(p, ra), _reduced(p, rb), _reduced(p, rc)
        A, B, C = FpMatrix(p, m, k, ra), FpMatrix(p, k, n, rb), FpMatrix(p, m, k, rc)
        ctx = f"p={p} case={case} shapes {m}x{k}x{n}"
        assert (A.rows, A.cols, A.data) == (m, k, a), ctx
        assert A.mul(B).data == oracle.dense_mul(p, a, b, n), ctx
        v = [rng.randint(-3 * p, 3 * p) for _ in range(k)]
        assert A.mul_vec(v) == oracle.dense_mul_vec(p, a, v), ctx
        assert A.add(C).data == oracle.dense_add(p, a, c), ctx
        s = rng.randint(-2 * p, 2 * p)
        assert A.scale(s).data == oracle.dense_scale(p, a, s), ctx
        assert [A.col(j) for j in range(k)] == [oracle.dense_col(a, j) for j in range(k)]
        assert (A == C) == (a == c) and A == FpMatrix(p, m, k, a), ctx
        assert A.is_zero() == (not any(map(any, a))), ctx
        # kron on corners of A and B, so that its size stays small
        kr, kc, lr, lc = range(min(m, 3)), range(min(k, 4)), range(min(k, 3)), range(min(n, 4))
        K = A.submatrix(kr, kc).kron(B.submatrix(lr, lc))
        assert K.data == oracle.dense_kron(p, [[a[i][j] for j in kc] for i in kr],
                                           [[b[i][j] for j in lc] for i in lr],
                                           len(kc), len(lc)), ctx
        rows = [rng.randrange(m) for _ in range(rng.randint(0, 4))] if m else []
        for cols in (list(range(k)), list(range(k // 3, k - k // 3)),
                     [rng.randrange(k) for _ in range(rng.randint(0, 5))] if k else []):
            sub = A.submatrix(rows, cols)
            assert (sub.rows, sub.cols) == (len(rows), len(cols)), ctx
            assert sub.data == [[a[i][j] for j in cols] for i in rows], ctx
        assert FpMatrix.identity(p, n).data == [[int(i == j) for j in range(n)]
                                                for i in range(n)]
        assert FpMatrix.zeros(p, m, n).data == [[0] * n for _ in range(m)]
        raw_cols = [[rng.randint(-3 * p, 3 * p) for _ in range(m)] for _ in range(n)]
        assert (fp_from_columns(p, raw_cols, m).data
                == oracle.dense_from_columns(p, raw_cols, m)), ctx


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_diagonal_matches_dense_reference(p):
    rng = random.Random(20261020 + p)
    for case in range(60):
        sizes = [rng.choice(SHAPES) for _ in range(rng.randint(0, 4))]
        blocks = [_reduced(p, _rand_rows(rng, p, n, n, 0.5)) for n in sizes]
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        total = sum(sizes)
        D = FpMatrix.from_blocks(p, total, total,
                                 [(off, off, FpMatrix(p, n, n, blk))
                                  for off, n, blk in zip(offsets, sizes, blocks)])
        assert D.data == oracle.dense_block_diagonal(blocks, sizes), f"p={p} case={case}"
    with pytest.raises(ShapeError):
        FpMatrix.from_blocks(p, 2, 2, [(1, 0, FpMatrix.identity(p, 2))])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_eliminators_match_dense_reference(p):
    rng = random.Random(20261021 + p)
    for case in range(120):
        m, k, n = (rng.choice(SHAPES[:-1]) for _ in range(3))
        bias = rng.choice((0.0, 0.5, 0.8))
        a = _reduced(p, _rand_rows(rng, p, m, k, bias))
        A = FpMatrix(p, m, k, a)
        ctx = f"p={p} case={case} shapes {m}x{k}x{n}"
        R, pivots = rref(A)
        R_want, pivots_want = oracle.dense_rref(p, a, k)
        assert (R.data, pivots) == (R_want, pivots_want), ctx
        assert rank(A) == len(pivots_want), ctx
        assert kernel_basis(A) == oracle.dense_kernel_basis(p, a, k), ctx
        # right-hand sides inside and (mostly) outside the column span
        rhs = [A.mul_vec([rng.randrange(p) for _ in range(k)]) for _ in range(3)]
        rhs += [[rng.randrange(p) for _ in range(m)] for _ in range(3)]
        got, want = solver(A), oracle.dense_solver(p, a, k)
        assert [got(y) for y in rhs] == [want(y) for y in rhs], ctx
        assert [solve(A, y) for y in rhs] == [want(y) for y in rhs], ctx
        for b in (A.mul(FpMatrix(p, k, n, _reduced(p, _rand_rows(rng, p, k, n, bias)))),
                  FpMatrix(p, m, n, _reduced(p, _rand_rows(rng, p, m, n, bias)))):
            X = solve_matrix(A, b)
            X_want = oracle.dense_solve_matrix(p, a, k, b.data, n)
            assert (None if X is None else X.data) == X_want, ctx
        if m == k:
            inv = oracle.dense_inverse(p, a)
            if inv is None:
                with pytest.raises(ShapeError):
                    inverse(A)
            else:
                assert inverse(A).data == inv, ctx


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_basis_ends_at_its_free_columns(p):
    # one vector per free column, ascending, each with a 1 there and zeros
    # after it; so the vectors ending before column c are a basis of the
    # kernel of the first c columns
    rng = random.Random(20261023 + p)
    for case in range(120):
        m, k = rng.choice(SHAPES), rng.choice(SHAPES + (90,))
        a = _reduced(p, _rand_rows(rng, p, m, k, rng.choice((0.0, 0.5, 0.8, 1.0))))
        A = FpMatrix(p, m, k, a)
        ctx = f"p={p} case={case} shape {m}x{k}"
        pivots = rref(A)[1]
        basis = kernel_basis(A)
        free = [j for j in range(k) if j not in pivots]
        ends = [max(i for i, x in enumerate(v) if x) for v in basis]
        assert ends == free, ctx
        assert all(v[f] == 1 for v, f in zip(basis, free)), ctx
        c = rng.randint(0, k)
        prefix = FpMatrix(p, m, c, [r[:c] for r in a])
        assert [v[:c] for v, f in zip(basis, free) if f < c] == kernel_basis(prefix), ctx


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_matches_dense_reference(p):
    rng = random.Random(20261022 + p)
    for case in range(150):
        dim = rng.choice(SHAPES)
        bias = rng.choice((0.0, 0.5, 0.9))
        vectors = _rand_rows(rng, p, rng.randint(0, 8), dim, bias)
        span, ref = Span(p, dim), oracle.DenseSpan(p, dim)
        assert [span.insert(v) for v in vectors] == [ref.insert(v) for v in vectors]
        assert span.basis == ref.basis and len(span) == len(ref.basis)
        probes = _rand_rows(rng, p, 4, dim, bias)
        probes += [[sum(rng.randrange(p) * v[i] for v in vectors) for i in range(dim)]
                   for _ in range(4)]
        ctx = f"p={p} case={case} dim {dim}"
        assert [span.contains(w) for w in probes] == [ref.contains(w) for w in probes], ctx
        assert [span.coords(w) for w in probes] == [ref.coords(w) for w in probes], ctx
        with pytest.raises(ShapeError):
            span.coords([0] * (dim + 1))
