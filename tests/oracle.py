"""Independent oracles for the test suite.

These deliberately avoid the library's computation paths: invariant
factors from gcds of minors, kernels by exhaustive search, homology of
hand-built periodic resolutions by rank counting, and the connecting map
by an element-by-element zig-zag.
"""

from itertools import combinations, product
from math import gcd

from functor_homology.complexes import homology_at
from functor_homology.errors import ExactnessError
from functor_homology.fplinalg import FpMatrix, rank
from functor_homology.modules import Element, ModMor, preimage


def minors_gcd(data, k):
    """gcd of all k x k minors of an integer matrix (list of rows)."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            g = gcd(g, _det([[data[i][j] for j in csel] for i in rsel]))
    return abs(g)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def invariant_factors_by_minors(data):
    """Nonzero invariant factors d_1 | d_2 | ... via d_1...d_k = gcd of
    k x k minors."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors_gcd(data, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def brute_solve_int(data, b, box=6):
    """Search A x = b over a small coordinate box; None if not found."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    for x in product(range(-box, box + 1), repeat=cols):
        if all(sum(data[i][j] * x[j] for j in range(cols)) == b[i]
               for i in range(rows)):
            return list(x)
    return None


def enumerate_fp_kernel(p, data):
    """All kernel vectors of a matrix over F_p by exhaustion."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    out = []
    for x in product(range(p), repeat=cols):
        if all(sum(data[i][j] * x[j] for j in range(cols)) % p == 0
               for i in range(rows)):
            out.append(list(x))
    return out


def fp_complex_homology_dims(p, mats, dims):
    """dims of H_n for a chain complex given by matrices d_n: C_n -> C_{n-1}
    (mats[n] for 1 <= n <= N)."""
    out = {}
    N = len(dims) - 1
    for n in range(N + 1):
        dn_rank = rank(mats[n]) if n in mats else 0
        dn1_rank = rank(mats[n + 1]) if (n + 1) in mats else 0
        out[n] = dims[n] - dn_rank - dn1_rank
    return out


def cyclic_group_homology_dims(p, order, n_max):
    """dim H_n(C_order; F_p) from the explicit periodic resolution of the
    trivial module: alternating multiplication by (g - 1) and the norm."""
    from functor_homology.rings import cyclic_group_table, group_algebra

    ring = group_algebra(p, cyclic_group_table(order))
    d = ring.dim
    g_minus_1 = [0] * d
    g_minus_1[1] = 1
    unit = list(ring.unit)
    gm1 = [a - b for a, b in zip(g_minus_1, unit)]
    norm = [1] * d
    mul_gm1 = ring.left_mult_matrix([x % p for x in gm1])
    mul_norm = ring.left_mult_matrix(norm)
    # after applying coinvariants (F_p (x) -), each map becomes its
    # augmentation image: aug(g-1) = 0, aug(norm) = order
    aug_gm1 = FpMatrix(p, 1, 1, [[0]])
    aug_norm = FpMatrix(p, 1, 1, [[order % p]])
    dims = [1] * (n_max + 2)
    mats = {}
    for n in range(1, n_max + 2):
        mats[n] = aug_gm1 if n % 2 == 1 else aug_norm
    return fp_complex_homology_dims(p, mats, dims)


def product_c2_homology_dims(p, n_max):
    """dim H_n(C_2 x C_2; F_2) from the tensor of two periodic resolutions
    (rank counting on the total complex after coinvariants)."""
    assert p == 2
    # after coinvariants every differential of each periodic factor is 0
    # (aug(g-1) = 0, aug(norm) = 2 = 0 over F_2), so the total complex has
    # zero differentials and H_n has dimension (number of bidegrees) = n+1
    return {n: n + 1 for n in range(n_max + 1)}


def connecting_by_elements(sub, mid, quo, incl, proj, n):
    """delta_n: H_n(quo) -> H_{n-1}(sub) of a degreewise short exact
    sequence of module complexes (incl, proj: degree -> map), by the
    snake-lemma zig-zag on elements: for each generator of H_n(quo) pick a
    cycle, lift it to mid, apply d, pull back to sub, and take its class;
    every pick is a fresh single-vector `modules.preimage`."""
    sub_n = homology_at(quo, n)
    sub_l = homology_at(sub, n - 1)
    cols = []
    for t in range(sub_n.obj.gens):
        e = Element(sub_n.obj, [1 if k == t else 0 for k in range(sub_n.obj.gens)])
        z = sub_n.mono.apply(preimage(sub_n.epi, e))
        m = preimage(proj[n], z)
        if m is None:
            raise ExactnessError("projection of complexes must be degreewise epi")
        l = preimage(incl[n - 1], mid.diffs[n].apply(m))
        if l is None:
            raise ExactnessError("boundary must come from the subcomplex")
        kl = preimage(sub_l.mono, l)
        if kl is None:
            raise ExactnessError("representative must be a cycle")
        cols.append(list(sub_l.epi.apply(kl).coords))
    return ModMor(sub_n.obj, sub_l.obj,
                  sub_n.obj.ops.from_columns(cols, sub_l.obj.gens))
