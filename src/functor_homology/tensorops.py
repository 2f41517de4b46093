"""Tensor products and base change at the module level.

Tensor is over the base ring itself and requires it to be commutative
(integers, or a commutative F_p-algebra).  Base change goes along a ring
map: the unique map out of Z, or an algebra map between F_p-algebras.

Object constructions cache their presentation data on the module they
start from (the first tensor factor, or the module being base-changed),
keyed by the identity of the other argument.  The entry holds that
argument, so its id cannot be reused while the entry lives.  Repeated
applications, e.g. while building functor images of whole complexes,
therefore agree on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fplinalg, modules
from .errors import RingMismatchError
from .fplinalg import FpMatrix, fp_from_columns
from .intlinalg import IntMatrix
from .modules import ModMor, ModuleObj, free_module, nary_biproduct, simplify
from .rings import RingMap


@dataclass
class TensorData:
    """The tensor product as a quotient of the raw product of coordinates
    (Z^(ga gb), or A (x)_{F_p} B with the first-factor action)."""

    obj: ModuleObj
    epi: ModMor  # raw -> obj (matrix usable on raw coordinates)
    section: object  # matrix of a right inverse of epi's matrix


def tensor_data(A: ModuleObj, B: ModuleObj):
    if A.ring != B.ring:
        raise RingMismatchError("tensor needs a common base ring")
    if not A.ring.is_commutative():
        raise RingMismatchError("tensor is only defined over a commutative base")
    key = ("tensor", id(B))
    if key in A._cache:
        return A._cache[key][1]
    if A.ring.is_integers:
        ga, gb = A.gens, B.gens
        rels = []
        for r in A.rels:
            for j in range(gb):
                row = [0] * (ga * gb)
                for i in range(ga):
                    row[i * gb + j] = r[i]
                rels.append(row)
        for s in B.rels:
            for i in range(ga):
                row = [0] * (ga * gb)
                for j in range(gb):
                    row[i * gb + j] = s[j]
                rels.append(row)
        raw = ModuleObj(A.ring, gens=ga * gb, rels=rels)
        simple, to_simple, from_simple = simplify(raw)
        data = TensorData(simple, to_simple, from_simple.matrix)
    else:
        ring, ops = A.ring, A.ops
        p = ring.p
        na, nb = A.dim, B.dim
        n = na * nb
        actions = [ops.kron(A.actions[a], ops.identity(nb)) for a in range(ring.dim)]
        vec = ModuleObj(ring, dim=n, actions=actions, check=False)
        blocks = []
        for a in range(ring.dim):
            m = ops.kron(A.actions[a], ops.identity(nb)).add(
                ops.kron(ops.identity(na), B.actions[a]).scale(p - 1))
            blocks.append(m)
        src = nary_biproduct([vec] * ring.dim, ring=ring)
        cols = []
        for m in blocks:
            for j in range(n):
                cols.append(m.col(j))
        rel_map = ModMor(src.obj, vec, fp_from_columns(p, cols, n), check=False)
        obj, epi = modules.cokernel(rel_map)
        section = fplinalg.solve_matrix(epi.matrix, FpMatrix.identity(p, obj.dim))
        data = TensorData(obj, epi, section)
    A._cache[key] = (B, data)
    return data


def tensor_obj(A: ModuleObj, B: ModuleObj) -> ModuleObj:
    return tensor_data(A, B).obj


def tensor_mor(f: ModMor, g: ModMor) -> ModMor:
    dsrc = tensor_data(f.source, g.source)
    dtgt = tensor_data(f.target, g.target)
    raw = f.ops.kron(f.matrix, g.matrix)
    mat = dtgt.epi.matrix.mul(raw).mul(dsrc.section)
    return ModMor(dsrc.obj, dtgt.obj, mat)


def tensor_unit_map(A: ModuleObj) -> ModMor:
    """Canonical map A (x) R -> A; an isomorphism."""
    data = tensor_data(A, modules.ring_as_module(A.ring))
    cols = []
    for i in range(A.gens):
        # (generator i) (x) (ring basis element b) -> b . generator i
        e_i = [1 if k == i else 0 for k in range(A.gens)]
        cols.extend(A.ops.free_images(A, e_i))
    raw = A.ops.from_columns(cols, A.gens)
    return ModMor(data.obj, A, raw.mul(data.section))


# -- base change -------------------------------------------------------------


@dataclass
class BaseChangeData:
    obj: ModuleObj
    cover: ModuleObj  # the free/vector-level carrier
    epi: ModMor  # cover -> obj


def _scalar_block_matrix(rm: RingMap, mat: IntMatrix, rank_rows, rank_cols):
    """Integer matrix acting between free modules over the target algebra."""
    S = rm.target
    p, d = S.p, S.dim
    rows, cols = rank_rows * d, rank_cols * d
    data = [[0] * cols for _ in range(rows)]
    for i in range(rank_rows):
        for k in range(rank_cols):
            a = mat.data[i][k] % p
            if a:
                for s in range(d):
                    data[i * d + s][k * d + s] = a
    return FpMatrix(p, rows, cols, data)


def base_change_data(rm: RingMap, M: ModuleObj) -> BaseChangeData:
    if M.ring != rm.source:
        raise RingMismatchError("module is not over the ring map's source")
    key = ("base_change", id(rm))
    if key in M._cache:
        return M._cache[key][1]
    S = rm.target
    if rm.source.is_integers and S.is_integers:
        data = BaseChangeData(M, M, modules.identity_mor(M))
    elif rm.source.is_integers:
        g = M.gens
        r = len(M.rels)
        Fg = free_module(S, g)
        Fr = free_module(S, r)
        rel_mat = IntMatrix(r, g, [list(row) for row in M.rels]).transpose()
        psi = ModMor(Fr, Fg, _scalar_block_matrix(rm, rel_mat, g, r), check=False)
        obj, epi = modules.cokernel(psi)
        data = BaseChangeData(obj, Fg, epi)
    else:
        R, ops = rm.source, M.ops
        p, dS, nM = S.p, S.dim, M.dim
        n = dS * nM
        actions = [ops.kron(S.left_mult_matrix(S._e(c)), ops.identity(nM))
                   for c in range(dS)]
        vec = ModuleObj(S, dim=n, actions=actions, check=False)
        blocks = []
        for a in range(R.dim):
            right = S.right_mult_matrix(rm.images[a])
            m = ops.kron(right, ops.identity(nM)).add(
                ops.kron(ops.identity(dS), M.actions[a]).scale(p - 1))
            blocks.append(m)
        src = nary_biproduct([vec] * R.dim, ring=S)
        cols = []
        for m in blocks:
            for j in range(n):
                cols.append(m.col(j))
        rel_map = ModMor(src.obj, vec, fp_from_columns(p, cols, n), check=False)
        obj, epi = modules.cokernel(rel_map)
        data = BaseChangeData(obj, vec, epi)
    M._cache[key] = (rm, data)
    return data


def base_change_obj(rm: RingMap, M: ModuleObj) -> ModuleObj:
    return base_change_data(rm, M).obj


def base_change_mor(rm: RingMap, f: ModMor) -> ModMor:
    dsrc = base_change_data(rm, f.source)
    dtgt = base_change_data(rm, f.target)
    if rm.source.is_integers and rm.target.is_integers:
        return f
    if rm.source.is_integers:
        lifted = ModMor(dsrc.cover, dtgt.cover,
                        _scalar_block_matrix(rm, f.matrix, f.target.gens,
                                             f.source.gens), check=False)
    else:
        lifted = ModMor(dsrc.cover, dtgt.cover,
                        f.ops.kron(f.ops.identity(rm.target.dim), f.matrix),
                        check=False)
    return modules.cofactor_through_epi(dsrc.epi, lifted.then(dtgt.epi))
