"""Tensor products and base change at the module level.

Tensor is over the base ring itself and requires it to be commutative
(integers, or a commutative F_p-algebra).  Base change goes along a ring
map: the unique map out of Z, or an algebra map between F_p-algebras.

Each object is the target of an epi from a raw module.  Mostly it is the
base ring's `quotient` epi (see `modules`) by relation columns, so one body
serves both rings: a Z module contributes relations and an F_p-algebra
module contributes actions.  Only base change picks its raw module by the
kind of ring map, and it has one branch of its own: along a map of
F_p-algebras, a free module M = R^k goes to free_module(S, k) directly
(S (x)_R R^k = S^k), by an epi built with its section
(`_free_base_change`).  A map is read off through the section the epi
carries: the source's `section`, then the raw map, then the target's epi.
Nothing is solved.

Object constructions cache their epi on the module they start from (the
first tensor factor, or the module being base-changed), keyed by the
identity of the other argument.  The entry holds that
argument, so its id cannot be reused while the entry lives.  Repeated
applications, e.g. while building functor images of whole complexes,
therefore agree on the nose.
"""

from __future__ import annotations

from . import modules
from .errors import RingMismatchError
from .intlinalg import IntMatrix
from .modules import ModMor, ModuleObj, free_module, section
from .rings import RingMap


def tensor_data(A: ModuleObj, B: ModuleObj) -> ModMor:
    """The epi onto A (x) B from the raw product of coordinates, by
    `quotient` modulo relations r (x) e_j of A and e_i (x) s of B (Z), and
    a.x (x) y - x (x) a.y for every algebra basis element a (F_p)."""
    if A.ring != B.ring:
        raise RingMismatchError("tensor needs a common base ring")
    if not A.ring.is_commutative():
        raise RingMismatchError("tensor is only defined over a commutative base")
    key = ("tensor", id(B))
    if key in A._cache:
        return A._cache[key][1]
    ops = A.ops
    ga, gb = A.gens, B.gens
    n = ga * gb
    ia, ib = ops.identity(ga), ops.identity(gb)
    cols = []
    for r in A.rels:
        for j in range(gb):
            col = [0] * n
            for i in range(ga):
                col[i * gb + j] = r[i]
            cols.append(col)
    for s in B.rels:
        for i in range(ga):
            col = [0] * n
            col[i * gb: (i + 1) * gb] = s
            cols.append(col)
    actions = [ops.kron(act, ib) for act in A.actions]
    for act, b_act in zip(actions, B.actions):
        m = act.add(ops.kron(ia, b_act).scale(-1))
        cols.extend(m.col(j) for j in range(n))
    raw = ModuleObj(A.ring, n, actions=actions, check=False)
    epi = ops.quotient(raw, cols)
    A._cache[key] = (B, epi)
    return epi


def tensor_obj(A: ModuleObj, B: ModuleObj) -> ModuleObj:
    return tensor_data(A, B).target


def tensor_mor(f: ModMor, g: ModMor) -> ModMor:
    esrc = tensor_data(f.source, g.source)
    etgt = tensor_data(f.target, g.target)
    raw = f.ops.kron(f.matrix, g.matrix)
    return ModMor(esrc.target, etgt.target, etgt.matrix.mul(raw).mul(section(esrc)))


def tensor_unit_map(A: ModuleObj) -> ModMor:
    """Canonical map A (x) R -> A; an isomorphism."""
    epi = tensor_data(A, modules.ring_as_module(A.ring))
    cols = []
    for i in range(A.gens):
        # (generator i) (x) (ring basis element b) -> b . generator i
        e_i = [1 if k == i else 0 for k in range(A.gens)]
        cols.extend(A.ops.free_images(A, e_i))
    raw = A.ops.from_columns(cols, A.gens)
    return ModMor(epi.target, A, raw.mul(section(epi)))


# -- base change -------------------------------------------------------------


def _scalar_block_matrix(rm: RingMap, mat: IntMatrix):
    """Integer matrix acting between free modules over the target algebra:
    each entry, reduced mod p, times the identity of the algebra."""
    ops = modules.ring_ops(rm.target)
    scalars = ops.matrix(mat.rows, mat.cols, mat.data)
    return ops.kron(scalars, ops.identity(rm.target.dim))


def base_change_data(rm: RingMap, M: ModuleObj) -> ModMor:
    """The epi onto S (x)_R M from a cover over S.  R = Z: the free
    S-module on M's generators, by `quotient` modulo M's relations.  R an
    F_p-algebra: the cover S (x)_{F_p} M, onto free_module(S, k) when M is
    free of rank k (`_free_base_change`), and otherwise by `quotient` modulo
    s.rm(a) (x) x - s (x) a.x."""
    if M.ring != rm.source:
        raise RingMismatchError("module is not over the ring map's source")
    key = ("base_change", id(rm))
    if key in M._cache:
        return M._cache[key][1]
    S = rm.target
    if rm.source.is_integers and S.is_integers:
        epi = modules.identity_mor(M)
    elif rm.source.is_integers:
        cover = free_module(S, M.gens)
        psi = _scalar_block_matrix(rm, M._rel_cols())
        epi = cover.ops.quotient(cover, [psi.col(j) for j in range(psi.cols)])
    else:
        ops, ident = M.ops, M.ops.identity(M.gens)
        actions = [ops.kron(lam, ident) for lam in S.regular]
        cover = ModuleObj(S, S.dim * M.gens, actions=actions, check=False)
        if M.free_rank is not None:
            epi = _free_base_change(rm, M, cover)
        else:
            cols = []
            for image, act in zip(rm.images, M.actions):
                m = ops.kron(S.right_mult_matrix(image), ident).add(
                    ops.kron(ops.identity(S.dim), act).scale(-1))
                cols.extend(m.col(j) for j in range(m.cols))
            epi = cover.ops.quotient(cover, cols)
    M._cache[key] = (rm, epi)
    return epi


def _free_base_change(rm: RingMap, M: ModuleObj, cover: ModuleObj) -> ModMor:
    """S (x)_R R^k = S^k: the epi from the cover S (x)_{F_p} M onto
    free_module(S, k), for M in the layout of `free_module` (copy j of R on
    coordinates j.dim R onwards), sending s (x) r.e_j to s.rm(r) in copy j.
    Its section sends e_t in copy j to e_t (x) 1.e_j, i.e. the sum over r
    of unit_r . (e_t (x) r.e_j).  The epi is a checked map."""
    S, R, k = rm.target, rm.source, M.free_rank
    ds, n = S.dim, M.gens
    rights = [S.right_mult_matrix(image) for image in rm.images]
    cols = []
    for s in range(ds):  # cover coordinate s.n + j.dim R + r is s (x) r.e_j
        for j in range(k):
            for right in rights:
                col = [0] * (k * ds)
                col[j * ds:(j + 1) * ds] = right.col(s)
                cols.append(col)
    sec = []
    for j in range(k):
        for t in range(ds):
            col = [0] * (ds * n)
            col[t * n + j * R.dim: t * n + (j + 1) * R.dim] = R.unit
            sec.append(col)
    ops = cover.ops
    epi = ModMor(cover, free_module(S, k), ops.from_columns(cols, k * ds))
    epi._cache["section"] = ops.from_columns(sec, ds * n)
    return epi


def base_change_obj(rm: RingMap, M: ModuleObj) -> ModuleObj:
    return base_change_data(rm, M).target


def base_change_mor(rm: RingMap, f: ModMor) -> ModMor:
    esrc = base_change_data(rm, f.source)
    etgt = base_change_data(rm, f.target)
    if rm.source.is_integers and rm.target.is_integers:
        return f
    if rm.source.is_integers:
        lifted = _scalar_block_matrix(rm, f.matrix)
    else:
        lifted = f.ops.kron(f.ops.identity(rm.target.dim), f.matrix)
    return ModMor(esrc.target, etgt.target, etgt.matrix.mul(lifted).mul(section(esrc)))
