"""Tensor products and base change at the module level.

Tensor is over the base ring itself and requires it to be commutative
(integers, or a commutative F_p-algebra).  Base change goes along a ring
map: the unique map out of Z, or an algebra map between F_p-algebras.

Each object is the target of an epi from a raw module, mostly the base
ring's `quotient` epi (see `modules`) by relation columns, so one body
serves both rings: a Z module contributes relations and an F_p-algebra
module contributes actions.  Base change takes its cover from the source
ring's ops (`base_change_epi`, and `base_change_lift` for a map's matrix):
Z -> Z is the identity, Z -> S the free S-module on M's generators
modulo M's relations, and along a map of F_p-algebras the cover
S (x)_{F_p} M, sent onto free_module(S, k) directly when M = R^k is free.
A map is read off through the section the epi carries: the source's
`section`, then the raw map, then the target's epi.  Nothing is solved.

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
from .modules import ModMor, ModuleObj, section
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
    actions = [act.kron(ib) for act in A.actions]
    for act, b_act in zip(actions, B.actions):
        m = act.add(ia.kron(b_act).scale(-1))
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
    raw = f.matrix.kron(g.matrix)
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


def base_change_data(rm: RingMap, M: ModuleObj) -> ModMor:
    """The epi onto S (x)_R M from a cover over S, as the source ring's ops
    builds it (`base_change_epi`), kept on M."""
    if M.ring != rm.source:
        raise RingMismatchError("module is not over the ring map's source")
    key = ("base_change", id(rm))
    if key in M._cache:
        return M._cache[key][1]
    epi = M.ops.base_change_epi(rm, M)
    M._cache[key] = (rm, epi)
    return epi


def base_change_obj(rm: RingMap, M: ModuleObj) -> ModuleObj:
    return base_change_data(rm, M).target


def base_change_mor(rm: RingMap, f: ModMor) -> ModMor:
    esrc = base_change_data(rm, f.source)
    etgt = base_change_data(rm, f.target)
    lifted = f.ops.base_change_lift(rm, f.matrix)
    return ModMor(esrc.target, etgt.target, etgt.matrix.mul(lifted).mul(section(esrc)))
