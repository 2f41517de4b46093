"""The diagram category C^I over a finite index category.

A Diagram assigns a module to every object of the index and a morphism to
every index morphism (identities included), and the whole table is checked
for functoriality.  Natural transformations are per-object morphisms whose
naturality squares are all verified, except that an identity, composite
or square with an end that has no generators is decided by shape.

Kernels, cokernels and biproducts are componentwise, with the induced
structure maps obtained from the universal properties, or forced by
shape (0x0 maps, equal to that answer, still checked) out of or into a
diagram with no generators at any object.  Exactness can be tested both
intrinsically and per component, and the two verdicts are required to
agree.

`Diagram` and `DiagMor` answer the method interface listed in `abelian`.
Each construction method calls the `d_*` function of this module by its
global name (never a class attribute bound to it), so patching the module
attribute reaches method callers too.  The hom-system methods lay out one
unknown per index object and the naturality squares, so
`modules.hom_space` solves Hom in C^I with the body it uses for modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import abelian, modules
from .errors import ExactnessError, MorphismError, ShapeError
from .fincat import FinCat
from .modules import (HomSystem, ModMor, ModuleObj, nary_biproduct, same_map_into,
                      zero_module)


class Diagram:
    """Object of C^I: components A^i plus structure maps for every index
    morphism."""

    def __init__(self, index: FinCat, components, maps, check=True, free_data=None):
        if not index.objects:
            raise ShapeError("a diagram needs an index category with an object")
        self.index = index
        self.components = dict(components)
        self.maps = dict(maps)
        self.ring = self.components[index.objects[0]].ring
        self.free_data = free_data
        self._cache = {}
        if check:
            bad = check_diagram(self)
            if bad is not None:
                raise MorphismError(f"invalid diagram: {bad}")

    def component(self, i) -> ModuleObj:
        if i not in self.components:
            raise ShapeError(f"unknown index object {i}")
        return self.components[i]

    def map(self, m) -> ModMor:
        if m not in self.maps:
            raise ShapeError(f"unknown index morphism {m}")
        return self.maps[m]

    def is_zero(self):
        return all(self.components[o].is_zero() for o in self.index.objects)

    # -- the abelian interface (see `abelian`) -----------------------------

    def identity(self) -> "DiagMor":
        return d_identity(self)

    def zero_to(self, B: "Diagram") -> "DiagMor":
        return d_zero_mor(self, B)

    def zero_object(self) -> "Diagram":
        return zero_diagram(self.index, self.ring)

    def biproduct(self, B: "Diagram") -> abelian.BiproductData:
        return d_biproduct(self, B)

    def free_cover(self):
        return d_free_cover(self)

    # Hom in C^I is the end of the componentwise homs: one unknown per
    # index object, tied by the naturality squares (see
    # `modules.hom_space`).

    def hom_unknowns(self, system: HomSystem, B: "Diagram") -> list:
        return [system.unknown(self.components[o], B.components[o])
                for o in self.index.objects]

    def naturality(self, system: HomSystem, var, B: "Diagram"):
        idx = self.index
        at = dict(zip(idx.objects, var))
        for m in idx.nonidentity_morphisms():
            system.commute(at[idx.tgt(m)], self.maps[m].matrix, B.maps[m].matrix,
                           at[idx.src(m)])

    def mor_from_matrices(self, B: "Diagram", mats) -> "DiagMor":
        return DiagMor(self, B, {o: ModMor(self.components[o], B.components[o], m)
                                 for o, m in zip(self.index.objects, mats)})

    def describe(self):
        parts = [f"{o}: {self.components[o].describe()}" for o in self.index.objects]
        return "{" + ", ".join(parts) + "}"

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Diagram) and self.index == other.index
                and all(self.components[o] == other.components[o]
                        for o in self.index.objects)
                and all(self.maps[m] == other.maps[m] for m in self.index.mor_names))

    def __repr__(self):
        return f"Diagram({self.describe()})"


def check_diagram(d: Diagram):
    """None if functorial, else a string naming the first failure.

    Identities and composites are compared on the matrices in place (see
    `modules.same_map_into`); the index category is assumed valid, as every
    builder in `fincat` makes it.  The identity at an object with no
    generators, and a composite whose source or target has none, would
    compare matrices with a zero dimension, always equal: they are skipped."""
    idx = d.index
    for o in idx.objects:
        if o not in d.components:
            return f"missing component at {o}"
    for m in idx.mor_names:
        if m not in d.maps:
            return f"missing structure map at {m}"
        f = d.maps[m]
        if f.source != d.components[idx.src(m)] or f.target != d.components[idx.tgt(m)]:
            return f"structure map {m} has wrong endpoints"
        if f.ring != d.ring:
            return f"structure map {m} lives over the wrong ring"
    for o in idx.objects:
        A = d.components[o]
        if A.gens and not same_map_into(A, d.maps[idx.identity[o]].matrix,
                                        A.ops.identity(A.gens)):
            return f"identity of {o} does not act as the identity"
    for (g, f), h in idx.comp.items():
        if not (d.maps[h].source.gens and d.maps[h].target.gens):
            continue
        gf = d.maps[g].matrix.mul(d.maps[f].matrix)
        if not same_map_into(d.maps[h].target, gf, d.maps[h].matrix):
            return f"functoriality fails on composite {g} after {f}"
    return None


class DiagMor:
    """Morphism of diagrams: one component per index object, naturality
    squares checked (at a corner with no generators both sides are empty)."""

    def __init__(self, source: Diagram, target: Diagram, comps, check=True):
        if source.index != target.index:
            raise ShapeError("diagram morphism needs a common index category")
        self.index = source.index
        self.source = source
        self.target = target
        self.comps = dict(comps)
        self._cache = {}
        if check:
            bad = self._check()
            if bad is not None:
                raise MorphismError(f"invalid diagram morphism: {bad}")

    def _check(self):
        idx = self.index
        for o in idx.objects:
            if o not in self.comps:
                return f"missing component at {o}"
            f = self.comps[o]
            if f.source != self.source.components[o]:
                return f"component at {o} has wrong source"
            if f.target != self.target.components[o]:
                return f"component at {o} has wrong target"
        for m in idx.mor_names:
            if idx.is_identity(m):
                continue
            i, j = idx.src(m), idx.tgt(m)
            if not (self.source.components[i].gens and self.target.components[j].gens):
                continue
            left = self.target.maps[m].matrix.mul(self.comps[i].matrix)
            right = self.comps[j].matrix.mul(self.source.maps[m].matrix)
            if not same_map_into(self.target.components[j], left, right):
                return f"naturality square fails at index morphism {m}"
        return None

    def component(self, i) -> ModMor:
        if i not in self.comps:
            raise ShapeError(f"unknown index object {i}")
        return self.comps[i]

    def then(self, other: "DiagMor") -> "DiagMor":
        if self.target != other.source:
            raise ShapeError("diagram morphisms are not composable")
        return DiagMor(self.source, other.target,
                       {o: self.comps[o].then(other.comps[o])
                        for o in self.index.objects}, check=False)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeError("diagram morphism sum needs equal endpoints")
        return DiagMor(self.source, self.target,
                       {o: self.comps[o] + other.comps[o]
                        for o in self.index.objects}, check=False)

    def __neg__(self):
        return DiagMor(self.source, self.target,
                       {o: -self.comps[o] for o in self.index.objects}, check=False)

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return all(self.comps[o].is_zero() for o in self.index.objects)

    def matrices(self) -> list:
        return [self.comps[o].matrix for o in self.index.objects]

    # -- the abelian interface (see `abelian`) -----------------------------

    def kernel(self):
        return d_kernel(self)

    def cokernel(self):
        return d_cokernel(self)

    def factor(self, h: "DiagMor") -> "DiagMor":
        return d_factor_through_mono(self, h)

    def cofactor(self, w: "DiagMor") -> "DiagMor":
        return d_cofactor_through_epi(self, w)

    def inverse(self) -> "DiagMor":
        return d_iso_inverse(self)

    def lift(self, e: "DiagMor") -> "DiagMor":
        return d_lift_through_epi(self, e)

    def is_exact_at(self, g: "DiagMor") -> bool:
        return d_is_exact_at(self, g)

    def is_mono(self) -> bool:
        return d_is_mono(self)

    def is_epi(self) -> bool:
        return d_is_epi(self)

    def is_split_exact(self, p: "DiagMor", r: "DiagMor", s: "DiagMor") -> bool:
        return d_is_split_exact(self, p, r, s)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DiagMor):
            return False
        if self.source != other.source or self.target != other.target:
            return False
        return all(self.comps[o] == other.comps[o] for o in self.index.objects)

    def __repr__(self):
        return f"DiagMor over {self.index!r}"


# -- basic constructions ----------------------------------------------------


def constant_diagram(index: FinCat, A: ModuleObj) -> Diagram:
    """All components A, all structure maps the identity."""
    comps = {o: A for o in index.objects}
    ident = modules.identity_mor(A)
    maps = {m: ident for m in index.mor_names}
    return Diagram(index, comps, maps, check=False)


def zero_diagram(index: FinCat, ring) -> Diagram:
    # the zero diagram is the empty free diagram, so it supports lifting
    d = constant_diagram(index, zero_module(ring))
    d.free_data = FreeDiagramData([], {o: [] for o in index.objects})
    return d


def d_identity(d: Diagram) -> DiagMor:
    return DiagMor(d, d, {o: modules.identity_mor(d.components[o])
                          for o in d.index.objects}, check=False)


def d_zero_mor(d: Diagram, e: Diagram) -> DiagMor:
    return DiagMor(d, e, {o: modules.zero_mor(d.components[o], e.components[o])
                          for o in d.index.objects}, check=False)


def projection(x, i):
    """The i-th projection functor, on diagrams and their morphisms."""
    if not isinstance(x, (Diagram, DiagMor)):
        raise ShapeError("projection applies to diagrams and diagram morphisms")
    return x.component(i)


# -- kernels, cokernels, factorisations -------------------------------------


def _forced(d: Diagram):
    """None if some object of d has generators (or d has none), else the
    ker out of d and coker into d: `modules.no_generators` at every object."""
    idx = d.index
    if not idx.objects or any(A.gens for A in d.components.values()):
        return None
    Z = modules.no_generators(d.ring)
    return Diagram(idx, dict.fromkeys(idx.objects, Z),
                   dict.fromkeys(idx.mor_names, modules.identity_mor(Z)))


def d_kernel(f: DiagMor):
    """(K, mono): ker(f^i) and the induced structure maps, or `_forced`."""
    idx = f.index
    K = _forced(f.source)
    if K is not None:
        return K, DiagMor(K, f.source, {o: modules.zero_mor(K.components[o], A)
                                        for o, A in f.source.components.items()})
    per = {o: modules.kernel(f.comps[o]) for o in idx.objects}
    comps = {o: z for o, (z, _) in per.items()}
    monos = {o: g for o, (_, g) in per.items()}
    maps = {}
    for m in idx.mor_names:
        i, j = idx.src(m), idx.tgt(m)
        if idx.is_identity(m):
            maps[m] = modules.identity_mor(comps[i])
        else:
            maps[m] = modules.factor_through_mono(
                monos[j], monos[i].then(f.source.maps[m]))
    K = Diagram(idx, comps, maps)
    return K, DiagMor(K, f.source, monos)


def d_cokernel(f: DiagMor):
    """(Q, epi), dual to d_kernel, with `modules.forced_epi` if forced."""
    idx = f.index
    Q = _forced(f.target)
    if Q is not None:
        return Q, DiagMor(f.target, Q, {o: modules.forced_epi(B, Q.components[o])
                                        for o, B in f.target.components.items()})
    per = {o: modules.cokernel(f.comps[o]) for o in idx.objects}
    comps = {o: z for o, (z, _) in per.items()}
    epis = {o: g for o, (_, g) in per.items()}
    maps = {}
    for m in idx.mor_names:
        i, j = idx.src(m), idx.tgt(m)
        if idx.is_identity(m):
            maps[m] = modules.identity_mor(comps[i])
        else:
            maps[m] = modules.cofactor_through_epi(
                epis[i], f.target.maps[m].then(epis[j]))
    Q = Diagram(idx, comps, maps)
    return Q, DiagMor(f.target, Q, epis)


def d_factor_through_mono(mono: DiagMor, h: DiagMor) -> DiagMor:
    if h.target != mono.target:
        raise ShapeError("factoring endpoints do not match")
    comps = {o: modules.factor_through_mono(mono.comps[o], h.comps[o])
             for o in mono.index.objects}
    u = DiagMor(h.source, mono.source, comps)
    if not u.then(mono) == h:
        raise ExactnessError("factorisation through the mono does not recover the map")
    return u


def d_cofactor_through_epi(epi: DiagMor, w: DiagMor) -> DiagMor:
    if w.source != epi.source:
        raise ShapeError("cofactoring endpoints do not match")
    comps = {o: modules.cofactor_through_epi(epi.comps[o], w.comps[o])
             for o in epi.index.objects}
    v = DiagMor(epi.target, w.target, comps)
    if not epi.then(v) == w:
        raise ExactnessError("cofactorisation through the epi does not recover the map")
    return v


def d_iso_inverse(f: DiagMor) -> DiagMor:
    comps = {o: modules.iso_inverse(f.comps[o]) for o in f.index.objects}
    return DiagMor(f.target, f.source, comps)


def d_exactness_report(f: DiagMor, g: DiagMor):
    """(verdict, first failing component or None).

    The verdict is computed twice, by two criteria.  Intrinsically in C^I
    (`abelian.exact_at`): the composite ker g -> M -> coker f of diagrams
    is zero, since given g . f = 0 that says ker g <= im f.  Componentwise
    (`modules.is_exact_at` at every object): ker g_i <= im f_i, since
    kernels and cokernels in C^I are taken objectwise, decided by the
    ring's verdict (a lattice test over Z, ranks over F_p) with no kernel
    or cokernel module built.  The two must agree, which is checked;
    `ExactnessError` if they do not.
    """
    intrinsic = abelian.exact_at(f, g)
    failing = None
    for o in f.index.objects:
        if not modules.is_exact_at(f.comps[o], g.comps[o]):
            failing = o
            break
    componentwise = failing is None
    if intrinsic != componentwise:
        raise ExactnessError("intrinsic and componentwise exactness verdicts disagree")
    return intrinsic, failing


def d_is_exact_at(f: DiagMor, g: DiagMor) -> bool:
    return d_exactness_report(f, g)[0]


def d_is_mono(f: DiagMor) -> bool:
    """Intrinsically in C^I: the kernel diagram is zero."""
    return d_kernel(f)[0].is_zero()


def d_is_epi(f: DiagMor) -> bool:
    """Intrinsically in C^I: the cokernel diagram is zero."""
    return d_cokernel(f)[0].is_zero()


def d_is_split_exact(i: DiagMor, p: DiagMor, r: DiagMor, s: DiagMor) -> bool:
    """The splitting certificate of `modules.is_split_exact` for natural
    maps: composites, sums and equality in C^I are taken objectwise, so
    the four identities hold in C^I iff they hold at every object."""
    L, M, N = i.source, i.target, p.target
    if not (p.source == M and r.source == M and r.target == L
            and s.source == N and s.target == M):
        raise ShapeError("splitting maps have the wrong endpoints")
    return all(modules.is_split_exact(i.comps[o], p.comps[o], r.comps[o], s.comps[o])
               for o in i.index.objects)


# -- biproducts --------------------------------------------------------------


def d_biproduct(A: Diagram, B: Diagram) -> abelian.BiproductData:
    if A.index != B.index:
        raise ShapeError("biproduct needs a common index")
    idx = A.index
    per = {o: modules.biproduct(A.components[o], B.components[o])
           for o in idx.objects}
    comps = {o: per[o].obj for o in idx.objects}
    maps = {}
    for m in idx.mor_names:
        i, j = idx.src(m), idx.tgt(m)
        if idx.is_identity(m):
            maps[m] = modules.identity_mor(comps[i])
        else:
            maps[m] = (per[i].proj1.then(A.maps[m]).then(per[j].inj1)
                       + per[i].proj2.then(B.maps[m]).then(per[j].inj2))
    free_data = None
    if A.free_data is not None and B.free_data is not None:
        # keep the representable-summand structure so lifting still works
        summands = list(A.free_data.summands) + list(B.free_data.summands)
        shift = len(A.free_data.summands)
        layout = {}
        for o in idx.objects:
            slots = []
            for s_idx, f, inj, proj in A.free_data.layout[o]:
                slots.append((s_idx, f, inj.then(per[o].inj1),
                              per[o].proj1.then(proj)))
            for s_idx, f, inj, proj in B.free_data.layout[o]:
                slots.append((s_idx + shift, f, inj.then(per[o].inj2),
                              per[o].proj2.then(proj)))
            layout[o] = slots
        free_data = FreeDiagramData(summands, layout)
    obj = Diagram(idx, comps, maps, check=False, free_data=free_data)
    return abelian.BiproductData(
        obj,
        DiagMor(A, obj, {o: per[o].inj1 for o in idx.objects}, check=False),
        DiagMor(B, obj, {o: per[o].inj2 for o in idx.objects}, check=False),
        DiagMor(obj, A, {o: per[o].proj1 for o in idx.objects}, check=False),
        DiagMor(obj, B, {o: per[o].proj2 for o in idx.objects}, check=False),
    )


# -- free diagrams and covers ------------------------------------------------


@dataclass
class FreeSummand:
    at: str  # index object the summand is based at
    module: ModuleObj  # a free module


@dataclass
class FreeDiagramData:
    summands: list
    # per index object: list of (summand_idx, hom_morphism, inj, proj),
    # aligned with the biproduct order of the component
    layout: dict


def free_diagram_multi(index: FinCat, summands, ring) -> Diagram:
    """Biproduct of representable free diagrams, one per (object, free
    module) summand.

    The summand (i, P) contributes one copy of P at object j for every
    index morphism i -> j; the structure map along u: j -> k sends the
    copy at f identically onto the copy at (u after f).  Such diagrams
    are projective in C^I (exercised by the lifting tests); `d_free_cover`
    chooses the summands that cover a diagram.
    """
    summands = [FreeSummand(at, P) for at, P in summands]
    layout = {}
    comps = {}
    for j in index.objects:
        slots = []
        mods = []
        for s_idx, s in enumerate(summands):
            for f in index.hom(s.at, j):
                slots.append((s_idx, f))
                mods.append(s.module)
        nb = nary_biproduct(mods, ring=ring)
        comps[j] = nb.obj
        layout[j] = [(s_idx, f, nb.injs[k], nb.projs[k])
                     for k, (s_idx, f) in enumerate(slots)]
    maps = {}
    for m in index.mor_names:
        j, k = index.src(m), index.tgt(m)
        if index.is_identity(m):
            maps[m] = modules.identity_mor(comps[j])
            continue
        acc = modules.zero_mor(comps[j], comps[k])
        target_slot = {(s_idx, f): (inj, proj)
                       for s_idx, f, inj, proj in layout[k]}
        for s_idx, f, inj, proj in layout[j]:
            comp = index.compose(m, f)
            t_inj = target_slot[(s_idx, comp)][0]
            acc = acc + proj.then(t_inj)
        maps[m] = acc
    data = FreeDiagramData(summands, layout)
    return Diagram(index, comps, maps, free_data=data)


def free_diagram(index: FinCat, i, P: ModuleObj) -> Diagram:
    """The representable free diagram based at i on a free module P."""
    if P.free_rank is None:
        raise ShapeError("free diagrams need a free module")
    return free_diagram_multi(index, [(i, P)], P.ring)


def d_free_cover(d: Diagram):
    """(F, epi): a smaller free cover, with F a biproduct of representable
    free diagrams that gets a generator at i only for what the summands
    before i do not already reach there.

    Walk the index objects in order.  At i, let R_i <= D(i) be spanned by
    the columns of D(u).c_j for every summand (j, c_j) chosen so far and
    every u: j -> i, and let q: D(i) -> D(i)/R_i be `ops.quotient`.  If the
    quotient is zero, i gets no summand; otherwise `modules.free_cover`
    gives P -> D(i)/R_i, and c_i: P -> D(i) is its lift through q.

    The result is epi for every finite index category, monoid categories
    and cycles included.  Component i of the epi is the sum of D(f).c_s
    over the slots (s, f: at_s -> i) of F.  Those slots include every
    (j, u) that spans R_i and, when i has a summand, (i, id_i).  So its
    image contains R_i, which is D(i) when i has no summand, and otherwise
    also im c_i, where q.c_i is onto D(i)/R_i, so R_i + im c_i = D(i).
    On a one-object category nothing comes before the object, so the one
    summand covers D(*) modulo nothing (over Z, its invariant-factor
    form).  When no two distinct objects lie on a cycle and the objects
    are listed in a topological order, R_i is everything the other
    summands reach at i, and each generator of c_i is nonzero modulo R_i.
    The F_p generators are still greedy (`minimal_generators`), so the
    cover is smaller, not minimal.  Projectives of C^I built from
    representables: Mitchell, "Rings with several objects", Adv. Math. 8
    (1972); minimal projective covers: Auslander, Reiten and Smalø,
    *Representation Theory of Artin Algebras*, ch. I.4.

    The epi is checked at every object through the ring's verdict
    (`modules.is_epi`), and `ExactnessError` is raised if it fails.
    """
    idx = d.index
    summands, adjuncts = [], []
    for i in idx.objects:
        D_i = d.components[i]
        cols = []
        for (j, _), c in zip(summands, adjuncts):
            for u in idx.hom(j, i):
                reached = d.maps[u].matrix.mul(c.matrix)
                cols.extend(reached.col(k) for k in range(reached.cols))
        q = D_i.ops.quotient(D_i, cols)
        if q.target.is_zero():
            continue
        P, cover = modules.free_cover(q.target)
        summands.append((i, P))
        adjuncts.append(modules.lift_through_epi(cover, q))
    F = free_diagram_multi(idx, summands, d.ring)
    epi = free_diagram_map(F, d, adjuncts)
    for o in idx.objects:
        if not modules.is_epi(epi.comps[o]):
            raise ExactnessError(f"free cover of the diagram is not epi at {o}")
    return F, epi


def d_lift_through_epi(g: DiagMor, e: DiagMor) -> DiagMor:
    """Lift g through the epi e when g's source carries free-diagram data."""
    F = g.source
    if F.free_data is None:
        raise ShapeError("lifting needs a free diagram source")
    if g.target != e.target:
        raise ShapeError("lift endpoints do not match")
    idx = F.index
    lifted = {}
    for s_idx, s in enumerate(F.free_data.summands):
        i = s.at
        inj_id = None
        for t_idx, f, inj, proj in F.free_data.layout[i]:
            if t_idx == s_idx and f == idx.identity[i]:
                inj_id = inj
                break
        if inj_id is None:
            raise ShapeError(f"free diagram data has no identity summand at {i}")
        adjunct = inj_id.then(g.comps[i])  # P -> (g target)^i
        lifted[s_idx] = modules.lift_through_epi(adjunct, e.comps[i])
    h = free_diagram_map(F, e.source, lifted)
    if not h.then(e) == g:
        raise ExactnessError("lift through the epi does not recover the map")
    return h


def free_diagram_map(F: Diagram, M: Diagram, adjuncts) -> DiagMor:
    """Morphism out of a free diagram from its adjunct data: one module
    map P_s -> M^{i_s} per summand, extended along the structure maps."""
    if F.free_data is None:
        raise ShapeError("a map out of a diagram needs free diagram data")
    comps = {}
    for j in F.index.objects:
        acc = modules.zero_mor(F.components[j], M.components[j])
        for s_idx, f, inj, proj in F.free_data.layout[j]:
            acc = acc + proj.then(adjuncts[s_idx]).then(M.maps[f])
        comps[j] = acc
    return DiagMor(F, M, comps)
