"""Chain complexes, chain maps, short exact sequences, and homology.

A Complex stores objects C_n for lo <= n <= hi and differentials
d_n: C_n -> C_{n-1} for lo < n <= hi; everything outside the range is
treated as zero.  Objects may be modules or diagrams; all computations go
through the abelian interface (see `abelian`), so homology in C and C^I is
one code path.  Chain maps (endpoints and every square) and short exact
sequences of complexes (every degree) are always validated on
construction; only a Complex's d.d = 0 test can be skipped, by builders
whose differentials compose to zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExactnessError, NonzeroCompositeError, ShapeError


class Complex:
    def __init__(self, lo, hi, objects, diffs, check=True):
        if lo > hi:
            raise ShapeError(f"complex range [{lo}, {hi}] is empty")
        self.lo = lo
        self.hi = hi
        self.objects = dict(objects)
        self.diffs = dict(diffs)
        self._cache = {}
        for n in range(lo, hi + 1):
            if n not in self.objects:
                raise ShapeError(f"missing object in degree {n}")
        for n in range(lo + 1, hi + 1):
            d = self.diffs.get(n)
            if d is None:
                raise ShapeError(f"missing differential in degree {n}")
            if d.source != self.objects[n] or d.target != self.objects[n - 1]:
                raise ShapeError(f"differential {n} has wrong endpoints")
        if check:
            for n in range(lo + 2, hi + 1):
                if not self.diffs[n].then(self.diffs[n - 1]).is_zero():
                    raise ExactnessError(f"d.d is nonzero in degree {n}")

    def obj(self, n):
        return self.objects.get(n)

    def diff(self, n):
        """d_n: C_n -> C_{n-1}, substituting zero maps at the boundary."""
        if self.lo < n <= self.hi:
            return self.diffs[n]
        if n == self.lo:
            return self.objects[n].zero_to(self.objects[n].zero_object())
        if n == self.hi + 1:
            top = self.objects[self.hi]
            return top.zero_object().zero_to(top)
        raise ShapeError(f"degree {n} outside complex range")

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_exact_everywhere_interior(self):
        return all(self.diffs[n + 1].is_exact_at(self.diffs[n])
                   for n in range(self.lo + 1, self.hi))


class ChainMap:
    """Degreewise map of complexes commuting with the differentials on the
    overlap of their ranges."""

    def __init__(self, source: Complex, target: Complex, comps):
        self.source = source
        self.target = target
        self.comps = dict(comps)
        for n in self.comps:
            f = self.comps[n]
            if f.source != source.obj(n) or f.target != target.obj(n):
                raise ShapeError(f"chain map component {n} has wrong endpoints")
        for n in self.comps:
            if n - 1 in self.comps and n > source.lo and n > target.lo:
                lhs = self.comps[n].then(target.diffs[n])
                rhs = source.diffs[n].then(self.comps[n - 1])
                if not lhs == rhs:
                    raise ShapeError(f"chain map square fails in degree {n}")

    def at(self, n):
        return self.comps[n]


@dataclass
class Subquotient:
    """Homology presentation: cycles K with mono into C_n and the class
    epi K -> H."""

    obj: object
    cycles: object
    mono: object  # cycles -> C_n
    epi: object  # cycles -> H

    def component(self, i) -> "Subquotient":
        """The presentation at index object i of a diagram homology."""
        return Subquotient(self.obj.component(i), self.cycles.component(i),
                           self.mono.component(i), self.epi.component(i))


def homology_at(c: Complex, n) -> Subquotient:
    """H_n = ker(d_n)/im(d_{n+1}) with canonical maps; cached per degree."""
    if not (c.lo <= n <= c.hi):
        raise ShapeError(f"degree {n} out of range [{c.lo}, {c.hi}]")
    key = ("H", n)
    if key in c._cache:
        return c._cache[key]
    d_out = c.diff(n)
    K, mono = d_out.kernel()
    if n + 1 <= c.hi:
        j = mono.factor(c.diffs[n + 1])
    else:
        j = c.objects[n].zero_object().zero_to(K)
    H, epi = j.cokernel()
    sub = Subquotient(H, K, mono, epi)
    c._cache[key] = sub
    return sub


def induced_on_homology(phi_n, sub_src: Subquotient, sub_tgt: Subquotient):
    """Map H(src) -> H(tgt) induced by a degree-n component of a chain map."""
    u = sub_tgt.mono.factor(sub_src.mono.then(phi_n))
    return sub_src.epi.cofactor(u.then(sub_tgt.epi))


class SES:
    """Short exact sequence 0 -> L -> M -> N -> 0, validated on
    construction: g . f = 0, f mono, g epi and exactness at M, each asked
    through the abelian interface (lattice tests on Smith normal forms
    over Z, ranks over an F_p-algebra, both criteria of
    `d_exactness_report` over diagrams).
    A sequence that comes with its splitting is checked by that instead
    (`SESOfComplexes`)."""

    def __init__(self, f, g, check=True):
        if f.target != g.source:
            raise ShapeError("maps of a short exact sequence must be composable")
        self.f = f
        self.g = g
        self.L = f.source
        self.M = f.target
        self.N = g.target
        self._cache = {}
        if check:
            try:
                exact = f.is_exact_at(g)
            except NonzeroCompositeError:
                raise ExactnessError("composite L -> N is nonzero") from None
            if not f.is_mono():
                raise ExactnessError("first map is not mono")
            if not g.is_epi():
                raise ExactnessError("second map is not epi")
            if not exact:
                raise ExactnessError("sequence is not exact in the middle")

    def __repr__(self):
        return f"SES({self.L.describe()} -> {self.M.describe()} -> {self.N.describe()})"


class MorphismOfSES:
    """Three vertical maps forming commuting squares between two short
    exact sequences."""

    def __init__(self, src: SES, dst: SES, uL, uM, uN, check=True):
        self.src = src
        self.dst = dst
        self.uL = uL
        self.uM = uM
        self.uN = uN
        if check:
            if not src.f.then(uM) == uL.then(dst.f):
                raise ShapeError("left square of the SES morphism does not commute")
            if not src.g.then(uN) == uM.then(dst.g):
                raise ShapeError("right square of the SES morphism does not commute")


class SESOfComplexes:
    """Degreewise short exact sequence of complexes over a common range,
    validated degree by degree on construction.

    A degreewise split sequence hands in its splitting, `splitting =
    (retr, sec)` with retr[n]: mid_n -> sub_n and sec[n]: quo_n -> mid_n,
    and each degree is checked by that certificate, the four identities of
    the splitting lemma (`is_split_exact` of the abelian interface), at
    the cost of a few matrix products.  With no splitting each degree is
    checked as an `SES`.  Either way every degree is decided, and a
    failure raises `ExactnessError`."""

    def __init__(self, sub: Complex, mid: Complex, quo: Complex,
                 incl: ChainMap, proj: ChainMap, splitting=None):
        self.sub = sub
        self.mid = mid
        self.quo = quo
        self.incl = incl
        self.proj = proj
        for n in sub.degrees():
            if splitting is None:
                SES(incl.at(n), proj.at(n))
            elif not incl.at(n).is_split_exact(proj.at(n), splitting[0][n],
                                               splitting[1][n]):
                raise ExactnessError(f"the splitting fails in degree {n}")

    def degrees(self):
        return self.sub.degrees()


def project_complex(c: Complex, i) -> Complex:
    """Componentwise projection of a complex of diagrams at index object i."""
    objects = {n: c.objects[n].component(i) for n in c.degrees()}
    diffs = {n: c.diffs[n].component(i) for n in range(c.lo + 1, c.hi + 1)}
    out = Complex(c.lo, c.hi, objects, diffs, check=False)
    # share cached homology data componentwise so canonical objects match
    for n in c.degrees():
        key = ("H", n)
        if key in c._cache:
            out._cache[key] = c._cache[key].component(i)
    return out
