"""Finite categories given by explicit composition tables.

Objects and morphisms carry string labels; every enumeration is in label
order so downstream constructions are deterministic.  The composition
table is total on composable pairs, which makes validation a finite scan
(no word problems).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError, check_shape


@dataclass
class Violation:
    kind: str
    detail: tuple
    message: str


class FinCat:
    """A finite category: labels, identities and a full composition table."""

    def __init__(self, objects, morphisms, identity, comp):
        self.objects = tuple(sorted(objects))
        self.morphisms = dict(morphisms)  # name -> (src, tgt)
        self.identity = dict(identity)  # object -> identity morphism name
        self.comp = dict(comp)  # (g, f) -> g after f
        self.mor_names = tuple(sorted(self.morphisms))
        if len(set(objects)) != len(tuple(objects)):
            raise ShapeError("duplicate object labels")
        self._identities = frozenset(e for o, e in self.identity.items()
                                     if self.morphisms.get(e) == (o, o))

    def src(self, m):
        return self.morphisms[m][0]

    def tgt(self, m):
        return self.morphisms[m][1]

    def is_identity(self, m):
        return m in self._identities

    def compose(self, g, f):
        """g after f."""
        if self.tgt(f) != self.src(g):
            raise ShapeError(f"morphisms {f}, {g} are not composable")
        return self.comp[(g, f)]

    def hom(self, i, j):
        """Morphisms i -> j in label order."""
        return [m for m in self.mor_names
                if self.morphisms[m] == (i, j)]

    def nonidentity_morphisms(self):
        return [m for m in self.mor_names if not self.is_identity(m)]

    def __eq__(self, other):
        return self is other or (isinstance(other, FinCat)
                                 and self.objects == other.objects
                                 and self.morphisms == other.morphisms
                                 and self.identity == other.identity
                                 and self.comp == other.comp)

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.mor_names)} morphisms)"


def validate(cat: FinCat):
    """None when all category laws hold, else a Violation naming the first
    failing pair/triple."""
    for m, (s, t) in sorted(cat.morphisms.items()):
        if s not in cat.objects or t not in cat.objects:
            return Violation("endpoints", (m,), f"morphism {m} has unknown endpoint")
    for o in cat.objects:
        if o not in cat.identity:
            return Violation("identity-missing", (o,), f"object {o} has no identity")
        e = cat.identity[o]
        if e not in cat.morphisms or cat.morphisms[e] != (o, o):
            return Violation("identity-shape", (o, e),
                             f"identity of {o} is not an endomorphism of {o}")
    mor_names = cat.mor_names
    for g in mor_names:
        for f in mor_names:
            composable = cat.tgt(f) == cat.src(g)
            present = (g, f) in cat.comp
            if composable and not present:
                return Violation("composition-missing", (g, f),
                                 f"composite of {g} after {f} is undefined")
            if present and not composable:
                return Violation("composition-extra", (g, f),
                                 f"table defines {g} after {f} but they do not compose")
            if present:
                h = cat.comp[(g, f)]
                if h not in cat.morphisms:
                    return Violation("composition-unknown", (g, f, h),
                                     f"composite {h} is not a morphism")
                if cat.morphisms[h] != (cat.src(f), cat.tgt(g)):
                    return Violation("composition-shape", (g, f, h),
                                     f"composite {h} has wrong endpoints")
    for f in mor_names:
        if cat.comp[(cat.identity[cat.tgt(f)], f)] != f:
            return Violation("left-identity", (f,), f"id after {f} is not {f}")
        if cat.comp[(f, cat.identity[cat.src(f)])] != f:
            return Violation("right-identity", (f,), f"{f} after id is not {f}")
    for h in mor_names:
        for g in mor_names:
            if cat.tgt(g) != cat.src(h):
                continue
            for f in mor_names:
                if cat.tgt(f) != cat.src(g):
                    continue
                if cat.comp[(h, cat.comp[(g, f)])] != cat.comp[(cat.comp[(h, g)], f)]:
                    return Violation("associativity", (h, g, f),
                                     f"(h g) f != h (g f) at {(h, g, f)}")
    return None


def _validated(cat: FinCat, what) -> FinCat:
    """cat itself, or ShapeError naming the first violated law."""
    bad = validate(cat)
    if bad is not None:
        raise ShapeError(f"invalid {what}: {bad.message}")
    return cat


def build_fincat(objects, arrows, compositions):
    """Assemble a FinCat from its non-identity data.

    `arrows`: (name, src, tgt) triples; `compositions`: {(g, f): h} for the
    composable non-identity pairs.  Identities (named id_<object>) and all
    identity composites are filled in.
    """
    morphisms = {}
    identity = {}
    for o in objects:
        name = f"id_{o}"
        morphisms[name] = (o, o)
        identity[o] = name
    for name, s, t in arrows:
        if name in morphisms:
            raise ShapeError(f"duplicate morphism label {name}")
        if s not in identity or t not in identity:
            raise ShapeError(f"arrow {name} has an undeclared endpoint")
        morphisms[name] = (s, t)
    comp = dict(compositions)
    for m, (s, t) in morphisms.items():
        comp[(identity[t], m)] = m
        comp[(m, identity[s])] = m
    return _validated(FinCat(objects, morphisms, identity, comp), "category")


def standard(name: str) -> FinCat:
    """Stock index categories: point, arrow, square, parallel_pair."""
    if name == "point":
        return build_fincat(["0"], [], {})
    if name == "arrow":
        return build_fincat(["0", "1"], [("a", "0", "1")], {})
    if name == "square":
        # commutative square: 4 objects, 4 edges and the diagonal
        arrows = [("a", "00", "01"), ("b", "00", "10"),
                  ("c", "01", "11"), ("d", "10", "11"),
                  ("e", "00", "11")]
        comp = {("c", "a"): "e", ("d", "b"): "e"}
        return build_fincat(["00", "01", "10", "11"], arrows, comp)
    if name == "parallel_pair":
        return build_fincat(["0", "1"], [("f", "0", "1"), ("g", "0", "1")], {})
    raise ShapeError(f"unknown standard category {name!r}")


def monoid_category(table, labels=None) -> FinCat:
    """One-object category from a finite monoid multiplication table.

    ``table[i][j]`` is the index of m_i after m_j.
    """
    n = len(table)
    check_shape(n, n, table)
    if any(not 0 <= x < n for row in table for x in row):
        raise ShapeError(f"monoid table entries must lie in 0..{n - 1}")
    labels = labels or [f"m{i}" for i in range(n)]
    ident = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise ShapeError("monoid table has no identity")
    objects = ["*"]
    morphisms = {labels[i]: ("*", "*") for i in range(n)}
    identity = {"*": labels[ident]}
    comp = {(labels[i], labels[j]): labels[table[i][j]]
            for i in range(n) for j in range(n)}
    return _validated(FinCat(objects, morphisms, identity, comp), "monoid")


def _pair(a, b):
    return f"({a},{b})"


def product(I: FinCat, J: FinCat) -> FinCat:
    """Product category: pairs of objects and morphisms, componentwise
    composition."""
    objects = [_pair(i, j) for i in I.objects for j in J.objects]
    morphisms = {}
    identity = {}
    for u, (su, tu) in I.morphisms.items():
        for v, (sv, tv) in J.morphisms.items():
            morphisms[_pair(u, v)] = (_pair(su, sv), _pair(tu, tv))
    for i in I.objects:
        for j in J.objects:
            identity[_pair(i, j)] = _pair(I.identity[i], J.identity[j])
    comp = {}
    for (gu, fu), hu in I.comp.items():
        for (gv, fv), hv in J.comp.items():
            comp[(_pair(gu, gv), _pair(fu, fv))] = _pair(hu, hv)
    return _validated(FinCat(objects, morphisms, identity, comp), "product category")


def opposite(I: FinCat) -> FinCat:
    morphisms = {m: (t, s) for m, (s, t) in I.morphisms.items()}
    comp = {(f, g): h for (g, f), h in I.comp.items()}
    return _validated(FinCat(I.objects, morphisms, I.identity, comp),
                      "opposite category")
