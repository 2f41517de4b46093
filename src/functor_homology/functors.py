"""Symbolic additive functors and natural transformations.

Four right-exact shapes are available: tensoring with a fixed module,
base change along a ring map (coinvariants arise from the augmentation
map of a group algebra), composites, and the componentwise lift of a
functor to diagram categories.

`apply(F, x)` is the one way to apply a functor, to a module, a module
map, a diagram or a diagram map: a composite applies its factors in turn,
the exponent applies F componentwise, F^I(X)_i = F(X_i), and tensor and
base change call `tensorops`.
"""

from __future__ import annotations

from . import tensorops
from .complexes import Complex
from .diagrams import DiagMor, Diagram
from .errors import RingMismatchError, ShapeError
from .fincat import FinCat
from .modules import ModMor, ModuleObj, identity_mor
from .rings import RingMap

TENSOR = "tensor"
BASE_CHANGE = "base_change"
COMPOSE = "compose"
EXPONENT = "exponent"


class FunctorSpec:
    """An additive functor between the implemented module categories.

    Tensor and base change are right-exact by construction; composites of
    right-exact functors are right-exact; the exponent lifts a functor to
    C^I -> D^I componentwise.

    Two specs are equal when they are built from the same arguments: the
    module, ring map and index by identity, nested specs by value.  A spec
    built twice therefore hits the same derived-functor memos.
    """

    def __init__(self, kind, module=None, ring_map=None, outer=None, inner=None,
                 index=None, label=None, side="right"):
        self.kind = kind
        self.module = module
        self.ring_map = ring_map
        self.outer = outer
        self.inner = inner
        self.index = index
        self.side = side
        if kind == TENSOR:
            if not module.ring.is_commutative():
                raise RingMismatchError("tensor functor needs a commutative base")
            self.source_ring = module.ring
            self.target_ring = module.ring
            if label:
                self.label = label
            elif side == "right":
                self.label = f"(-) (x) {module.describe()}"
            else:
                self.label = f"{module.describe()} (x) (-)"
        elif kind == BASE_CHANGE:
            self.source_ring = ring_map.source
            self.target_ring = ring_map.target
            self.label = label or (f"base change {ring_map.source.label} -> "
                                   f"{ring_map.target.label}")
        elif kind == COMPOSE:
            if inner.target_ring != outer.source_ring:
                raise RingMismatchError("composite functors do not match up")
            self.source_ring = inner.source_ring
            self.target_ring = outer.target_ring
            self.label = label or f"({outer.label}) . ({inner.label})"
        elif kind == EXPONENT:
            self.source_ring = inner.source_ring
            self.target_ring = inner.target_ring
            self.label = label or f"({inner.label})^I"
        else:
            raise ShapeError(f"unknown functor kind {kind!r}")

    def _key(self):
        return (self.kind, self.outer, self.inner, self.label, self.side)

    def __eq__(self, other):
        return (isinstance(other, FunctorSpec) and self._key() == other._key()
                and self.module is other.module
                and self.ring_map is other.ring_map
                and self.index is other.index)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FunctorSpec({self.label})"


def tensor_with(M: ModuleObj, label=None, side="right") -> FunctorSpec:
    """side='right': X -> X (x) M;  side='left': X -> M (x) X."""
    return FunctorSpec(TENSOR, module=M, label=label, side=side)


def base_change(rm: RingMap, label=None) -> FunctorSpec:
    return FunctorSpec(BASE_CHANGE, ring_map=rm, label=label)


def compose(outer: FunctorSpec, inner: FunctorSpec, label=None) -> FunctorSpec:
    return FunctorSpec(COMPOSE, outer=outer, inner=inner, label=label)


def exponent(inner: FunctorSpec, index: FinCat, label=None) -> FunctorSpec:
    return FunctorSpec(EXPONENT, inner=inner, index=index, label=label)


def apply(F: FunctorSpec, x):
    """F at a module, a module map, a diagram or a diagram map."""
    if F.kind == COMPOSE:
        return apply(F.outer, apply(F.inner, x))
    if F.kind == EXPONENT:
        if getattr(x, "index", F.index) != F.index:
            raise ShapeError(f"{F.label} is over another index category")
        return exponent_apply(F.inner, x)
    is_object = isinstance(x, ModuleObj)
    if not (is_object or isinstance(x, ModMor)):
        raise ShapeError(f"{F.label} applies to modules and module maps")
    if x.ring != F.source_ring:
        raise RingMismatchError(f"{F.label} is not applicable over {x.ring.label}")
    if F.kind == BASE_CHANGE:
        if is_object:
            return tensorops.base_change_obj(F.ring_map, x)
        return tensorops.base_change_mor(F.ring_map, x)
    if is_object:
        make, fixed = tensorops.tensor_obj, F.module
    else:
        make, fixed = tensorops.tensor_mor, identity_mor(F.module)
    return make(x, fixed) if F.side == "right" else make(fixed, x)


def apply_to_complex(F: FunctorSpec, c: Complex, check=True) -> Complex:
    """F at every object and differential; d.d = 0 survives by additivity."""
    objects = {n: apply(F, c.objects[n]) for n in c.degrees()}
    diffs = {n: apply(F, c.diffs[n]) for n in range(c.lo + 1, c.hi + 1)}
    return Complex(c.lo, c.hi, objects, diffs, check=check)


def exponent_apply(F: FunctorSpec, x):
    """F^I on diagrams and their maps.  A diagram's image is built once and
    kept on its cache, so a map's image has its endpoints' images, the same
    objects, as endpoints."""
    if isinstance(x, DiagMor):
        comps = {o: apply(F, x.comps[o]) for o in x.index.objects}
        return DiagMor(exponent_apply(F, x.source), exponent_apply(F, x.target),
                       comps)
    if not isinstance(x, Diagram):
        raise ShapeError(f"({F.label})^I applies to diagrams and diagram maps")
    key = ("exponent", F)
    if key not in x._cache:
        idx = x.index
        comps = {o: apply(F, x.components[o]) for o in idx.objects}
        maps = {m: apply(F, x.maps[m]) for m in idx.mor_names}
        x._cache[key] = Diagram(idx, comps, maps)
    return x._cache[key]


class NatSpec:
    """Natural transformation between functor specs.

    The implemented shape: a module map M -> M' inducing
    (-) (x) M -> (-) (x) M'.
    """

    def __init__(self, g: ModMor, label=None):
        self.g = g
        self.source_spec = tensor_with(g.source)
        self.target_spec = tensor_with(g.target)
        self.label = label or f"(-) (x) [{g.source.describe()} -> {g.target.describe()}]"

    def at(self, A: ModuleObj) -> ModMor:
        """Component of the transformation at the object A."""
        ident = identity_mor(A)
        return tensorops.tensor_mor(ident, self.g)

    def __repr__(self):
        return f"NatSpec({self.label})"


def exponent_nat(eta: NatSpec, d: Diagram) -> DiagMor:
    """The exponent of a natural transformation, evaluated at a diagram."""
    src = exponent_apply(eta.source_spec, d)
    tgt = exponent_apply(eta.target_spec, d)
    comps = {o: eta.at(d.components[o]) for o in d.index.objects}
    return DiagMor(src, tgt, comps)
