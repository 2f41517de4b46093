"""The abelian interface shared by C and C^I, and what follows from it.

Modules and diagrams answer one set of methods, so homological code
(complexes, resolutions, derived functors) is written once and runs
unchanged in C and in C^I:

- objects (`ModuleObj`, `Diagram`): `identity()`, `zero_to(B)`,
  `zero_object()`, `biproduct(B)`, `free_cover()`;
- morphisms (`ModMor`, `DiagMor`): `kernel()`, `cokernel()`, `factor(h)`
  (through self as a mono), `cofactor(w)` (through self as an epi),
  `inverse()`, `lift(e)` (self through the epi e), `is_mono()`,
  `is_epi()`, `is_exact_at(g)` and `is_split_exact(p, r, s)` (do r and s
  split the sequence self, p: the splitting lemma's four identities);
- hom systems (`modules.hom_space`): an object lays out the unknowns of
  a map to B, `hom_unknowns(system, B)` (one matrix per index object, in
  object order; one for a module), adds their naturality rows,
  `naturality(system, var, B)` (none for a module), and rebuilds the
  checked map from solved matrices, `mor_from_matrices(B, mats)`; a map
  gives its matrices in the same order, `matrices()`.  Hom in C^I is the
  end of the componentwise homs, and a module is a diagram over the
  one-object category, so one solver serves C and C^I.

Each construction method is one call to the module-level function of
`modules` or `diagrams`, looked up by its global name at call time, so
patching that module attribute (as a tracer or a planted-fault test
does) reaches every caller; the hom-system methods hold their own short
bodies.  The constructions below need nothing else and are written once:
the image as the kernel of the cokernel (Freyd), the iso test, and the
intrinsic exactness test.

The three verdicts `is_mono`, `is_epi` and `is_exact_at` are methods
because the base ring decides how to answer them (`modules.ring_ops`).
Over Z a module is a presentation, zero only when its relations span, so
each verdict is a lattice test read off Smith normal forms, with no
module built: f is epi iff its columns and the target's relations span
Z^gens, mono iff every x that f sends into the target's relations lies in
the source's, and, given g . f = 0, exact at M iff every x that g sends
into B's relations lies in im f + M's relations.  Over an
F_p-algebra a module has no relations, so a module map is an F_p-linear
map of its generator coordinates and each verdict is a rank count
(rank-nullity), a complete decision and not a shortcut: f is mono iff
rank f = dim source, epi iff rank f = dim target, and, given g . f = 0,
exact at M iff rank f + rank g = dim M.  A diagram map answers
intrinsically in C^I: its kernel or cokernel diagram is zero, and
exactness is decided twice (`diagrams.d_exactness_report`), by the
intrinsic test below and by the module verdict at every object.

Exactness of f: A -> M, g: M -> B with g . f = 0 is decided intrinsically
by one kernel, one cokernel and one composite: the sequence is exact at M
iff ker g -> M -> coker f is zero.  Proof: that composite is zero iff
ker g factors through ker(coker f) = im f, i.e. ker g <= im f; and
im f <= ker g holds because g . f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonzeroCompositeError, ShapeError


@dataclass
class BiproductData:
    """A.biproduct(B): the object with its injections and projections."""

    obj: object
    inj1: object
    inj2: object
    proj1: object
    proj2: object


@dataclass
class ImageData:
    obj: object
    mono: object  # obj -> target of f
    epi: object  # source of f -> obj


def image(f) -> ImageData:
    """Image computed literally as the kernel of the cokernel."""
    _, coker_epi = f.cokernel()
    img, mono = coker_epi.kernel()
    return ImageData(img, mono, mono.factor(f))


def is_iso(f) -> bool:
    return f.is_mono() and f.is_epi()


def require_complex(f, g):
    """Raise unless f, g compose to zero: the precondition of every
    exactness test (`NonzeroCompositeError` when g . f != 0)."""
    if f.target != g.source:
        raise ShapeError("maps are not composable")
    if not f.then(g).is_zero():
        raise NonzeroCompositeError("composite is nonzero")


def exact_at(f, g) -> bool:
    """Exactness at the middle of f, g, decided intrinsically: the
    composite ker g -> M -> coker f is zero (given g . f = 0, this says
    ker g <= ker(coker f) = im f)."""
    require_complex(f, g)
    return g.kernel()[1].then(f.cokernel()[1]).is_zero()


def identity(A):
    """The identity of A (a module-level name for outside callers)."""
    return A.identity()
