"""Uniform dispatch over the two abelian settings: modules and diagrams.

Homological code (complexes, resolutions, derived functors) is written
once against these functions and runs unchanged in C and in C^I.  Each
function picks the module or the diagram version; the choice between the
base rings (Z or an F_p-algebra) is made below, in `modules.ring_ops`.
Objects answer `is_zero()` and `describe()` themselves.
"""

from __future__ import annotations

from . import diagrams, modules
from .diagrams import DiagMor
from .errors import ShapeError
from .modules import ModMor, ModuleObj


def kernel(f):
    if isinstance(f, ModMor):
        return modules.kernel(f)
    if isinstance(f, DiagMor):
        return diagrams.d_kernel(f)
    raise ShapeError(f"no kernel for {type(f).__name__}")


def cokernel(f):
    if isinstance(f, ModMor):
        return modules.cokernel(f)
    if isinstance(f, DiagMor):
        return diagrams.d_cokernel(f)
    raise ShapeError(f"no cokernel for {type(f).__name__}")


def image(f):
    if isinstance(f, ModMor):
        return modules.image(f)
    return diagrams.d_image(f)


def factor_through_mono(mono, h):
    if isinstance(mono, ModMor):
        return modules.factor_through_mono(mono, h)
    return diagrams.d_factor_through_mono(mono, h)


def cofactor_through_epi(epi, w):
    if isinstance(epi, ModMor):
        return modules.cofactor_through_epi(epi, w)
    return diagrams.d_cofactor_through_epi(epi, w)


def identity(A):
    if isinstance(A, ModuleObj):
        return modules.identity_mor(A)
    return diagrams.d_identity(A)


def zero_mor(A, B):
    if isinstance(A, ModuleObj):
        return modules.zero_mor(A, B)
    return diagrams.d_zero_mor(A, B)


def zero_object_like(A):
    if isinstance(A, ModuleObj):
        return modules.zero_module(A.ring)
    return diagrams.zero_diagram(A.index, A.ring)


def is_mono(f) -> bool:
    if isinstance(f, ModMor):
        return modules.is_mono(f)
    return diagrams.d_is_mono(f)


def is_epi(f) -> bool:
    if isinstance(f, ModMor):
        return modules.is_epi(f)
    return diagrams.d_is_epi(f)


def is_iso(f) -> bool:
    if isinstance(f, ModMor):
        return modules.is_iso(f)
    return diagrams.d_is_iso(f)


def iso_inverse(f):
    if isinstance(f, ModMor):
        return modules.iso_inverse(f)
    return diagrams.d_iso_inverse(f)


def is_exact_at(f, g) -> bool:
    if isinstance(f, ModMor):
        return modules.is_exact_at(f, g)
    return diagrams.d_is_exact_at(f, g)


def biproduct(A, B):
    if isinstance(A, ModuleObj):
        return modules.biproduct(A, B)
    return diagrams.d_biproduct(A, B)


def free_cover(A):
    if isinstance(A, ModuleObj):
        return modules.free_cover(A)
    return diagrams.d_free_cover(A)


def lift_through_epi(g, e):
    if isinstance(g, ModMor):
        return modules.lift_through_epi(g, e)
    return diagrams.d_lift_through_epi(g, e)

