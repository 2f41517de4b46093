"""Finitely presented modules and the abelian-category toolkit.

Two base categories are available: finitely presented abelian groups, and
modules over a finite-dimensional F_p-algebra (group algebras included).
Kernels, cokernels and images come with their universal morphisms, and
the image really is computed as the kernel of the cokernel.
"""

from functor_homology.abelian import image
from functor_homology.derived import resolve
from functor_homology.modules import (ModMor, biproduct, cokernel, cyclic,
                                      is_exact_at, kernel, trivial_module)
from functor_homology.rings import cyclic_group_table, group_algebra

print("== kernels and cokernels over Z ==")
Z4, Z2 = cyclic(4), cyclic(2)
q = ModMor(Z4, Z2, [[1]])
K, mono = kernel(q)
print("kernel of Z/4 -> Z/2:", K.describe())
Zm = cyclic(0)
x2 = ModMor(Zm, Zm, [[2]])
C, epi = cokernel(x2)
print("cokernel of x2 on Z:", C.describe())
img = image(x2)
print("image of x2 (as ker of coker):", img.obj.describe())

print()
print("== exactness ==")
print("Z --x2--> Z -> Z/2 exact in the middle:",
      is_exact_at(x2, ModMor(Zm, Z2, [[1]])))
x4 = ModMor(Zm, Zm, [[4]])
print("Z --x4--> Z -> Z/2 exact in the middle:",
      is_exact_at(x4, ModMor(Zm, Z2, [[1]])))

print()
print("== biproducts ==")
bp = biproduct(Z2, cyclic(3))
print("Z/2 (+) Z/3 =", bp.obj.describe())

print()
print("== free resolutions ==")
res = resolve(cyclic(6), 2)
print("resolution of Z/6:", [res.term(n).describe() for n in range(3)])
R = group_algebra(2, cyclic_group_table(2), label="F2[C2]")
T = trivial_module(R)
resT = resolve(T, 4)
print("resolution of the trivial F2[C2]-module is periodic of rank",
      [resT.term(n).free_rank for n in range(5)])
print("its differential (multiplication by 1+g):", resT.diff(1).matrix.data)
