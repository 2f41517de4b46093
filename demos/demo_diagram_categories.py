"""Diagrams over a finite index category form an abelian category again:
kernels and cokernels are componentwise with induced structure maps, and
a sequence of diagrams is exact precisely when every component sequence
is.  This script walks through those facts on explicit diagrams.
"""

from functor_homology.diagrams import (DiagMor, Diagram, d_cokernel,
                                       d_exactness_report, d_kernel,
                                       free_diagram)
from functor_homology.fincat import product, standard
from functor_homology.functors import exponent_apply, tensor_with
from functor_homology.modules import ModMor, cyclic, free_module

arrow = standard("arrow")
print("the arrow category:", arrow.objects, arrow.mor_names)
square = standard("square")
print("the commutative square:", len(square.objects), "objects,",
      len(square.mor_names), "morphisms")
print("arrow x arrow:", len(product(arrow, arrow).mor_names), "morphisms")

print()
print("== componentwise kernels with induced maps ==")
Z4, Z2 = cyclic(4), cyclic(2)
D = Diagram(arrow, {"0": Z4, "1": Z2},
            {"id_0": Z4.identity(), "id_1": Z2.identity(),
             "a": ModMor(Z4, Z2, [[1]])})
E = Diagram(arrow, {"0": Z2, "1": Z2},
            {"id_0": Z2.identity(), "id_1": Z2.identity(),
             "a": Z2.identity()})
t = DiagMor(D, E, {"0": ModMor(Z4, Z2, [[1]]), "1": Z2.identity()})
K, mono = d_kernel(t)
print("kernel components:",
      {o: K.components[o].describe() for o in arrow.objects})
Q, epi = d_cokernel(t)
print("cokernel is zero:", Q.is_zero())

print()
print("== exactness is componentwise ==")
verdict, failing = d_exactness_report(mono, t)
print("0 -> K -> D -> E exact at D:", verdict)

print()
print("== free (representable) diagrams ==")
F = free_diagram(arrow, "0", free_module(Z4.ring, 1))
print("free diagram based at 0 has components",
      {o: F.components[o].describe() for o in arrow.objects})

print()
print("== exponent functors act componentwise ==")
FD = exponent_apply(tensor_with(Z2), D)
print("(x Z/2)^I applied to (Z/4 -> Z/2):",
      {o: FD.components[o].describe() for o in arrow.objects})
