"""Left derived functors, long exact sequences, and the comparison
between derived functors taken in a diagram category and componentwise.
"""

from functor_homology.complexes import SES
from functor_homology.derived import comparison_iso, derived, les_of_ses
from functor_homology.diagrams import Diagram
from functor_homology.fincat import standard
from functor_homology.functors import base_change, tensor_with
from functor_homology.modules import ModMor, cyclic, trivial_module
from functor_homology.rings import (augmentation_map, cyclic_group_table,
                                    group_algebra)

print("== Tor over Z ==")
F = tensor_with(cyclic(2))
for n in (0, 1, 2):
    print(f"L_{n} ((-) x Z/2) (Z/2) =", derived(F, cyclic(2), n).describe())

print()
print("== the long exact sequence of 0 -> Z --x2--> Z -> Z/2 -> 0 ==")
Zm, Z2 = cyclic(0), cyclic(2)
ses = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
les = les_of_ses(F, ses, 2)
for n in (1, 0):
    row = " -> ".join(les.objs[(c, n)].describe() for c in ("L", "M", "N"))
    print(f"  degree {n}:  {row}")
print("exact everywhere:", les.all_exact())
print("connecting map delta_1 is nonzero (a Bockstein):",
      not les.delta[1].is_zero())

print()
print("== group homology as a derived functor ==")
R = group_algebra(2, cyclic_group_table(2), label="F2[C2]")
G = base_change(augmentation_map(R))
T = trivial_module(R)
print("H_n(C2; F2) has dimension",
      [derived(G, T, n).fp_dimension() for n in range(5)])

print()
print("== derived functors commute with diagram components ==")
arrow = standard("arrow")
Z4 = cyclic(4)
A = Diagram(arrow, {"0": Z4, "1": Z2},
            {"id_0": Z4.identity(), "id_1": Z2.identity(),
             "a": ModMor(Z4, Z2, [[1]])})
res = comparison_iso(F, A, 1)
print("componentwise side:",
      {o: res.componentwise.components[o].describe() for o in arrow.objects})
print("diagramwise side:  ",
      {o: res.diagramwise.components[o].describe() for o in arrow.objects})
print("canonical comparison map is an isomorphism:", res.iso)
