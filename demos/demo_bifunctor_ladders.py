"""The derived tensor bifunctor: balance between the two resolution
routes, and the commuting ladder of long exact rows attached to a
morphism of short exact sequences in one variable and a map in the other.
"""

from functor_homology.bifunctor import (balance_comparison, ladder,
                                        ladder_switched, tensor, tor_first,
                                        tor_second)
from functor_homology.complexes import MorphismOfSES, SES
from functor_homology.modules import ModMor, cyclic

print("== tensor and Tor ==")
print("Z/4 (x) Z/6 =", tensor(cyclic(4), cyclic(6)).describe())
print("Tor_1(Z/4, Z/6) =", tor_first(cyclic(4), cyclic(6), 1).describe())
print("Tor_1 via the second variable =",
      tor_second(cyclic(4), cyclic(6), 1).describe())
bal = balance_comparison(cyclic(4), cyclic(6), 1)
print("canonical comparison is an isomorphism:", bal.iso)

print()
print("== a two-variable ladder ==")
Zm, Z2, Z4 = cyclic(0), cyclic(2), cyclic(4)
ses1 = SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
ses2 = SES(ModMor(Zm, Zm, [[4]]), ModMor(Zm, Z4, [[1]]))
mor = MorphismOfSES(ses1, ses2, Zm.identity(), ModMor(Zm, Zm, [[2]]),
                    ModMor(Z2, Z4, [[2]]))
result = ladder(mor, Z2.identity(), 2)
print("rows exact:", result.rows_exact())
print("all squares (including the connecting squares) commute:",
      result.all_squares())

print()
print("== variables switched: rows in the second slot ==")
ses_b = SES(ModMor(Z2, Z4, [[2]]), ModMor(Z4, Z2, [[1]]))
mor_b = MorphismOfSES(ses_b, ses_b, Z2.identity(), Z4.identity(),
                      Z2.identity())
result_b = ladder_switched(mor_b, Z2.identity(), 2)
print("rows exact:", result_b.rows_exact())
print("squares commute:", result_b.all_squares())
print("nonzero connecting map in the rows:",
      not result_b.row_src.delta[1].is_zero())
