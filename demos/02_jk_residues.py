"""The global JK residue of a quiver's meromorphic form, two ways.

Both routes read the local JK residue at the singular points that building
the weight/root arrangement met.  Route one sums it over every point whose
cone holds the stability.  Route two walks the spanning trees of the reduced
quiver, lifts each tree arrow back to an original arrow, and sums it over the
points of the lifts of the stable trees.  The two answers agree exactly, and
are independent of the generic R-charges.
"""

from fractions import Fraction as Q

from jkscatter import (Quiver, Stability, DimVector, build_arrangement,
                       build_ZQ, jk_global_ZQ, jk_tree_expansion)

kron2 = Quiver.make(["1", "2"], [("1", "2"), ("1", "2")])
d = DimVector.make(kron2, {"1": 1, "2": 1})
theta = Stability.make(kron2, {"1": Q(1), "2": Q(-1)})

a = build_arrangement(kron2, d, rcharges=[Q(1, 7), Q(2, 7)])
print("Z_Q for the 2-Kronecker quiver:")
print(" ", build_ZQ(a))

value, expansion = jk_tree_expansion(kron2, theta, a)
print("\ntree expansion:")
for term in expansion.terms:
    print(f"  lift {term.lift} at point {term.point}:"
          f" local value {term.local_value} (stable={term.indicator})")
print(f"  total: {value}")
print(f"global enumeration: {jk_global_ZQ(kron2, theta, a)}")

print("\nsame computation for five other R-charge seeds:")
for seed in range(5):
    a2 = build_arrangement(kron2, d, seed=seed)
    print(f"  seed {seed}: R = {a2.rcharges} -> JK = {jk_global_ZQ(kron2, theta, a2)}")
