"""Divisor class groups and monomial boundary covers (condition (M)).

Run as: python3 demos/02_class_groups_and_condition_m.py
"""

from sbvol.conditionm import check_condition_m, sections_of_class
from sbvol.families import dilated_simplex, hpt, schreieder, tpq
from sbvol.toric import class_group


def describe_group(g):
    parts = [f"Z^{g.free_rank}"] if g.free_rank else []
    parts += [f"Z/{m}" for m in g.invariant_factors]
    return " x ".join(parts) if parts else "0"


# The (2,2) divisor polytope in P3 x P2: class group with two torsion factors,
# twelve monomial sections of the ample class, and a reduced monomial through
# every boundary divisor.
p = hpt()
g = class_group(p)
print("== the (2,2) divisor polytope ==")
print("  class group:", describe_group(g))
print("  ample class:", g.ample_class())
secs = sections_of_class(p, g.fan.ample_coefficients())
print(f"  {len(secs)} sections of the ample divisor; exponent vectors:")
for _, w in secs:
    print("   ", w)
rep = check_condition_m(p)
print("  condition (M) holds:", rep.holds)
for i, wit in enumerate(rep.witnesses):
    print(f"    ray {i}: witness {wit}")

# Dilated simplices: reduced witnesses need d distinct variables.
print("\n== dilated simplices ==")
for n in (2, 3):
    for d in range(1, n + 3):
        rep = check_condition_m(dilated_simplex(d, n))
        print(f"  {d}*simplex{n}: condition (M) {'holds' if rep.holds else 'fails'}")

# An empty simplex satisfies condition (M) exactly when it is unimodular.
print("\n== empty tetrahedra ==")
for p_, q_ in [(1, 1), (1, 2), (2, 3)]:
    rep = check_condition_m(tpq(p_, q_))
    print(f"  T({p_},{q_}): condition (M) {'holds' if rep.holds else 'fails'}")

# The small-support hypersurface polytopes: (Z/2)^n x Z with ample (0,..,0,2d).
print("\n== small-support hypersurface polytopes ==")
for n in (3, 4):
    data = schreieder(n)
    g = class_group(data.polytope)
    rep = check_condition_m(data.polytope)
    print(
        f"  n={n}: class group {describe_group(g)}, ample {g.ample_class()}, "
        f"condition (M) {'holds' if rep.holds else 'fails'}"
    )
