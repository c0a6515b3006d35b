"""Double cones, containment certificates, and the covered-dimension tables.

Run as: python3 demos/04_constructions_and_bounds.py
"""

from sbvol.families import (
    bounds_table,
    containment_certificate,
    dilated_simplex,
    divisor_23_certificate_map,
    divisor_23_double_cone,
    exponent_tuples,
    extend_schreieder,
    schreieder,
    simplex_product,
    sum_identity,
)
from sbvol.subdivision import regular_subdivision, staged_distance_height, validate

# -- the 10-vertex double cone and its product containment --------------------

dc = divisor_23_double_cone()
print("== the bidegree (2,3) double cone ==")
print("  vertices:", len(dc.polytope.vertices), "dimension:", dc.polytope.dim())
target = simplex_product([(2, 3), (3, 4)])
cert = containment_certificate(dc.polytope, target, divisor_23_certificate_map())
print("  contained in 2*simplex3 x 3*simplex4:", cert.contained)

heights = staged_distance_height(dc.polytope, dc.embedded_base(), dc.slices())
s = regular_subdivision(dc.polytope, heights)
print("  staged-distance subdivision valid:", validate(s).ok)
touching = [
    c for c in s.maximal_cells if all(c.contains(v) for v in dc.embedded_base().vertices)
]
print(
    "  cells containing the base:",
    len(touching),
    "widths:",
    [c.lattice_width()[0] for c in touching],
)

# -- degree-preserving extensions ---------------------------------------------

print("\n== degree-preserving extensions ==")
data = schreieder(3)
steps = []
for eps in exponent_tuples(3):
    steps += [eps] * ((3 - sum(eps)) // 2)
print("  extension budget for n=3:", len(steps), "(closed form:", sum_identity(3)[1], ")")
ext = extend_schreieder(data, steps)
print("  extended polytope dimension:", ext.ambient_dim)
print(
    "  contained in 5*simplex:",
    containment_certificate(ext, dilated_simplex(5, ext.ambient_dim)).contained,
)

# -- covered dimension ranges ---------------------------------------------------

print("\n== hypersurface table ==")
rows, _ = bounds_table(range(3, 7), "hypersurface")
print("  n  degree  N range        baseline up to")
for r in rows:
    print(f"  {r.n}  {r.degree:>6}  [{r.n_min}, {r.n_max}]".ljust(34) + f"{r.n_max_baseline}")

print("\n== double cover table ==")
rows, _ = bounds_table(range(3, 7), "double_cover")
for r in rows:
    print(f"  n={r.n}: even degree {r.degree}, N in [{r.n_min}, {r.n_max}]")
