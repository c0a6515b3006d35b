"""Tour of the basic exact invariants: width, classification, Fine interior.

Run as: python3 demos/01_polytope_invariants.py
"""

from sbvol import hull
from sbvol.families import dilated_simplex, tpq
from sbvol.toric import fine_interior


def show(title, lines):
    print(f"\n== {title} ==")
    for line in lines:
        print("  " + line)


# Empty tetrahedra all have lattice width one, whatever their volume.
rows = []
for p_, q_ in [(1, 2), (3, 7), (7, 19)]:
    t = tpq(p_, q_)
    w, cert = t.lattice_width()
    rows.append(f"T({p_},{q_}): volume {t.normalized_volume()}, width {w} along {cert}")
show("empty tetrahedra", rows)

# Dilated simplices have width equal to the dilation factor.
rows = []
for d in (2, 3, 4):
    s = dilated_simplex(d, 3)
    c = s.classify()
    rows.append(
        f"{d}*simplex3: width {s.lattice_width()[0]}, "
        f"{s.n_lattice_points()} points, hollow={c.is_hollow}"
    )
show("dilated simplices", rows)

# A hollow polytope whose Fine interior is a fat rational polytope:
# no interior lattice points, yet the shifted halfspaces leave a
# three-dimensional body, so a general section is of general type.
p = hull([(0, 2, 2), (1, 3, 0), (2, 4, 3), (3, 0, 1)])
fi = fine_interior(p)
show(
    "a hollow polytope of general type",
    [
        f"interior lattice points: {p.n_interior_points()}",
        f"fine interior dim: {fi.dim}, lattice: {fi.is_lattice}",
        "fine interior vertices: "
        + ", ".join("(" + ", ".join(str(x) for x in v) + ")" for v in fi.vertices()),
        # general type: Kodaira dimension one less than the polytope's dimension
        f"kodaira dimension: {fi.kodaira_dimension}"
        f" (general type: {fi.kodaira_dimension == p.dim() - 1})",
    ],
)

# The K3 case: one interior point, Kodaira dimension zero.
s = dilated_simplex(4, 3)
fi = fine_interior(s)
show(
    "the quartic surface polytope",
    [
        "fine interior vertices: "
        + ", ".join(
            "(" + ", ".join(str(x) for x in v) + ")" for v in fi.vertices()
        ),
        f"kodaira dimension: {fi.kodaira_dimension}",
    ],
)
