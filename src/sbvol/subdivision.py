"""Regular integral subdivisions: lower hulls, pulling refinements, distance heights.

A subdivision is stored as its maximal cells plus the full face closure,
together with the inducing heights and the affine witness of the lower
envelope on each maximal cell.  Everything is exact; heights are rationals
and get scaled to integers before the lifted hull is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import dd
from .errors import DegenerateInputError, InternalConsistencyError, SubdivisionError
from .intlinalg import dot, rank, solve_rational
from .polytope import LatticePolytope, face_closure, hull, slacks


def height_function(p: LatticePolytope, fn) -> dict:
    """Tabulate a callable on the lattice points of p."""
    return {x: Fraction(fn(x)) for x in p.lattice_points()}


@dataclass(frozen=True)
class Subdivision:
    polytope: LatticePolytope
    maximal_cells: tuple  # LatticePolytope, full-dimensional, sorted
    cells: tuple  # full face closure, sorted by (dim, vertices)
    heights: tuple | None  # sorted ((point, Fraction), ...) or None for hand-built
    witness: tuple | None  # per maximal cell: (gradient Fractions, constant)

    def height_map(self):
        return dict(self.heights) if self.heights is not None else None

    def cells_of_dim(self, k):
        return tuple(c for c in self.cells if c.dim() == k)

    def witness_value(self, cell_index, x):
        grad, const = self.witness[cell_index]
        return sum(g * Fraction(v) for g, v in zip(grad, x)) + const

    def envelope_value(self, x):
        """Value of the piecewise affine witness at a point of the polytope."""
        vals = [
            self.witness_value(i, x)
            for i, c in enumerate(self.maximal_cells)
            if c.contains(x)
        ]
        if not vals:
            raise DegenerateInputError(f"{x!r} lies in no maximal cell")
        return min(vals)


def _face_closure_cells(maximal_cells):
    out = set()
    for cell in maximal_cells:
        for _, faces in cell.faces().items():
            out.update(faces)
    return tuple(sorted(out, key=lambda c: (c.dim(), c.vertices)))


def regular_subdivision(p: LatticePolytope, heights: dict) -> Subdivision:
    """Subdivision induced by the lower convex envelope of the lifted lattice points."""
    if not p.is_full_dimensional():
        raise DegenerateInputError("subdivide a full-dimensional polytope (normalize first)")
    pts = p.lattice_points()
    hmap = {}
    for x in pts:
        if x not in heights:
            raise DegenerateInputError(f"height function is not total: missing {x!r}")
        hmap[x] = Fraction(heights[x])
    d = p.dim()
    scale = lcm(*[v.denominator for v in hmap.values()]) if hmap else 1
    lifted = [x + (int(hmap[x] * scale),) for x in pts]
    v0 = lifted[0]
    diffs = [[a - b for a, b in zip(q, v0)] for q in lifted[1:]]
    if rank(diffs) <= d:
        # Heights are affine on the polytope: the trivial subdivision.
        grad = _affine_fit(pts, hmap, d)
        return Subdivision(
            polytope=p,
            maximal_cells=(p,),
            cells=_face_closure_cells([p]),
            heights=tuple(sorted(hmap.items())),
            witness=(grad,),
        )
    facets = dd.facet_normals_from_points(lifted)
    maximal = []
    witness = []
    for n, c in facets:
        w = n[d]
        if w <= 0:
            continue  # not a lower facet
        tight = [x for x, q in zip(pts, lifted) if dot(n, q) == c]
        cell = hull(tight)
        maximal.append(cell)
        grad = tuple(Fraction(-n[j], w * scale) for j in range(d))
        const = Fraction(c, w * scale)
        witness.append((grad, const))
    order = sorted(range(len(maximal)), key=lambda i: maximal[i].vertices)
    maximal = [maximal[i] for i in order]
    witness = [witness[i] for i in order]
    return Subdivision(
        polytope=p,
        maximal_cells=tuple(maximal),
        cells=_face_closure_cells(maximal),
        heights=tuple(sorted(hmap.items())),
        witness=tuple(witness),
    )


def _affine_fit(pts, hmap, d):
    """Gradient and constant of the affine function through the heights."""
    base = pts[0]
    if len(pts) == 1:
        return (tuple(Fraction(0) for _ in range(d)), Fraction(hmap[base]))
    grad = solve_rational(
        [[a - b for a, b in zip(x, base)] for x in pts[1:]],
        [hmap[x] - hmap[base] for x in pts[1:]],
    )
    if grad is None:
        raise SubdivisionError("heights are not affine despite the rank test")
    const = hmap[base] - sum(g * b for g, b in zip(grad, base))
    return (tuple(grad), const)


def make_subdivision(p: LatticePolytope, maximal_cells, heights=None, witness=None) -> Subdivision:
    """Package hand-built cells (for validation tests and display)."""
    cells = tuple(sorted(maximal_cells, key=lambda c: c.vertices))
    return Subdivision(
        polytope=p,
        maximal_cells=cells,
        cells=_face_closure_cells(cells),
        heights=tuple(sorted((tuple(k), Fraction(v)) for k, v in heights.items()))
        if heights
        else None,
        witness=tuple(witness) if witness else None,
    )


# -- pulling refinements ---------------------------------------------------------


def pulling_refinement(s: Subdivision, point) -> Subdivision:
    """Refine by coning a lattice point over the point-free faces of its cells.

    The new subdivision is constructed from a height function (the stored
    heights with the value at the point pulled down) and verified against
    the combinatorial prediction; the pull-down amount is halved until the
    lower hull reproduces the prediction exactly.
    """
    p = s.polytope
    point = tuple(int(x) for x in point)
    if point not in p.lattice_points():
        raise DegenerateInputError(f"{point!r} is not a lattice point of the polytope")
    if s.heights is None:
        raise SubdivisionError("pulling needs the inducing heights")
    predicted = set()
    for cell in s.maximal_cells:
        if not cell.contains(point):
            predicted.add(cell)
            continue
        for facet in cell.faces(cell.dim() - 1):
            if not facet.contains(point):
                predicted.add(hull(list(facet.vertices) + [point]))
    base = s.envelope_value(point)
    hmap = s.height_map()
    delta = Fraction(1)
    for _ in range(64):
        hmap[point] = base - delta
        candidate = regular_subdivision(p, hmap)
        if set(candidate.maximal_cells) == predicted:
            return candidate
        delta /= 2
    raise SubdivisionError("no pull-down amount reproduced the pulling refinement")


# -- distance heights --------------------------------------------------------------


def _vertex_list(poly):
    """Vertices of a lattice or a rational polytope."""
    return poly.vertices if isinstance(poly, LatticePolytope) else poly.vertices()


def _face_vertex_lists(poly):
    """Vertex lists of all faces, for lattice or rational polytopes."""
    verts = _vertex_list(poly)
    if isinstance(poly, LatticePolytope):
        return [[verts[i] for i in sorted(f)] for f in poly._face_index_sets()]
    if not verts:
        raise DegenerateInputError("empty polytope has no faces")
    full = frozenset(range(len(verts)))
    rows = [tuple(slacks(poly.halfspaces, v)) for v in verts]
    tight = [frozenset(i for i, s in enumerate(col) if s == 0) for col in zip(*rows)]
    faces = face_closure(full, [t for t in tight if t])
    return [[verts[i] for i in sorted(f)] for f in faces]


def _projection_data(face_vertices):
    """(base, basis rows, coefficient matrix) projecting onto the affine span."""
    base = tuple(Fraction(x) for x in face_vertices[0])
    diffs = []
    for v in face_vertices[1:]:
        dv = tuple(Fraction(a) - b for a, b in zip(v, base))
        cand = diffs + [dv]
        if rank([[x for x in row] for row in cand]) == len(cand):
            diffs.append(dv)
    if not diffs:
        return (base, (), ())
    k = len(diffs)
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in diffs] for r1 in diffs]
    ginv_rows = []
    for i in range(k):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(k)]
        ginv_rows.append(solve_rational(gram, rhs))
    # coeff = G^{-1} B, mapping (x - base) to the span coordinates of the projection
    coeff = tuple(
        tuple(sum(ginv_rows[i][t] * diffs[t][j] for t in range(k)) for j in range(len(base)))
        for i in range(k)
    )
    return (base, tuple(diffs), coeff)


def min_squared_distance(poly, x) -> Fraction:
    """Exact squared Euclidean distance from x to a (lattice or rational) polytope."""
    data = poly._cache.get("nearest_data") if hasattr(poly, "_cache") else None
    if data is None:
        data = [_projection_data(f) for f in _face_vertex_lists(poly)]
        if hasattr(poly, "_cache"):
            poly._cache["nearest_data"] = data
    xs = tuple(Fraction(v) for v in x)
    best = None
    for base, basis, coeff in data:
        diff = tuple(a - b for a, b in zip(xs, base))
        proj = list(base)
        if basis:
            lam = [sum(c * dv for c, dv in zip(row, diff)) for row in coeff]
            for l, b in zip(lam, basis):
                for j in range(len(proj)):
                    proj[j] += l * b[j]
        if not poly.contains(proj):
            continue
        d2 = sum((a - b) ** 2 for a, b in zip(xs, proj))
        if best is None or d2 < best:
            best = d2
    if best is None:
        raise InternalConsistencyError("no face of the polytope holds the nearest point")
    return best


def distance_height(p: LatticePolytope, delta) -> dict:
    """Squared distance to a subpolytope at every lattice point; zero exactly on it."""
    if not all(p.contains(v) for v in _vertex_list(delta)):
        raise DegenerateInputError("the target polytope is not contained in the big one")
    return {x: min_squared_distance(delta, x) for x in p.lattice_points()}


def staged_distance_height(p: LatticePolytope, delta, slices=()) -> dict:
    """Sum of squared distances to a nested chain of slices ending at delta.

    slices lists the strictly larger stages, outermost first; the final
    stage is delta itself.  The chain must be nested, else the construction
    does not match its intent and an error is raised.
    """
    chain = list(slices) + [delta]
    for bigger, smaller in zip(chain, chain[1:]):
        if not all(bigger.contains(v) for v in _vertex_list(smaller)):
            raise DegenerateInputError("inconsistent slice chain: stages are not nested")
    total = {x: Fraction(0) for x in p.lattice_points()}
    for stage in chain:
        for x in total:
            total[x] += min_squared_distance(stage, x)
    return total


# -- validation ----------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple  # (name, passed, detail)

    def failed(self):
        return [c for c in self.checks if not c[1]]


def lies_in_boundary(p: LatticePolytope, points) -> bool:
    """True when the points lie in one facet of the full-dimensional polytope p."""
    return any(all(dot(n, x) == c for x in points) for n, c in p.facet_system())


def validate(s: Subdivision, p: LatticePolytope | None = None) -> ValidationReport:
    """Check integrality, cover, face-to-face facet pairing, and the witness.

    Full-dimensional cells inside p whose normalized volumes sum to that of
    p form a subdivision exactly when every cell facet off the boundary of p
    is a facet of exactly one other cell, lying on the opposite side
    (De Loera, Rambau, Santos, Triangulations, 2010, section 4.5).  The
    matched facets are the walls the strict convexity check crosses.
    """
    if p is None:
        p = s.polytope
    checks = []
    d = p.dim()

    integral = all(
        all(isinstance(x, int) for v in c.vertices for x in v) for c in s.maximal_cells
    )
    checks.append(("integral", integral, ""))

    dims_ok = all(c.dim() == d for c in s.maximal_cells)
    vol = sum((c.normalized_volume() for c in s.maximal_cells), 0)
    cover = dims_ok and vol == p.normalized_volume() and all(
        p.contains(v) for c in s.maximal_cells for v in c.vertices
    )
    checks.append(
        ("cover", cover, f"cell volume sum {vol} vs {p.normalized_volume()}")
    )

    sides = {}  # vertex set of a facet off the boundary -> [(cell index, inner normal)]
    for i, cell in enumerate(s.maximal_cells if dims_ok else ()):
        for n, c in cell.facet_system():
            facet = frozenset(v for v in cell.vertices if dot(n, v) == c)
            if not lies_in_boundary(p, facet):
                sides.setdefault(facet, []).append((i, n))
    walls = []  # (cell index, cell index, shared facet vertex set)
    detail = "" if dims_ok else "a maximal cell is not full-dimensional"
    for facet, found in sides.items():
        if len(found) == 2 and found[0][1] == tuple(-x for x in found[1][1]):
            walls.append((found[0][0], found[1][0], facet))
        elif not detail:
            detail = f"facet {sorted(facet)} is not shared by two opposite cells: {found}"
    checks.append(("pairwise_faces", not detail, detail))

    if s.witness is not None:
        affine_ok = True
        dominated_ok = True
        hmap = s.height_map()
        for idx, cell in enumerate(s.maximal_cells):
            for v in cell.vertices:
                if hmap is not None and s.witness_value(idx, v) != hmap[v]:
                    affine_ok = False
        if hmap is not None:
            for x, hx in hmap.items():
                for idx in range(len(s.maximal_cells)):
                    if s.witness_value(idx, x) > hx:
                        dominated_ok = False
        checks.append(("witness_affine", affine_ok, ""))
        checks.append(("witness_dominates", dominated_ok, ""))

        # Extended across a wall, each cell's affine piece lies strictly
        # below its neighbour's at the neighbour's vertices off the wall.
        strict_ok = all(
            s.witness_value(a, u) < s.witness_value(b, u)
            for i, j, wall in walls
            for a, b in ((i, j), (j, i))
            for u in s.maximal_cells[b].vertices
            if u not in wall
        )
        checks.append(("witness_strictly_convex", strict_ok, ""))

    ok = all(c[1] for c in checks)
    return ValidationReport(ok, tuple(checks))


def interior_cells(s: Subdivision, p: LatticePolytope | None = None):
    """Cells not contained in the boundary of the subdivided polytope."""
    if p is None:
        p = s.polytope
    return tuple(c for c in s.cells if not lies_in_boundary(p, c.vertices))
