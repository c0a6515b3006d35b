"""Regular integral subdivisions: lower hulls, distance heights, validation.

A subdivision is stored as its maximal cells plus the full face closure,
together with the inducing heights and, as the witness of regularity, the
lower facet of the lifted points on each maximal cell.  Every cell of the
closure is a bitmask over the distinct vertices of the maximal cells, which
makes "lies in the boundary" an AND of the vertices' facet carriers; a
cell's polytope is built only when it is read.  Everything
is exact; heights are rationals and get scaled to integers before the
lower hull of the lifted points is computed, and the witness stays in
those integers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import dd
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
)
from .intlinalg import adjugate, dot, vec_mat
from .polytope import (
    LatticePolytope,
    RationalPolytope,
    _as_tuple,
    _bits,
    _check_ambient,
    _instance,
    _int_in,
    _rational,
    _simplex_faces,
    _transpose,
    _vertex_mask,
    carrier,
    slacks,
)


def height_function(p: LatticePolytope, fn) -> dict:
    """Tabulate a callable on the lattice points of p."""
    return {x: _rational(fn(x), f"height at {x!r}") for x in p.lattice_points()}


@dataclass(frozen=True)
class Subdivision:
    """Maximal cells, their face closure and, when regular, heights and witness.

    The face closure is stored as bitmasks over `points`, the sorted
    distinct vertices of the maximal cells: bit i stands for points[i].
    `cell_masks` is sorted by (dimension, vertices), `cell_dims` holds each
    cell's dimension and `cell_parents[j]` is a bitmask over the maximal
    cells that cell j is a face of, bit k standing for maximal_cells[k].
    `cells` is the same closure as LatticePolytopes, aligned with the masks:
    its length is read off the masks, and a cell is built the first time it
    is read.  A cell lies in the boundary of the polytope when the AND of its
    vertices' carriers, the bitmasks of the facets each lies on, is nonzero.
    """

    polytope: LatticePolytope
    maximal_cells: tuple  # LatticePolytope, full-dimensional, sorted
    heights: tuple | None  # sorted ((point, Fraction), ...) or None for hand-built
    # Per maximal cell, its lower facet (n, c) of the lifted points (x, h(x) * scale):
    # integers, n[-1] > 0, <n, (x, h(x) * scale)> >= c with equality on the cell.
    witness: tuple | None
    points: tuple = field(repr=False)
    cell_masks: tuple = field(repr=False)
    cell_dims: tuple = field(repr=False)  # aligned with cell_masks
    cell_parents: tuple = field(repr=False)  # aligned with cell_masks

    def height_map(self):
        return dict(self.heights) if self.heights is not None else None

    @cached_property
    def height_scale(self) -> int:
        """lcm of the height denominators: h(x) * scale is the lifted coordinate."""
        return lcm(*(h.denominator for _, h in self.heights or ()))

    @cached_property
    def maximal_masks(self) -> tuple:
        """Each maximal cell's vertex mask over `points`."""
        bit = {v: 1 << i for i, v in enumerate(self.points)}
        return tuple(sum(bit[v] for v in c.vertices) for c in self.maximal_cells)

    @cached_property
    def cells(self) -> "Cells":
        """The face closure as LatticePolytopes, aligned with cell_masks, built on read."""
        return Cells(self)


class Cells(Sequence):
    """The cells of a subdivision, each built from its vertex mask the first time it is read.

    A maximal cell is read as the maximal cell object itself, so caches such
    as its width are shared.  `in` looks up the vertex mask and builds no cell.
    """

    def __init__(self, s: Subdivision):
        self._points = s.points
        self._masks = s.cell_masks
        self._dims = s.cell_dims
        self._ambient = s.polytope.ambient_dim
        self._cells = [None] * len(s.cell_masks)
        self._maximal = dict(zip(s.maximal_masks, s.maximal_cells))
        self._lookup = None  # (point -> bit, set of masks), made on the first `in`

    def __len__(self):
        return len(self._masks)

    def __getitem__(self, j):
        cell = self._cells[j]
        if cell is None:
            mask = self._masks[j]
            cell = self._maximal.get(mask)
            if cell is None:
                cell = LatticePolytope._trusted(self._ambient, [self._points[i] for i in _bits(mask)])
                cell._cache["dim"] = self._dims[j]
            self._cells[j] = cell
        return cell

    def __contains__(self, cell):
        if self._lookup is None:
            self._lookup = ({v: 1 << i for i, v in enumerate(self._points)}, set(self._masks))
        bit, masks = self._lookup
        return (
            isinstance(cell, LatticePolytope)
            and cell.ambient_dim == self._ambient
            and all(v in bit for v in cell.vertices)
            and sum(bit[v] for v in cell.vertices) in masks
        )


def _cell_lattice(maximal_cells):
    """(points, masks, dims, parents) of the face closure of the sorted maximal cells.

    A simplex's faces are the submasks of its vertex mask over the shared
    points.  Any other cell's come from its face lattice, as bitmasks over
    its own vertices, and are renumbered onto the shared points.  The points
    are sorted, so ordering the masks by dimension and then by their
    ascending bit indices orders the cells by (dim, vertices).
    """
    points = tuple(sorted({v for c in maximal_cells for v in c.vertices}))
    bit = {v: 1 << i for i, v in enumerate(points)}
    dims = {}
    parents = {}
    for k, cell in enumerate(maximal_cells):
        at = [bit[v] for v in cell.vertices]
        if cell.is_simplex():
            faces = _simplex_faces(sum(at))
        else:
            faces = ((sum(at[i] for i in _bits(m)), d) for m, d in cell._face_masks().items())
        for mask, d in faces:
            dims[mask] = d
            parents[mask] = parents.get(mask, 0) | 1 << k
    masks = sorted(dims, key=lambda m: (dims[m], _bits(m)))
    return points, tuple(masks), tuple(dims[m] for m in masks), tuple(parents[m] for m in masks)


def _subdivision(p, maximal_cells, heights, witness):
    return Subdivision(p, maximal_cells, heights, witness, *_cell_lattice(maximal_cells))


def _check_height_points(p: LatticePolytope, heights):
    """Raise unless heights is a table whose every point is a lattice point of p."""
    if not isinstance(heights, Mapping):
        raise DegenerateInputError(f"heights must map lattice points to heights, got {heights!r}")
    points = set(p.lattice_points())
    for x in heights:
        if not isinstance(x, tuple):
            raise DegenerateInputError(f"height key {x!r} is not a lattice point of the polytope")
        if len(x) != p.ambient_dim:
            raise DimensionMismatchError(f"height point {list(x)} is not in Z^{p.ambient_dim}")
        if x not in points:
            raise DegenerateInputError(
                f"height point {list(x)} is not a lattice point of the polytope"
            )
        for v in x:  # (1.0, 0) and (True, 0) equal lattice points
            _int_in(v, "height point coordinate")


def regular_subdivision(p: LatticePolytope, heights: dict) -> Subdivision:
    """Subdivision induced by the lower convex envelope of the lifted lattice points.

    One double description finds the facets (n, c) of the lift plus the
    vertical ray, <n, X> >= c at every lifted point X = (x, h(x) * scale)
    and n[d] >= 0: its rows are (0, ..., 0, 1, 0) and then (X, 1), and each
    extreme ray r is (n, -c).  A full-dimensional polytope makes the rows
    span, so the cone is pointed, even for affine heights.  The rays with
    n[d] > 0 are the lower facets; each maximal cell is the projection of
    the lifted vertices on one, the vertices found by `_vertex_mask` over
    the rays' zero sets on the lifted points.

    The lifted points go in by increasing height, ties in lattice-point
    order.  The hull is built bottom-up: each new point is the highest so
    far, so it cuts few of the facets built before it, and the DD combines
    few ray pairs.  The order changes the DD's work, never its rays.
    """
    if not _instance(p, LatticePolytope, "a lattice polytope").is_full_dimensional():
        raise DegenerateInputError("subdivide a full-dimensional polytope (normalize first)")
    _check_height_points(p, heights)
    hmap = {}
    for x in p.lattice_points():
        if x not in heights:
            raise DegenerateInputError(f"height function is not total: missing {x!r}")
        hmap[x] = _rational(heights[x], f"height at {x!r}")
    pts = sorted(hmap, key=hmap.__getitem__)
    d = p.dim()
    scale = lcm(*[v.denominator for v in hmap.values()])
    rows = [(0,) * d + (1, 0)] + [x + (int(hmap[x] * scale), 1) for x in pts]
    rays, lineality, zero_sets = dd.extreme_rays(rows, d + 2)
    if lineality:
        raise InternalConsistencyError("the lift of a full-dimensional polytope spans a line")
    tight = [zs >> 1 for zs in zero_sets]  # over pts: bit 0 was the vertical row
    vertices = _vertex_mask(_transpose(tight, len(pts)))
    maximal = []
    witness = []
    for r, t in zip(rays, tight):
        if r[d] <= 0:
            continue  # not a lower facet
        maximal.append(LatticePolytope._trusted(d, [pts[i] for i in _bits(t & vertices)]))
        witness.append((r[: d + 1], -r[d + 1]))
    order = sorted(range(len(maximal)), key=lambda i: maximal[i].vertices)
    return _subdivision(
        p,
        tuple(maximal[i] for i in order),
        tuple(sorted(hmap.items())),
        tuple(witness[i] for i in order),
    )


def make_subdivision(p: LatticePolytope, maximal_cells, heights=None) -> Subdivision:
    """Package hand-built cells (for validation tests and display); they carry no witness."""
    cells = _as_tuple(maximal_cells, "maximal cells")
    for c in cells:
        if _instance(c, LatticePolytope, "a lattice polytope").ambient_dim != p.ambient_dim:
            raise DimensionMismatchError(f"cell {c!r} is not in Z^{p.ambient_dim}")
    cells = tuple(sorted(cells, key=lambda c: c.vertices))
    if heights:
        _check_height_points(p, heights)
    return _subdivision(
        p,
        cells,
        tuple(sorted((k, _rational(v, f"height at {k!r}")) for k, v in heights.items()))
        if heights
        else None,
        None,
    )


# -- distance heights --------------------------------------------------------------


def _vertex_list(poly):
    """Vertices of a lattice or a rational polytope; anything else raises."""
    _instance(poly, (LatticePolytope, RationalPolytope), "a lattice or a rational polytope")
    return poly.vertices() if isinstance(poly, RationalPolytope) else poly.vertices


def _certify_min_norm(points, weights, den, big):
    """Raise unless big / den, big = sum w_i p_i, is the point of conv(points) nearest 0.

    Integer weights w_i >= 0 summing to den > 0 put y = big / den in the hull,
    and den <big, p> >= |big|^2, that is <y, p> >= |y|^2, for every point p
    puts the hull where every norm is at least |y| (Wolfe 1976).
    """
    if den <= 0 or min(weights) < 0 or sum(weights) != den or vec_mat(weights, points) != big:
        raise InternalConsistencyError("min-norm weights are not convex or miss the point")
    if den * min(dot(big, p) for p in points) < dot(big, big):
        raise InternalConsistencyError("min-norm point is not optimal over the hull")


def _affine_minimizer(corral):
    """(A, E), E > 0: A_i / E weigh the point of the affine span nearest the origin.

    They are the last column of adj [G 1; 1^T 0] over its determinant.
    """
    k = len(corral)
    system = [[dot(p, q) for q in corral] + [1] for p in corral] + [[1] * k + [0]]
    try:
        d, adj = adjugate(system)
    except DegenerateInputError:
        raise InternalConsistencyError("corral points are affinely dependent") from None
    s = 1 if d > 0 else -1
    return [s * row[k] for row in adj[:k]], s * d


def _wolfe_min_norm(points):
    """(weights, D, Y): the point Y / D of the hull of points nearest the origin, Y = sum w_i p_i.

    Wolfe's algorithm over one common denominator: the corral's weights are
    L_i / D with integers L_i > 0 summing to D.  A major cycle adds the point
    minimising <Y, p> to the corral; minor cycles move towards the affine
    minimum A / E of the corral and drop points whose weight reaches 0.  The
    step theta = min L_i E / (L_i E - A_i D) over A_i <= 0 < L_i is the
    largest -A_k / L_k, found by cross-multiplication, and gives the weights
    L_k A_i - A_k L_i over L_k E - A_k D, reduced by one gcd.  Each major
    cycle must lower |Y / D|.  The weights are aligned with points.
    """
    corral = [min(range(len(points)), key=lambda i: dot(points[i], points[i]))]
    lam, den = [1], 1
    big = points[corral[0]]
    yy = dot(big, big)  # |Y|^2; the point y = Y / D has |y|^2 = yy / D^2
    while yy:
        dots = [dot(big, p) for p in points]
        j = dots.index(min(dots))
        if den * dots[j] >= yy:
            break
        corral, lam, ld = corral + [j], lam + [0], den
        while True:
            alpha, e = _affine_minimizer([points[i] for i in corral])
            if min(alpha) > 0:
                break
            k = None
            for i, (l, a) in enumerate(zip(lam, alpha)):
                if a <= 0 < l and (k is None or a * lam[k] < alpha[k] * l):
                    k = i
            # no step only drops an entering point without weight: the norm check fails.
            if k is not None:
                lk, ak = lam[k], alpha[k]
                lam, ld = [lk * a - ak * l for l, a in zip(lam, alpha)], lk * e - ak * ld
                g = gcd(ld, *lam)
                lam, ld = [l // g for l in lam], ld // g
            corral, lam = [i for i, l in zip(corral, lam) if l > 0], [l for l in lam if l > 0]
        nxt = vec_mat(alpha, [points[i] for i in corral])
        nxt_yy = dot(nxt, nxt)
        if nxt_yy * den * den >= yy * e * e:
            raise InternalConsistencyError("a Wolfe major cycle did not lower the norm")
        lam, den, big, yy = alpha, e, nxt, nxt_yy
    weights = dict(zip(corral, lam))
    return [weights.get(i, 0) for i in range(len(points))], den, big


def _translated(verts, x):
    """(points, scale): the vertices minus x, times the lcm of their denominators, as integers."""
    diffs = [[a - b for a, b in zip(v, x)] for v in verts]
    scale = lcm(*(c.denominator for row in diffs for c in row))
    return [tuple(int(c * scale) for c in row) for row in diffs], scale


def min_squared_distance(poly, x) -> Fraction:
    """Exact squared Euclidean distance from x to a (lattice or rational) polytope.

    A point of the polytope is at distance 0, certified by the exact slack
    test of `contains`.  Any other point's distance is the certified Wolfe
    minimum-norm point of conv(V - x), scaled to integers.
    """
    verts = _vertex_list(poly)
    x = _check_ambient(poly.ambient_dim, x)
    if not verts:
        raise DegenerateInputError("empty polytope has no nearest point")
    if poly.contains(x):
        return Fraction(0)
    points, scale = _translated(verts, x)
    weights, den, big = _wolfe_min_norm(points)
    _certify_min_norm(points, weights, den, big)
    return Fraction(dot(big, big), (den * scale) ** 2)


def distance_height(p: LatticePolytope, delta) -> dict:
    """Squared distance to a subpolytope at every lattice point; zero exactly on it."""
    return staged_distance_height(p, delta)


def staged_distance_height(p: LatticePolytope, delta, slices=()) -> dict:
    """Sum of squared distances to a nested chain of slices ending at delta.

    slices lists the strictly larger stages, outermost first; the final
    stage is delta itself.  The chain must be nested in p, else the
    construction does not match its intent and an error is raised.
    """
    _instance(p, LatticePolytope, "a lattice polytope")
    chain = [*_as_tuple(slices, "stages"), delta]
    for stage in chain:
        _vertex_list(stage)  # raises unless the stage is a polytope
        if stage.ambient_dim != p.ambient_dim:
            raise DimensionMismatchError(f"every stage must lie in Q^{p.ambient_dim}")
    for bigger, smaller in zip([p] + chain, chain):
        if not all(bigger.contains(v) for v in _vertex_list(smaller)):
            raise DegenerateInputError(
                "stages not nested: a stage is not contained in p or in the stage before it"
            )
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
    """True when the points lie in one facet of the full-dimensional polytope p.

    That is, when the AND of the points' carriers, the bitmasks of the
    facets of p each lies on, is nonzero.
    """
    n = _instance(p, LatticePolytope, "a lattice polytope").ambient_dim
    points = [_check_ambient(n, x) for x in _as_tuple(points, "point set")]
    return _boundary_test(points, p)((1 << len(points)) - 1)


def _boundary_test(points, p: LatticePolytope):
    """The test of whether a bitmask over points lies in the boundary of p.

    Each point's carrier is found once, read off p's lattice-point scan when it
    has run (a hand-built cell may reach outside p); a mask's is the AND over its bits.
    """
    facets = p.facet_system()
    scanned = p._cache.get("points", {})
    carriers = [scanned[x] if x in scanned else carrier(facets, x) for x in points]
    every = (1 << len(facets)) - 1

    def in_boundary(mask):
        common = every
        while mask and common:
            low = mask & -mask
            common &= carriers[low.bit_length() - 1]
            mask ^= low
        return common != 0

    return in_boundary


def _subdivided(s: Subdivision, p: LatticePolytope | None) -> LatticePolytope:
    """s.polytope, which p, when given, must be; a p that s does not subdivide raises."""
    _instance(s, Subdivision, "a subdivision")
    if p is not None and _instance(p, LatticePolytope, "a lattice polytope") != s.polytope:
        raise DegenerateInputError(
            f"the subdivision is of the polytope with vertices {s.polytope.vertices}, "
            f"not of the one with vertices {p.vertices}"
        )
    return s.polytope


def validate(s: Subdivision, p: LatticePolytope | None = None) -> ValidationReport:
    """Check integrality, cover, face-to-face facet pairing, and the witness.

    Full-dimensional cells inside p whose normalized volumes sum to that of
    p form a subdivision exactly when every cell facet off the boundary of p
    is a facet of exactly one other cell, lying on the opposite side
    (De Loera, Rambau, Santos, Triangulations, 2010, section 4.5).  The
    matched facets are the walls the strict convexity check crosses.

    Domination is checked last.  Once every other check passes, the cells
    subdivide p and the pieces agree with the heights at the cells'
    vertices, so they agree on every shared face: the witness is continuous
    and piecewise affine on p, and convex across every wall, hence convex
    on p.  Each piece then lies below it, and the witness is the maximum
    of its pieces.  A cell vertex is dominated by its own cell's piece,
    which equals its height; any other lattice point x is dominated exactly
    when its height is at least the piece of a cell containing x, the first
    one, and fails when no cell contains it.  When an earlier check fails,
    every point is tested against every piece.
    """
    p = _subdivided(s, p)
    checks = []
    d = p.dim()

    integral = all(
        all(isinstance(x, int) for v in c.vertices for x in v) for c in s.maximal_cells
    )
    checks.append(("integral", integral, ""))

    dims_ok = all(c.dim() == d for c in s.maximal_cells)
    vol = sum((c.normalized_volume() for c in s.maximal_cells), 0)
    cover = dims_ok and vol == p.normalized_volume() and all(p.contains(v) for v in s.points)
    checks.append(
        ("cover", cover, f"cell volume sum {vol} vs {p.normalized_volume()}")
    )

    in_boundary = _boundary_test(s.points, p) if dims_ok else None
    bit = {v: 1 << i for i, v in enumerate(s.points)}
    sides = {}  # vertex mask of a facet off the boundary -> [(cell index, inner normal)]
    for i, cell in enumerate(s.maximal_cells if dims_ok else ()):
        at = [bit[v] for v in cell.vertices]
        for (n, _), tight in zip(cell.facet_system(), cell._tight_sets()):
            facet = sum(at[k] for k in _bits(tight))
            if not in_boundary(facet):
                sides.setdefault(facet, []).append((i, n))
    walls = []  # (cell index, cell index, shared facet vertex mask)
    detail = "" if dims_ok else "a maximal cell is not full-dimensional"
    for facet, found in sides.items():
        if len(found) == 2 and found[0][1] == tuple(-x for x in found[1][1]):
            walls.append((found[0][0], found[1][0], facet))
        elif not detail:
            vertices = [s.points[k] for k in _bits(facet)]
            detail = f"facet {vertices} is not shared by two opposite cells: {found}"
    checks.append(("pairwise_faces", not detail, detail))

    if s.witness is not None:
        # Integer slacks <n, X> - c of lifted points X = (x, h(x) * scale).  A
        # cell's piece is affine in x only on a lower facet, n[-1] > 0.
        lower = len(s.witness) == len(s.maximal_cells) and all(n[-1] > 0 for n, _ in s.witness)
        scale = s.height_scale
        lifted = {x: x + (h.numerator * (scale // h.denominator),) for x, h in s.heights or ()}
        affine_ok = lower and (
            not lifted
            or all(
                dot(n, lifted[v]) == c
                for (n, c), cell in zip(s.witness, s.maximal_cells)
                for v in cell.vertices
            )
        )
        # Extended across a wall, each cell's affine piece (c - <n', u>) / n[-1]
        # lies strictly below its neighbour's at the neighbour's vertices off
        # the wall; the positive last entries are cross-multiplied.
        strict_ok = lower and all(
            (ca - dot(na, u)) * nb[-1] < (cb - dot(nb, u)) * na[-1]
            for i, j, wall in walls
            for (na, ca), (nb, cb), b in (
                (s.witness[i], s.witness[j], j),
                (s.witness[j], s.witness[i], i),
            )
            for u in s.maximal_cells[b].vertices
            if not bit[u] & wall
        )

        def under_its_piece(x, lift):
            k = next((k for k, cell in enumerate(s.maximal_cells) if cell.contains(x)), None)
            return k is not None and dot(s.witness[k][0], lift) >= s.witness[k][1]

        if all(c[1] for c in checks) and affine_ok and strict_ok:
            dominated_ok = all(x in bit or under_its_piece(x, X) for x, X in lifted.items())
        else:
            dominated_ok = all(sl >= 0 for X in lifted.values() for sl in slacks(s.witness, X))
        checks.append(("witness_affine", affine_ok, ""))
        checks.append(("witness_dominates", dominated_ok, ""))
        checks.append(("witness_strictly_convex", strict_ok, ""))

    ok = all(c[1] for c in checks)
    return ValidationReport(ok, tuple(checks))


def _interior(s: Subdivision, p: LatticePolytope | None = None):
    """Indices of the cells not contained in the boundary of the subdivided polytope."""
    p = _subdivided(s, p)  # before s.points is read
    in_boundary = _boundary_test(s.points, p)
    return [j for j, mask in enumerate(s.cell_masks) if not in_boundary(mask)]


def interior_cells(s: Subdivision, p: LatticePolytope | None = None):
    """Cells not contained in the boundary of the subdivided polytope; no other cell is built."""
    return tuple(s.cells[j] for j in _interior(s, p))
