"""Double description: extreme rays of a cone cut out by linear inequalities.

This single engine backs every hull-type computation in the package:
facet systems of lattice polytopes, vertex enumeration of rational
halfspace systems, facets of rational cones, and lower hulls of lifted
point sets (one run on the lifted points and the vertical direction), all
in integer arithmetic.  Each run also yields its incidence table: every
ray's zero set over the input rows, such as a facet's points.  The facets
of a full-dimensional simplex need no run: they are the columns of one
adjugate, whose determinant is also its normalized volume.
"""

from __future__ import annotations

from fractions import Fraction

from . import polytope  # for its input checks, read at call time: polytope imports this module
from .errors import DegenerateInputError, DimensionMismatchError, InvalidParameterError
from .intlinalg import adjugate, dot, primitive


def extreme_rays(constraints, dim):
    """Minimal generators of the cone {y in R^dim : <a, y> >= 0 for all a}.

    Returns (rays, lineality, zero_sets): the primitive integer extreme rays
    modulo the lineality space, sorted; an integer basis of the lineality
    space; and each ray's zero set, a bitmask with bit i set exactly when
    <a_i, ray> = 0.  The classical incremental algorithm adds one halfspace
    at a time, in the order given, which changes the work and never the
    result, and combines adjacent positive/negative ray pairs, adjacency
    being zero-set inclusion.  A pair is dropped first when
    its common zero set has fewer than dim - len(lineality) - 2 rows: a face
    spanned by two adjacent rays has dimension len(lineality) + 2, so its
    equality set has at least that rank (Fukuda-Prodon, "Double description
    method revisited", 1996).

    Each tracked set is its ray's zero set over the processed rows.  A ray
    that stays gains row k when it is zero there.  A combined ray
    vp rm - vm rp, with vp > 0 > vm, has slack vp s_m - vm s_p on an earlier
    row, both slacks nonnegative, so it is tight exactly where both rays
    are.  In a lineality split l0 lies in every processed hyperplane: a ray
    projected along it keeps its earlier zeros and gains row k, and l0 is
    zero on exactly the earlier rows.  Zero rows, skipped, vanish on every ray.
    """
    polytope._int_in(dim, "extreme_rays: dim", 0, error=InvalidParameterError)
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # list of (vector, zeroset bitmask)
    done = 0  # bitmask of the nonzero rows processed so far
    skipped = 0  # bitmask of the zero rows

    for k, a in enumerate(constraints):
        a = tuple(a)
        if len(a) != dim:
            raise DimensionMismatchError(f"constraint of length {len(a)} in dimension {dim}")
        if all(x == 0 for x in a):
            skipped |= 1 << k
            continue
        lin_vals = [dot(a, l) for l in lineality]
        pivot = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if pivot is not None:
            l0 = lineality[pivot]
            p0 = lin_vals[pivot]
            if p0 < 0:
                l0 = tuple(-x for x in l0)
                p0 = -p0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                v = lin_vals[i]
                new_lin.append(primitive(tuple(p0 * x - v * y for x, y in zip(l, l0))))
            # Project old rays onto the hyperplane of a; l0 becomes a ray.
            new_rays = []
            for r, zs in rays:
                v = dot(a, r)
                if v != 0:
                    r = primitive(tuple(p0 * x - v * y for x, y in zip(r, l0)))
                new_rays.append((r, zs | (1 << k)))
            new_rays.append((l0, done))
            lineality = new_lin
            rays = new_rays
        else:
            plus, zero, minus = [], [], []
            for r, zs in rays:
                v = dot(a, r)
                if v > 0:
                    plus.append((r, zs, v))
                elif v < 0:
                    minus.append((r, zs, v))
                else:
                    zero.append((r, zs | (1 << k)))
            new_rays = [(r, zs) for r, zs, _ in plus] + zero
            need = dim - len(lineality) - 2
            for rp, zp, vp in plus:
                for rm, zm, vm in minus:
                    z = zp & zm
                    if z.bit_count() < need:
                        continue
                    # Adjacent iff no third ray's zero set contains z.
                    for r3, z3 in rays:
                        if z3 & z == z and r3 is not rp and r3 is not rm:
                            break
                    else:
                        w = primitive(tuple(vp * x - vm * y for x, y in zip(rm, rp)))
                        new_rays.append((w, z | (1 << k)))
            rays = new_rays
        done |= 1 << k

    rays.sort()
    return [r for r, _ in rays], sorted(lineality), [zs | skipped for _, zs in rays]


def simplex_facets(points):
    """(|det|, facets, tight) of dim + 1 points in Z^dim; None when they are affinely dependent.

    With A the matrix of the rows (p, 1), A adj(A) = det(A) I: column i of
    sign(det A) adj(A) pairs to |det A| > 0 with row i and to 0 with every
    other row.  Made primitive it is the ray (n, -c) of the facet opposite
    points[i], tight on every point but i, and there are no others.  |det A|
    is the normalized volume of the simplex, and its being nonzero is the
    proof that the points span Z^dim affinely.  Facets are sorted as
    facet_normals_from_points sorts them.
    """
    n = len(points)
    rows = _lifted_rows(points, n - 1)
    try:
        det, adj = adjugate(rows)
    except DegenerateInputError:
        return None
    sign = 1 if det > 0 else -1
    every = (1 << n) - 1
    rays = sorted((primitive([sign * row[i] for row in adj]), every ^ 1 << i) for i in range(n))
    return (abs(det), *_facets(rays, n - 1))


def _lifted_rows(points, dim):
    """The rows (p, 1) of points in Z^dim; a point of another length raises, named."""
    rows = []
    for p in points:
        p = tuple(p)
        if len(p) != dim:
            raise DimensionMismatchError(f"point {p!r} is not in Z^{dim}")
        rows.append(p + (1,))
    return rows


def _facets(rays, dim):
    """(facets, tight) from sorted (ray, zero set) pairs over the rows (p, 1) of points in Z^dim.

    Distinct facets have distinct normals, so the rays' order is the facets'.
    """
    facets, tight = [], []
    for r, zs in rays:
        if any(r[:dim]):  # else the ray (0, 1), present only in degenerate low dimensions
            facets.append((r[:dim], -r[dim]))
            tight.append(zs)
    return facets, tight


def facet_normals_from_points(points):
    """(facets, tight) of conv(points) for a full-dimensional point set.

    Each facet (n, c), sorted, is a primitive inner normal with offset: the
    halfspace <n, x> >= c is tight on a facet.  tight[j] is the zero set of
    its ray over the rows (p, 1), bit i set when points[i] lies on facet j.
    Raises if the points do not span the ambient space affinely.  dim + 1
    points span it only as a simplex, whose facets come in closed form.
    """
    if not points:
        raise DegenerateInputError("no points given")
    dim = len(points[0])
    if len(points) == dim + 1:
        simplex = simplex_facets(points)
        if simplex is None:
            raise DegenerateInputError("point set is not full-dimensional")
        return simplex[1:]
    rays, lineality, zero_sets = extreme_rays(_lifted_rows(points, dim), dim + 1)
    if lineality:
        raise DegenerateInputError("point set is not full-dimensional")
    return _facets(zip(rays, zero_sets), dim)


def vertices_from_halfspaces(halfspaces, dim):
    """Vertices of {x : <a, x> >= c} for integer (a, c) pairs.

    Returns a sorted list of Fraction tuples; empty when the polytope is
    empty.  Raises if the system is unbounded (has a recession ray) since
    every polytope in this package is bounded by construction.
    """
    constraints = []
    for a, c in halfspaces:
        c = Fraction(c)
        q = c.denominator
        constraints.append(tuple(q * x for x in a) + (-c.numerator,))
    constraints.append(tuple([0] * dim + [1]))
    rays, lineality, _ = extreme_rays(constraints, dim + 1)
    if lineality:
        raise DegenerateInputError("halfspace system admits a line")
    verts = []
    for r in rays:
        t = r[dim]
        if t == 0:
            raise DegenerateInputError("halfspace system is unbounded")
        verts.append(tuple(Fraction(x, t) for x in r[:dim]))
    return sorted(verts)

