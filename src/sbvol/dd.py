"""Double description: extreme rays of a cone cut out by linear inequalities.

This single engine backs every hull-type computation in the package:
facet systems of lattice polytopes, vertex enumeration of rational
halfspace systems, facets of rational cones, and lower hulls of lifted
point sets.  All arithmetic is integer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateInputError, DimensionMismatchError
from .intlinalg import dot, primitive


def extreme_rays(constraints, dim):
    """Minimal generators of the cone {y in R^dim : <a, y> >= 0 for all a}.

    Returns (rays, lineality): primitive integer extreme rays modulo the
    lineality space, and an integer basis of the lineality space.  The
    classical incremental algorithm: start from all of R^dim, add one
    halfspace at a time in input order, combine adjacent positive/negative
    ray pairs.  Adjacency is decided combinatorially via zero-set
    inclusion, tracked as bitmasks over the processed constraints.  Before
    that scan, a pair is dropped when its common zero set has fewer than
    dim - len(lineality) - 2 constraints: a face spanned by two adjacent
    rays has dimension len(lineality) + 2, so its equality set has at least
    that rank (Fukuda-Prodon, "Double description method revisited", 1996).
    """
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # list of (vector, zeroset bitmask)
    processed = []

    for a in constraints:
        a = tuple(a)
        if len(a) != dim:
            raise DimensionMismatchError(f"constraint of length {len(a)} in dimension {dim}")
        if all(x == 0 for x in a):
            continue
        k = len(processed)
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
            all_mask = (1 << (k + 1)) - 1
            new_rays.append((l0, all_mask & ~(1 << k)))
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
        processed.append(a)

    out = sorted(r for r, _ in rays)
    return out, sorted(lineality)


def facet_normals_from_points(points):
    """Facet halfspaces of conv(points) for a full-dimensional point set.

    Each returned pair (n, c) is a primitive inner normal with offset,
    meaning the halfspace <n, x> >= c, tight on a facet.  Raises if the
    points do not span the ambient space affinely.
    """
    if not points:
        raise DegenerateInputError("no points given")
    dim = len(points[0])
    constraints = [tuple(p) + (1,) for p in points]
    rays, lineality = extreme_rays(constraints, dim + 1)
    if lineality:
        raise DegenerateInputError("point set is not full-dimensional")
    out = []
    for r in rays:
        n, c = r[:dim], r[dim]
        if all(x == 0 for x in n):
            continue  # the ray (0, 1), present only in degenerate low dimensions
        out.append((tuple(n), -c))
    return sorted(out)


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
    rays, lineality = extreme_rays(constraints, dim + 1)
    if lineality:
        raise DegenerateInputError("halfspace system admits a line")
    verts = []
    for r in rays:
        t = r[dim]
        if t == 0:
            raise DegenerateInputError("halfspace system is unbounded")
        verts.append(tuple(Fraction(x, t) for x in r[:dim]))
    return sorted(verts)

