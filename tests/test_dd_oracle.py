"""Double description with the zero-set prefilter against the unfiltered engine.

The oracle is the earlier extreme_rays: it scans every other ray for each
plus/minus pair, with no cardinality test first, and derives each ray's
zero set afresh by dot products with every input row.  The prefilter only
skips pairs that cannot be adjacent, so the two must return exactly the
same (rays, lineality, zero sets) on brute-force cones, seeded random
systems (lineality, duplicate and zero rows included), the lifted
distance-height hull of the dim4 pipeline, the lifts in the height order
the lower hull feeds them, and the facet and vertex routes built on the
engine.  The closed-form facets of a simplex, which skip the
engine, are checked against the engine's own route.
"""

import itertools
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from sbvol import dd
from sbvol.errors import DegenerateInputError, DimensionMismatchError
from sbvol.families import dilated_simplex, kollar_totaro
from sbvol.intlinalg import dot, integer_kernel, primitive, rank
from sbvol.polytope import carrier, hull
from sbvol.subdivision import distance_height, regular_subdivision


def _oracle_extreme_rays(constraints, dim):
    """Minimal generators of the cone {y in R^dim : <a, y> >= 0 for all a}.

    Returns (rays, lineality, zero_sets): primitive integer extreme rays
    modulo the lineality space, an integer basis of the lineality space, and
    each ray's zero set over the input rows, found by dot products.  The
    classical incremental algorithm: start from all of R^dim, add one
    halfspace at a time, combine adjacent positive/negative ray pairs.
    Adjacency is decided combinatorially via zero-set inclusion, tracked as
    bitmasks over the processed constraints.
    """
    constraints = list(constraints)
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # list of (vector, zeroset bitmask)
    processed = []

    for a in constraints:
        a = tuple(a)
        if len(a) != dim:
            raise DegenerateInputError("constraint has wrong dimension")
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
            vals = {}
            for r, zs in rays:
                v = dot(a, r)
                vals[r] = v
                if v > 0:
                    plus.append((r, zs))
                elif v < 0:
                    minus.append((r, zs))
                else:
                    zero.append((r, zs | (1 << k)))
            new_rays = plus + zero
            if plus and minus:
                masks = [zs for _, zs in rays]
                for rp, zp in plus:
                    for rm, zm in minus:
                        z = zp & zm
                        # Adjacent iff no third ray's zero set contains z.
                        adjacent = True
                        for r3, z3 in rays:
                            if r3 is rp or r3 is rm:
                                continue
                            if z3 & z == z:
                                adjacent = False
                                break
                        if not adjacent:
                            continue
                        vp, vm = vals[rp], vals[rm]
                        w = primitive(tuple(vp * x - vm * y for x, y in zip(rm, rp)))
                        new_rays.append((w, (zp & zm) | (1 << k)))
            rays = new_rays
        processed.append(a)

    out = sorted(r for r, _ in rays)
    zero_sets = [sum(1 << i for i, a in enumerate(constraints) if dot(a, r) == 0) for r in out]
    return out, sorted(lineality), zero_sets


def _brute_force_rays(constraints, dim):
    """Extreme rays of a pointed cone: primitive kernel lines of rank dim - 1
    constraint subsets that satisfy every constraint."""
    found = set()
    for sub in itertools.combinations(constraints, dim - 1):
        if rank([list(a) for a in sub]) != dim - 1:
            continue
        (k,) = integer_kernel([list(a) for a in sub])
        for y in (k, tuple(-x for x in k)):
            if all(dot(a, y) >= 0 for a in constraints):
                found.add(primitive(y))
    return sorted(found)


def _random_rows(rng, dim, m, lo=-3, hi=3):
    return [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(m)]


def _random_system(rng, dim):
    """Rows of a random cone; some span a proper subspace (lineality), some
    repeat rows or contain zero rows."""
    m = rng.randint(1, dim + 5)
    kind = rng.choice(("plain", "subspace", "duplicates", "zeros"))
    if kind == "subspace":
        basis = _random_rows(rng, dim, rng.randint(1, dim - 1))
        rows = [
            tuple(sum(c * b[i] for c, b in zip(coef, basis)) for i in range(dim))
            for coef in _random_rows(rng, len(basis), m, -2, 2)
        ]
    else:
        rows = _random_rows(rng, dim, m)
    if kind == "duplicates":
        rows += [rng.choice(rows) for _ in range(rng.randint(1, 3))]
    if kind == "zeros":
        rows += [tuple([0] * dim)] * rng.randint(1, 2)
    rng.shuffle(rows)
    return rows


def _random_lattice_points(rng, dim, n, coord=4):
    while True:
        pts = [tuple(rng.randint(-coord, coord) for _ in range(dim)) for _ in range(n)]
        if rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == dim:
            return pts


def test_brute_force_small_cones():
    rng = random.Random(701)
    checked = 0
    while checked < 60:
        dim = rng.randint(2, 4)
        rows = _random_rows(rng, dim, rng.randint(dim, dim + 4), -2, 2)
        if rank([list(a) for a in rows]) != dim:
            continue  # brute force covers pointed cones only
        expected = _brute_force_rays(rows, dim)
        rays, lineality, zero_sets = dd.extreme_rays(rows, dim)
        assert (rays, lineality) == (expected, [])
        assert (rays, lineality, zero_sets) == _oracle_extreme_rays(rows, dim)
        checked += 1


def test_random_systems():
    """Seeded systems in dimensions 2-7, lineality and degenerate rows included."""
    seen = set()
    for dim in range(2, 8):
        rng = random.Random(710 + dim)
        for _ in range(40 if dim < 6 else 20):
            rows = _random_system(rng, dim)
            rays, lineality, zero_sets = dd.extreme_rays(rows, dim)
            assert (rays, lineality, zero_sets) == _oracle_extreme_rays(rows, dim)
            if lineality:
                seen.add("lineality")
            if len(set(rows)) < len(rows):
                seen.add("repeated rows")
            if any(not any(a) for a in rows):
                seen.add("zero rows")
    assert seen == {"lineality", "repeated rows", "zero rows"}


def test_dim4_lifted_distance_hull():
    """The 70-point lifted hull of the dim4 pipeline: 202 facets, 196 lower."""
    big = dilated_simplex(4, 4)
    heights = distance_height(big, kollar_totaro(3, 4))
    scale = lcm(*(h.denominator for h in heights.values()))
    lifted = [x + (int(heights[x] * scale),) for x in big.lattice_points()]
    constraints = [p + (1,) for p in lifted]
    assert len(constraints) == 70
    new = dd.extreme_rays(constraints, 6)
    assert new == _oracle_extreme_rays(constraints, 6)
    rays, lineality, _ = new
    assert lineality == []
    assert len(rays) == 202
    assert sum(1 for r in rays if r[4] > 0) == 196


def _lifts_in_height_order():
    """The dim4 lift under a seeded signed permutation; dilated_simplex(3, 6), tied and distinct."""
    rng = random.Random(760)
    big = dilated_simplex(4, 4)
    heights = distance_height(big, kollar_totaro(3, 4))
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((-1, 1)) for _ in range(4)]

    def move(x):
        return tuple(s * x[j] for j, s in zip(perm, signs))

    yield hull([move(v) for v in big.vertices]), {move(x): h for x, h in heights.items()}
    p = dilated_simplex(3, 6)
    pts = p.lattice_points()
    yield p, {x: rng.randint(0, 3) for x in pts}
    yield p, dict(zip(pts, rng.sample(range(-500, 500), len(pts))))


def test_lifts_as_the_lower_hull_feeds_them(monkeypatch):
    """The rows regular_subdivision gives the engine: the vertical row, then the lift by height."""
    fed = []
    extreme_rays = dd.extreme_rays

    def recorded(constraints, dim):
        fed.append((constraints, dim))
        return extreme_rays(constraints, dim)

    monkeypatch.setattr(dd, "extreme_rays", recorded)
    tied = []
    for p, heights in _lifts_in_height_order():
        fed.clear()
        regular_subdivision(p, heights)
        rows, dim = fed[0]
        lifted = [r[-2] for r in rows[1:]]
        assert lifted == sorted(lifted)
        tied.append(len(set(lifted)) < len(lifted))
        got = extreme_rays(rows, dim)
        assert got == _oracle_extreme_rays(rows, dim)
        assert got[1] == []
    assert tied == [True, True, False]


def test_facet_normals_from_random_lattice_polytopes(monkeypatch):
    """Facets and their tight sets; a tight set is the transpose of the points' carriers."""
    rng = random.Random(720)
    cases = []
    for _ in range(30):
        dim = rng.randint(2, 4)
        pts = _random_lattice_points(rng, dim, rng.randint(dim + 1, dim + 8))
        facets, tight = dd.facet_normals_from_points(pts)
        carriers = [carrier(facets, x) for x in pts]
        assert tight == [
            sum(1 << i for i, m in enumerate(carriers) if m >> j & 1) for j in range(len(facets))
        ]
        cases.append((pts, (facets, tight)))
    monkeypatch.setattr(dd, "extreme_rays", _oracle_extreme_rays)
    for pts, facets in cases:
        assert dd.facet_normals_from_points(pts) == facets


def test_zero_sets_through_a_lineality_split_and_a_zero_row():
    """Row 0 is zero.  Rows 1 and 2 split the lineality space: row 2 projects
    the ray e1 to e1 - e2, which becomes zero on row 2, and the new ray l0 = e2
    is zero on exactly row 1.  Row 3 combines the two into e1, zero on row 3."""
    rows = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    got = dd.extreme_rays(rows, 3)
    assert got == _oracle_extreme_rays(rows, 3)
    assert got == ([(0, 1, 0), (1, 0, 0)], [(0, 0, 1)], [0b0011, 0b1001])
    # a full-dimensional facet system with a repeated point
    pts = [(0, 0), (2, 0), (0, 2), (2, 0), (1, 1)]
    facets, tight = dd.facet_normals_from_points(pts)
    assert facets == [((-1, -1), -2), ((0, 1), 0), ((1, 0), 0)]
    assert tight == [0b11110, 0b01011, 0b00101]


def test_vertices_from_random_bounded_systems(monkeypatch):
    """Bounded systems: a box around the origin cut by random halfspaces
    with rational offsets, some of which empty the polytope."""
    rng = random.Random(730)
    cases = []
    for _ in range(30):
        dim = rng.randint(2, 4)
        hs = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            hs.append((e, -rng.randint(1, 4)))
            hs.append((tuple(-x for x in e), -rng.randint(1, 4)))
        for a in _random_rows(rng, dim, rng.randint(1, 5)):
            hs.append((a, Fraction(rng.randint(-6, 3), rng.randint(1, 3))))
        rng.shuffle(hs)
        cases.append((hs, dim, dd.vertices_from_halfspaces(hs, dim)))
    assert any(not verts for _, _, verts in cases)
    monkeypatch.setattr(dd, "extreme_rays", _oracle_extreme_rays)
    for hs, dim, verts in cases:
        assert dd.vertices_from_halfspaces(hs, dim) == verts


def _facets_by_dd(points):
    """facet_normals_from_points by the double description, whatever the number of points."""
    dim = len(points[0])
    rays, lineality, zero_sets = dd.extreme_rays([tuple(p) + (1,) for p in points], dim + 1)
    if lineality:
        raise DegenerateInputError("point set is not full-dimensional")
    pairs = [((r[:dim], -r[dim]), zs) for r, zs in zip(rays, zero_sets) if any(r[:dim])]
    return [f for f, _ in pairs], [zs for _, zs in pairs]


def test_simplex_facets_in_closed_form_match_the_double_description():
    """Facets, tight sets and their order, on seeded random simplices of dimension 1-6."""
    rng = random.Random(740)
    checked = 0
    while checked < 2100:
        dim = rng.randint(1, 6)
        pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim + 1)]
        if rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) < dim:
            continue
        facets, tight = dd.simplex_facets(pts)[1:]
        assert (facets, tight) == _facets_by_dd(pts), pts
        assert len(facets) == dim + 1 and sorted(tight) == sorted(
            (1 << dim + 1) - 1 ^ 1 << i for i in range(dim + 1)
        )
        checked += 1


def test_singular_simplex_raises_as_the_double_description_does():
    """dim + 1 points in a hyperplane, or with a repeat, raise the same error on both routes."""
    rng = random.Random(750)
    for trial in range(300):
        dim = trial % 6 + 1
        if trial % 2:
            pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim)]
            pts.insert(rng.randrange(dim + 1), rng.choice(pts))
        else:  # the last coordinate is a fixed combination of the others
            coef = [rng.randint(-2, 2) for _ in range(dim)]
            pts = []
            for _ in range(dim + 1):
                x = [rng.randint(-4, 4) for _ in range(dim - 1)]
                pts.append(tuple(x) + (dot(coef, x + [1]),))
        errors = []
        for route in (dd.facet_normals_from_points, _facets_by_dd):
            with pytest.raises(DegenerateInputError) as info:
                route(pts)
            errors.append(str(info.value))
        assert errors == ["point set is not full-dimensional"] * 2, pts
    # a ragged point: the facet route names it, the bare engine names its row
    for pts, bad in (([(0, 0), (1, 0), (2, 0, 0)], "(2, 0, 0)"), ([(0, 0), (1, 0, 0), (0, 1)], "(1, 0, 0)")):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"point {bad} is not in Z^2")):
            dd.facet_normals_from_points(pts)
        with pytest.raises(DimensionMismatchError, match="length 4 in dimension 3"):
            _facets_by_dd(pts)


def test_constraint_of_wrong_length_raises():
    with pytest.raises(DimensionMismatchError, match="length 2 in dimension 3"):
        dd.extreme_rays([(1, 0, 0), (0, 1)], 3)


def test_facet_normals_of_no_points_raises():
    with pytest.raises(DegenerateInputError):
        dd.facet_normals_from_points([])
