"""The one adjugate of a simplex and the shift chart against the routes they replace.

`LatticePolytope.dim()` of d + 1 vertices in Z^d reads the dimension, the
normalized volume, the facets and their tight sets off one adjugate
(`dd.simplex_facets`).  The oracles are the routes every other vertex set
still takes: `rank` of the vertex differences, the cone triangulation and
its determinants for the volume, and the double description for the
facets.  An affinely dependent vertex set must fall back to `rank`.

`AffineChart.for_points` of points that span their space returns the
shift chart on the rank of the differences.  The oracle is the earlier
`for_points`, copied below, which ran the integer kernel first; the charts
must be equal, and `to_chart` and `from_chart` must give the same values
with the same types, so an integral Fraction still comes back as an int.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from sbvol import dd
from sbvol.intlinalg import det, dot, hermite_form, identity_matrix, integer_kernel, rank, transpose
from sbvol.polytope import AffineChart, LatticePolytope, _eye, _lowest, _triangulate_cone, hull


def _oracle_for_points(points):
    """The earlier chart of the affine span of integer points, base at the first point."""
    base = tuple(points[0])
    n = len(base)
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    diffs = [v for v in diffs if any(v)]
    if not diffs:
        return AffineChart(n, 0, base, (), _eye(n))
    equations = integer_kernel(diffs)
    if not equations:
        return AffineChart(n, n, base, _eye(n), _eye(n))
    basis = integer_kernel(equations)
    d = len(basis)
    h, u = hermite_form(transpose(basis))
    assert h == [row[:d] for row in identity_matrix(n)]
    return AffineChart(n, d, base, tuple(basis), tuple(tuple(r) for r in u))


def _oracle_to_chart(chart, x):
    """The earlier to_chart: every chart that is not the identity goes through its transform."""
    x = tuple(x)
    if chart.is_identity():
        return x
    diff = [a - b for a, b in zip(x, chart.base)]
    image = [_lowest(dot(row, diff)) for row in chart._transform]
    assert not any(image[chart.dim :])
    return tuple(image[: chart.dim])


def _oracle_from_chart(chart, y):
    y = tuple(y)
    if chart.is_identity():
        return y
    return tuple(
        _lowest(b + sum(c * row[j] for c, row in zip(y, chart.basis)))
        for j, b in enumerate(chart.base)
    )


def same(got, want):
    """Equal, with the same type in every entry: an int stays an int, a Fraction a Fraction."""
    assert type(got) is type(want) and len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g == w, (got, want)


def _facets_by_dd(points):
    """(facets, tight) by the double description, whatever the number of points."""
    dim = len(points[0])
    rays, lineality, zero_sets = dd.extreme_rays([tuple(p) + (1,) for p in points], dim + 1)
    assert not lineality
    pairs = [((r[:dim], -r[dim]), zs) for r, zs in zip(rays, zero_sets) if any(r[:dim])]
    return tuple(f for f, _ in pairs), tuple(zs for _, zs in pairs)


def _volume_by_triangulation(vertices):
    """The normalized volume of a full-dimensional vertex set from its cone triangulation."""
    lifted = [tuple(v) + (1,) for v in vertices]
    return sum(abs(det(c)) for c in _triangulate_cone(lifted, len(lifted[0])))


def _simplex_vertex_sets(seed, count):
    """d + 1 vertices in Z^d, d = 1..6, each the vertex set of its hull.

    About a third of the draws from dimension three on come from a random
    hyperplane, and give d + 1 vertices of a lower-dimensional polytope.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = len(out) % 6 + 1
        if d >= 3 and rng.random() < 0.35:
            frame = [[rng.randint(-2, 2) for _ in range(d - 1)] for _ in range(d)]
            shift = [rng.randint(-3, 3) for _ in range(d)]
            coeffs = [[rng.randint(-2, 2) for _ in range(d - 1)] for _ in range(d + 1)]
            pts = [tuple(dot(row, u) + t for row, t in zip(frame, shift)) for u in coeffs]
        else:
            pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 1)]
        vertices = hull(pts).vertices
        if len(vertices) == d + 1:
            out.append(vertices)
    return out


def test_simplex_dimension_volume_and_facets_from_one_adjugate():
    kinds = set()
    for vertices in _simplex_vertex_sets(760, 900):
        d = len(vertices[0])
        p = LatticePolytope._trusted(d, vertices)
        want_dim = rank([[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]])
        assert p.dim() == want_dim
        kinds.add((d, want_dim == d))
        if want_dim < d:
            # the fallback: no adjugate entry is cached, and the volume is the chart's
            assert dd.simplex_facets(vertices) is None
            assert set(p._cache) == {"dim"}
            q, _ = p.normalize_full_dimensional()
            assert p.normalized_volume() == _volume_by_triangulation(q.vertices)
            continue
        assert set(p._cache) == {"dim", "nvol", "facets", "tight"}
        assert p.normalized_volume() == _volume_by_triangulation(vertices)
        assert (p.facet_system(), p._tight_sets()) == _facets_by_dd(vertices)
        assert p.facet_system() == hull(vertices).facet_system()
    assert kinds >= {(d, True) for d in range(1, 7)} | {(d, False) for d in range(3, 7)}


def test_simplex_routine_on_dependent_points_and_ragged_rows():
    rng = random.Random(770)
    for trial in range(200):
        d = trial % 6 + 1
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
        pts.insert(rng.randrange(d + 1), rng.choice(pts))  # a repeated point
        assert dd.simplex_facets(pts) is None
    assert dd.simplex_facets([(0, 0), (1, 0), (0, 1)])[0] == 1
    assert dd.simplex_facets([(0,), (3,)]) == (3, [((-1,), -3), ((1,), 0)], [0b10, 0b01])


def _spanning_sets(seed, count):
    """Integer point lists that span Z^n, n = 1..6, with repeats and points off the origin."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = len(out) % 6 + 1
        pts = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n + 1 + rng.randint(0, 4))]
        pts += rng.sample(pts, 1)
        if rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == n:
            out.append(pts)
    return out


def test_shift_chart_against_the_kernel_chart():
    rng = random.Random(780)
    for pts in _spanning_sets(790, 400):
        n = len(pts[0])
        new, old = AffineChart.for_points(pts), _oracle_for_points(pts)
        assert new == old and new._transform == old._transform and new._shift
        queries = list(pts) + [
            tuple(rng.randint(-9, 9) for _ in range(n)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)),
            tuple(Fraction(2 * rng.randint(-9, 9), 2) for _ in range(n)),  # integral Fractions
        ]
        for x in queries:
            y = new.to_chart(x)
            same(y, _oracle_to_chart(old, x))
            same(new.from_chart(y), _oracle_from_chart(old, y))
        if not new.is_identity():  # the identity returns the point as it is
            assert all(type(v) is int for v in new.to_chart(queries[-1]))


def test_a_full_chart_on_another_basis_is_no_shift():
    # B = ((1, 1), (0, 1)) with U B^T = I: the coordinates are U (x - base) for every base,
    # the origin included, where the identity test once ignored the basis.
    basis, transform = ((1, 1), (0, 1)), ((1, 0), (-1, 1))
    for base in ((0, 0), (1, 0)):
        chart = AffineChart(2, 2, base, basis, transform)
        assert not chart.is_identity()
        x = (base[0] + 1, base[1] + 1)
        assert chart.to_chart(x) == (1, 0) and chart.from_chart((1, 0)) == x


def test_hull_of_spanning_points_matches_the_kernel_chart_route():
    # The facets found on the points themselves equal those of the shifted points, shifted back.
    for pts in _spanning_sets(800, 300):
        got = hull(pts)
        chart = _oracle_for_points(sorted(set(pts)))
        facets, _ = dd.facet_normals_from_points([chart.to_chart(p) for p in sorted(set(pts))])
        assert got.facet_system() == tuple((nrm, c + dot(nrm, chart.base)) for nrm, c in facets)
        assert got.dim() == len(pts[0])


def test_flat_cell_fails_cover_under_optimize():
    # python -O strips assert statements; the dimension of a flat d + 1-vertex cell is still
    # its rank, and validate still fails the cover check of a subdivision that holds it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "from sbvol.polytope import LatticePolytope, hull\n"
        "from sbvol.subdivision import make_subdivision, validate\n"
        "cube = hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])\n"
        "flat = LatticePolytope._trusted(3, [(0, 0, 0), (0, 2, 0), (2, 0, 0), (2, 2, 0)])\n"
        "report = validate(make_subdivision(cube, [flat]))\n"
        "print(flat.dim(), report.ok, [name for name, ok, _ in report.checks if not ok])\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split(" ", 2)[:2] == ["2", "False"]
    assert "'cover'" in run.stdout
