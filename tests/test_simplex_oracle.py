"""Each shape proven once, against the routes that proved it twice.

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

`hull` asks its distinct points' `dim()` first and returns an affinely
independent set as it is; `normalized_volume` pulls from vertex 0 over the
tight sets `facet_system()` has found; `_triangulate_cone` takes the cone's
dimension and ranks nothing.  Their oracles, copied below, are the earlier
routes: a hull that charts every set and finds d + 1 points' facets in
closed form, a volume that triangulates the whole cone over the lifted
vertices, and a triangulation that ranks its rays at every level.  Hulls
must agree in vertices, dimension, facets, tight sets and volume, and the
vertex cones that `fine_interior` triangulates must give the same
simplicial cones in the same order, since that order is the scans' order.
Equivalence maps are compared with the frozen search of
`test_equivalence_oracle`, whose leaf checks the determinant before the
vertex images.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from test_equivalence_oracle import fresh, oracle_equivalence
from test_fine_interior_oracle import _distinct_11a_inputs

from sbvol import dd, polytope
from sbvol.intlinalg import det, dot, hermite_form, identity_matrix, integer_kernel, rank, transpose
from sbvol.polytope import (
    AffineChart,
    LatticePolytope,
    _bits,
    _eye,
    _lowest,
    _transpose,
    _triangulate_cone,
    _vertex_mask,
    hull,
    unimodular_equivalence,
)
from sbvol.toric import normal_fan
from sbvol.verification import _random_unimodular


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


def _oracle_triangulate_cone(rays, dim):
    """The earlier _triangulate_cone: the ambient dimension, and a rank of the rays at every level."""
    if len(rays) == rank([list(g) for g in rays]):
        return [list(rays)]
    _, _, zero_sets = dd.extreme_rays(rays, dim)
    out = []
    for z in zero_sets:
        if z & 1:
            continue  # a facet through rays[0]
        for t in _oracle_triangulate_cone([rays[i] for i in _bits(z)], dim):
            out.append(t + [rays[0]])
    return out


def _volume_by_triangulation(vertices):
    """The earlier volume of a full-dimensional vertex set: the whole lifted cone, triangulated."""
    lifted = [tuple(v) + (1,) for v in vertices]
    return sum(abs(det(c)) for c in _oracle_triangulate_cone(lifted, len(lifted[0])))


def _oracle_volume(p):
    """The earlier normalized_volume: 0 for a point, else the chart polytope's triangulation."""
    q, _ = fresh(p).normalize_full_dimensional()
    return _volume_by_triangulation(q.vertices) if q.dim() else 0


def _oracle_facets(points):
    """The earlier facet_normals_from_points: d + 1 points in closed form, any others by the DD."""
    if len(points) == len(points[0]) + 1:
        simplex = dd.simplex_facets(points)
        assert simplex is not None
        return simplex[1:]
    return dd.facet_normals_from_points(points)


def _oracle_hull(points):
    """The earlier hull: every set of two or more points charted, then one facet route."""
    pts = sorted(set(points))
    n = len(pts[0])
    if len(pts) == 1:
        return LatticePolytope._trusted(n, pts)
    ch = _oracle_for_points(pts)
    d = ch.dim
    facets, tight = _oracle_facets(pts if d == n else [_oracle_to_chart(ch, p) for p in pts])
    carriers = _transpose(tight, len(pts))
    vertices = _bits(_vertex_mask(carriers))
    out = LatticePolytope._trusted(n, [pts[i] for i in vertices])
    out._cache["dim"] = d
    if d == n:
        out._cache["facets"] = tuple(facets)
        out._cache["tight"] = _transpose([carriers[i] for i in vertices], len(tight))
    return out


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


# -- hulls, volumes, cone triangulations and maps against the earlier routes -----------------


def _seeded_point_sets(seed, count):
    """Integer point lists in Z^n, n = 1..5, with repeats; about 30% of them span less than Z^n.

    A lower-dimensional set is the image of points of Z^k, k < n, under a random
    integer frame and shift; it may have any dimension up to k.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = i % 5 + 1
        size = rng.randint(1, n + 4)
        if n >= 2 and rng.random() < 0.3:
            k = rng.randint(1, n - 1)
            frame = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            shift = [rng.randint(-3, 3) for _ in range(n)]
            coeffs = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(size)]
            pts = [tuple(dot(row, u) + t for row, t in zip(frame, shift)) for u in coeffs]
        else:
            pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(size)]
        out.append(pts + rng.sample(pts, 1))
    return out


def test_hulls_and_volumes_agree_with_the_earlier_routes():
    kinds = set()
    for pts in _seeded_point_sets(810, 1500):
        got, want = hull(pts), _oracle_hull(pts)
        n = len(pts[0])
        assert (got.vertices, got.dim()) == (want.vertices, want.dim()), pts
        kinds.add((n, got.dim() == n, len(got.vertices) == got.dim() + 1))
        if got.dim() == n:
            assert (got.facet_system(), got._tight_sets()) == (want.facet_system(), want._tight_sets())
        else:
            q, qw = got.normalize_full_dimensional()[0], want.normalize_full_dimensional()[0]
            assert (q.vertices, q.facet_system(), q._tight_sets()) == (
                qw.vertices,
                qw.facet_system(),
                qw._tight_sets(),
            )
        # read off the hull's own cache, and on a fresh vertex set that reads no cache
        assert got.normalized_volume() == fresh(got).normalized_volume() == _oracle_volume(want), pts
    # full and lower-dimensional, simplices and not, in every ambient dimension; a full
    # 1-polytope, and every lower-dimensional set in Z^1 or Z^2, is a point or a segment
    every = {(n, full, s) for n in range(1, 6) for full in (True, False) for s in (True, False)}
    assert kinds >= {(n, full, s) for n, full, s in every if s or n > (1 if full else 2)}


def _full_dimensional_polytopes(seed, count):
    """Seeded full-dimensional hulls in Z^2..Z^4, vertex sets of small random point sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = len(out) % 3 + 2
        p = hull([tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + rng.randint(1, 5))])
        if p.dim() == n:
            out.append(p)
    return out


def test_vertex_cone_triangulations_in_order_and_without_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("_triangulate_cone ranked its rays")

    cones = [  # (rays, d) of every vertex cone, as fine_interior lists them
        ([fan.rays[j] for j in sorted(cone)], p.ambient_dim)
        for p in _distinct_11a_inputs() + _full_dimensional_polytopes(820, 150)
        for fan in [normal_fan(p)]
        for cone in fan.vertex_cones
    ]
    monkeypatch.setattr(polytope, "rank", refuse)
    for rays, d in cones:
        assert _triangulate_cone(rays, d) == _oracle_triangulate_cone(rays, d), rays
    assert len(cones) > 2000 and sum(len(rays) > d for rays, d in cones) > 500


def test_equivalence_maps_agree_with_the_earlier_leaf():
    rng = random.Random(830)
    found = 0
    for pts in _seeded_point_sets(840, 300):
        if len(pts[0]) > 4:  # the earlier screen reads the lattice width
            continue
        p = hull(pts)
        image = _random_unimodular(rng, p.ambient_dim).apply_polytope(p) if p.ambient_dim > 1 else p
        other = hull(pts[:-2] + [tuple(x + 1 for x in pts[0])]) if len(pts) > 2 else p
        for q in (image, other):
            got = unimodular_equivalence(fresh(p), fresh(q))
            assert got == oracle_equivalence(fresh(p), fresh(q)), (p.vertices, q.vertices)
            found += got.found
    assert found > 200


# -- the work each proof costs ---------------------------------------------------------


def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_hull_of_a_simplex_proves_it_once(monkeypatch):
    simplex = _counted(monkeypatch, dd, "simplex_facets")
    runs = _counted(monkeypatch, dd, "extreme_rays")
    ranks = _counted(monkeypatch, polytope, "rank")
    dets = _counted(monkeypatch, polytope, "det")
    rng = random.Random(850)
    for n in range(1, 7):
        while True:
            pts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n + 1)]
            if rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == n:
                break
        del simplex[:], ranks[:]
        p = hull(pts)
        assert (len(simplex), len(runs), len(ranks)) == (1, 0, 0), n
        volume = p.normalized_volume()
        assert (len(simplex), len(runs), len(ranks), len(dets)) == (1, 0, 0, 0), n
        assert p.vertices == tuple(sorted(pts)) and volume == abs(det([list(v) + [1] for v in pts]))


def test_volume_runs_the_dd_only_on_non_simplicial_facets_off_vertex_0(monkeypatch):
    cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    polytopes = [cube, hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (0, 0, -1)])]
    polytopes += [p for p in _full_dimensional_polytopes(860, 120) if p.ambient_dim == 3]
    polytopes += [
        hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])
    ]
    runs = _counted(monkeypatch, dd, "extreme_rays")
    seen = set()
    for p in polytopes:
        p.facet_system()
        del runs[:]
        volume = p.normalized_volume()
        d = p.ambient_dim
        off = [t for t in p._tight_sets() if not t & 1]
        # a facet of a 3-polytope is a polygon, and the polygon's edges need no DD;
        # the 4-dimensional example is simplicial
        assert len(runs) == sum(t.bit_count() > d for t in off), p.vertices
        seen.add(len(runs))
        assert volume == _volume_by_triangulation(p.vertices)
    assert {0, 1, 3} <= seen
