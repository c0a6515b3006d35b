"""The carrier vertex rule and the one-DD lower hull against the earlier routines.

The oracles are the earlier `hull` and `regular_subdivision`, copied below
unchanged apart from their names.  The earlier `hull` kept a point as a
vertex when the facets through it had rank d; the earlier lower hull ran
the DD on the lifted points with an apex above the first point and then
hulled the tight points of every lower facet again.  Vertices, facet
systems, maximal cells, witnesses and the whole cell lattice must agree
exactly.  The lower hull now runs one DD on the lifted points and the
vertical direction, with no apex and no hull.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from sbvol import dd, subdivision
from sbvol import polytope as polytope_module
from sbvol.errors import DegenerateInputError, DimensionMismatchError, InternalConsistencyError
from sbvol.families import dilated_simplex, divisor_23_double_cone, kollar_totaro
from sbvol.intlinalg import dot, rank
from sbvol.polytope import AffineChart, LatticePolytope, _as_int_tuple, _rational, carrier, hull
from sbvol.subdivision import (
    Subdivision,
    _check_height_points,
    _subdivision,
    distance_height,
    regular_subdivision,
    staged_distance_height,
)
from sbvol.toric import normal_fan
from sbvol.verification import SEED, _random_polytope


def _oracle_hull(points) -> LatticePolytope:
    """Convex hull; vertices are exactly the extreme points of the input."""
    pts = [_as_int_tuple(p) for p in points]
    if not pts:
        raise DegenerateInputError("hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatchError("points live in different ambient dimensions")
    pts = sorted(set(pts))
    if len(pts) == 1:
        return LatticePolytope._trusted(n, pts)
    ch = AffineChart.for_points(pts)
    cpts = [ch.to_chart(p) for p in pts]
    d = ch.dim
    if d == 0:
        return LatticePolytope._trusted(n, pts[:1])
    facets, _ = dd.facet_normals_from_points(cpts)
    verts = []
    for p, orig in zip(cpts, pts):
        tight = [list(nrm) for nrm, c in facets if dot(nrm, p) == c]
        if tight and rank(tight) == d:
            verts.append(orig)
    out = LatticePolytope._trusted(n, sorted(verts))
    if d == n:
        # The chart only moved the origin to its base: shift the offsets back.
        out._cache["facets"] = tuple((nrm, c + dot(nrm, ch.base)) for nrm, c in facets)
        out._cache["tight"] = tuple(
            sum(1 << i for i, v in enumerate(out.vertices) if dot(nrm, v) == c)
            for nrm, c in out._cache["facets"]
        )
    return out


def _oracle_regular_subdivision(p: LatticePolytope, heights: dict) -> Subdivision:
    """Subdivision induced by the lower convex envelope of the lifted lattice points.

    An apex above the first point keeps the lifted set full-dimensional when
    the heights are affine; it lies above the lower envelope, so it is on no
    lower facet and leaves them unchanged.
    """
    if not p.is_full_dimensional():
        raise DegenerateInputError("subdivide a full-dimensional polytope (normalize first)")
    _check_height_points(p, heights)
    pts = p.lattice_points()
    hmap = {}
    for x in pts:
        if x not in heights:
            raise DegenerateInputError(f"height function is not total: missing {x!r}")
        hmap[x] = _rational(heights[x], f"height at {x!r}")
    d = p.dim()
    scale = lcm(*[v.denominator for v in hmap.values()])
    lifted = [x + (int(hmap[x] * scale),) for x in pts]
    apex = pts[0] + (max(q[d] for q in lifted) + 1,)
    maximal = []
    witness = []
    for n, c in dd.facet_normals_from_points(lifted + [apex])[0]:
        if n[d] <= 0:
            continue  # not a lower facet
        tight = [x for x, q in zip(pts, lifted) if dot(n, q) == c]
        maximal.append(_oracle_hull(tight))
        witness.append((n, c))
    order = sorted(range(len(maximal)), key=lambda i: maximal[i].vertices)
    return _subdivision(
        p,
        tuple(maximal[i] for i in order),
        tuple(sorted(hmap.items())),
        tuple(witness[i] for i in order),
    )


# -- hull ------------------------------------------------------------------------------


def _point_sets():
    """Point lists in Z^1..Z^5 with interior, face and repeated points.

    Each list is the image of small coefficient vectors under a random
    lattice frame of rank 0..n, so it is often lower-dimensional in its
    ambient space, and a one-point list now and then.
    """
    rng = random.Random(1515)
    out = []
    for trial in range(200):
        n = trial % 5 + 1
        k = (n if trial % 3 else rng.randint(1, n)) if trial % 10 else 0
        frame = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        shift = [rng.randint(-3, 3) for _ in range(n)]
        coeffs = [[rng.randint(0, 2) for _ in range(k)] for _ in range(rng.randint(2, 3 * k + 4))]
        coeffs += rng.sample(coeffs, min(2, len(coeffs)))  # repeated points
        out.append(
            [tuple(dot(row, u) + t for row, t in zip(frame, shift)) for u in coeffs]
        )
    # every lattice point of a box or a dilated simplex: mostly non-vertices
    for n in range(1, 6):
        out.append(list(product(range(3 if n < 5 else 2), repeat=n)) + [(1,) * n])
        out.append(list(dilated_simplex(5 - n // 2, n).lattice_points()))
    out.append([(2, -1, 4)])
    return out


def _fresh(p):
    """p with an empty cache, so each question is answered from its vertices."""
    return LatticePolytope._trusted(p.ambient_dim, p.vertices)


def test_hull_against_the_rank_rule():
    kinds = Counter()
    for pts in _point_sets():
        got, want = hull(pts), _oracle_hull(pts)
        assert (got.ambient_dim, got.vertices) == (want.ambient_dim, want.vertices)
        assert ("facets" in got._cache) == ("facets" in want._cache)
        kinds[got.dim() == got.ambient_dim, got.dim() == 0, len(set(pts)) > len(got.vertices)] += 1
        if "facets" not in got._cache:
            assert "vertex_carriers" not in got._cache
            continue
        facets = got._cache["facets"]
        assert facets == want._cache["facets"]
        assert got._tight_sets() == want._cache["tight"]
        # the incidences hull kept are those read off the vertices afresh
        assert got._vertex_carriers() == tuple(carrier(facets, v) for v in got.vertices)
        assert got._vertex_carriers() == _fresh(got)._vertex_carriers()
        if got.dim() > 0:
            # the earlier normal fan: the facets tight at each vertex
            assert normal_fan(got).vertex_cones == tuple(
                frozenset(i for i, (nrm, c) in enumerate(facets) if dot(nrm, v) == c)
                for v in got.vertices
            )
    # full-dimensional and lower-dimensional sets with points that are no vertex, single points
    assert kinds[True, False, True] > 40 and kinds[False, False, True] > 20
    assert kinds[False, True, False] > 20


def test_hull_runs_no_rank(monkeypatch):
    # The one rank allowed is the chart's test of the differences from the first point.
    pts = dilated_simplex(3, 3).lattice_points()
    base = min(pts)
    diffs = [[a - b for a, b in zip(x, base)] for x in sorted(pts)[1:]]
    ranked = []

    def refuse(a):
        if a != diffs:
            raise AssertionError("hull ranked a point's facets")
        ranked.append(a)
        return rank(a)

    monkeypatch.setattr(polytope_module, "rank", refuse)
    p = hull(pts)
    assert p.vertices == ((0, 0, 0), (0, 0, 3), (0, 3, 0), (3, 0, 0))
    assert len(p._vertex_carriers()) == 4
    assert len(ranked) == 1


def test_vertex_carriers_need_a_full_dimensional_polytope():
    with pytest.raises(DegenerateInputError, match="full-dimensional"):
        hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])._vertex_carriers()


# -- the lower hull ----------------------------------------------------------------------


def _assert_same_subdivision(p, heights):
    got = regular_subdivision(p, heights)
    want = _oracle_regular_subdivision(p, heights)
    assert [c.vertices for c in got.maximal_cells] == [c.vertices for c in want.maximal_cells]
    assert got.witness == want.witness
    assert got.heights == want.heights
    assert [c.facet_system() for c in got.maximal_cells] == [
        c.facet_system() for c in want.maximal_cells
    ]
    assert [c.vertices for c in got.cells] == [c.vertices for c in want.cells]
    assert (got.points, got.cell_masks, got.cell_parents) == (
        want.points,
        want.cell_masks,
        want.cell_parents,
    )
    return got


@pytest.fixture(scope="module")
def dim4():
    big = dilated_simplex(4, 4)
    return big, distance_height(big, kollar_totaro(3, 4))


def test_one_hull_per_lower_hull(dim4, monkeypatch):
    # The lift and the vertical ray go through one DD; no hull is taken, of the lift or of a cell.
    runs = []
    extreme_rays = dd.extreme_rays

    def counted(constraints, dim):
        runs.append((len(constraints), dim))
        return extreme_rays(constraints, dim)

    def refuse(points):
        raise AssertionError("the lower hull took a hull")

    monkeypatch.setattr(dd, "extreme_rays", counted)
    monkeypatch.setattr(polytope_module, "hull", refuse)
    monkeypatch.setattr(subdivision, "hull", refuse, raising=False)
    s = regular_subdivision(*dim4)
    assert len(s.maximal_cells) == 196
    # after the lift, only the facets of each maximal cell that is no simplex, for its faces
    others = [(len(c.vertices), 5) for c in s.maximal_cells if not c.is_simplex()]
    assert runs == [(71, 6)] + others and len(others) == 1


def test_the_lift_goes_in_by_height(monkeypatch):
    # The vertical row, then the lifted points by increasing height, ties in
    # lattice-point order: the order sets the DD's work, not its result.
    fed = []
    extreme_rays = dd.extreme_rays

    def recorded(constraints, dim):
        fed.append(constraints)
        return extreme_rays(constraints, dim)

    monkeypatch.setattr(dd, "extreme_rays", recorded)
    rng = random.Random(SEED + 3)  # the inputs of test_criterion_11d_subdivisions
    ties = 0
    for _ in range(100):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim, coord=3 if dim == 2 else 2)
        heights = {x: rng.randint(0, 6) for x in p.lattice_points()}
        fed.clear()
        regular_subdivision(p, heights)
        rows = fed[0]
        assert rows[0] == (0,) * dim + (1, 0)
        index = {x: i for i, x in enumerate(p.lattice_points())}
        keys = [(r[dim], index[r[:dim]]) for r in rows[1:]]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert [r[dim] for r in rows[1:]] == [heights[r[:dim]] for r in rows[1:]]
        assert len(rows) == len(index) + 1
        ties += len(set(heights.values())) < len(heights)
    assert ties > 50  # most inputs tie some heights


def test_a_lineality_space_in_the_lift_raises(monkeypatch):
    # Rows that span make the cone pointed, so a line can only come from a broken engine.
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    monkeypatch.setattr(dd, "extreme_rays", lambda rows, dim: ([], [(0, 0, 0, 1)], []))
    with pytest.raises(InternalConsistencyError, match="spans a line"):
        regular_subdivision(square, dict.fromkeys(square.lattice_points(), 0))


@pytest.mark.parametrize("seed", [0, 1])
def test_dim4_heights_under_signed_permutations(dim4, seed):
    # Distances are invariant under a signed permutation with a shift, so
    # the moved heights are the heights of the moved target.
    big, heights = dim4
    rng = random.Random(seed)
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((-1, 1)) for _ in range(4)]
    shift = [rng.randint(-3, 3) for _ in range(4)]

    def move(x):
        return tuple(s * x[j] + t for j, s, t in zip(perm, signs, shift))

    p = hull([move(v) for v in big.vertices])
    s = _assert_same_subdivision(p, {move(x): h for x, h in heights.items()})
    assert len(s.maximal_cells) == 196


def test_staged_double_cone():
    dc = divisor_23_double_cone()
    heights = staged_distance_height(dc.polytope, dc.embedded_base(), dc.slices())
    s = _assert_same_subdivision(dc.polytope, heights)
    assert len(s.maximal_cells) == 6


def test_criterion_11d_subdivisions():
    # the inputs of verification._c11d_subdivisions, drawn in its order
    rng = random.Random(SEED + 3)
    for _ in range(100):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim, coord=3 if dim == 2 else 2)
        _assert_same_subdivision(p, {x: rng.randint(0, 6) for x in p.lattice_points()})


def test_affine_heights():
    # the inputs of test_subdivision.TestLowerHullWithApex's affine heights
    rng = random.Random(43)
    for trial in range(160):
        dim = trial % 4 + 1
        while True:
            p = hull([tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(dim + 2)])
            if p.dim() == dim:
                break
        g = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)]
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        s = _assert_same_subdivision(p, {x: dot(g, x) + k for x in p.lattice_points()})
        assert s.maximal_cells == (p,)


@pytest.mark.parametrize(
    "p",
    [
        dilated_simplex(3, 2),
        hull([(0, 0), (2, 0), (0, 2), (2, 2)]),
        hull([(0, 0, 0), (1, 0, 2), (1, 2, 0), (1, 2, 2), (2, 2, 0)]),
    ],
)
def test_pulling_chain(p):
    # Zero heights, then each lattice point in turn lowered by 1, 1/2, ..., 1/64
    # below the table so far, as a pulling refinement tries its pull-downs.
    heights = {x: Fraction(0) for x in p.lattice_points()}
    _assert_same_subdivision(p, heights)
    for x in p.lattice_points():
        for k in range(7):
            _assert_same_subdivision(p, {**heights, x: heights[x] - Fraction(1, 2**k)})
        heights[x] -= Fraction(1, 64)
