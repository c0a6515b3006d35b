import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from sbvol import dd
from sbvol import polytope as polytope_module
from sbvol.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
    SubdivisionError,
)
from sbvol.intlinalg import dot, rank, solve_rational
from sbvol.polytope import RationalPolytope, dilate, hull
from sbvol.subdivision import (
    _affine_minimizer,
    _certify_min_norm,
    distance_height,
    height_function,
    interior_cells,
    lies_in_boundary,
    make_subdivision,
    min_squared_distance,
    regular_subdivision,
    staged_distance_height,
    validate,
)
from test_lower_hull_oracle import _oracle_hull


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


class TestRegularSubdivision:
    def test_trivial(self):
        p = dilate(simplex(3), 4)
        s = regular_subdivision(p, height_function(p, lambda v: 0))
        assert s.maximal_cells == (p,)
        assert validate(s).ok
        assert [c.dim() for c in interior_cells(s)] == [3]

    def test_cut_plane(self):
        p = dilate(simplex(3), 4)
        s = regular_subdivision(p, height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4)))
        assert len(s.maximal_cells) == 2
        cells = {c.vertices for c in s.maximal_cells}
        assert ((0, 0, 0), (0, 0, 2), (0, 4, 0), (4, 0, 0)) in cells
        assert ((0, 0, 2), (0, 0, 4), (0, 4, 0), (4, 0, 0)) in cells
        assert validate(s).ok
        inter = interior_cells(s)
        tri = [c for c in inter if c.dim() == 2]
        assert len(tri) == 1
        assert tri[0].vertices == ((0, 0, 2), (0, 4, 0), (4, 0, 0))
        assert tri[0].n_interior_points() == 1

    def test_square_lift(self):
        p = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        heights = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}
        s = regular_subdivision(p, heights)
        assert len(s.maximal_cells) == 2
        assert all(len(c.vertices) == 3 for c in s.maximal_cells)

    def test_affine_heights_witness_is_the_lifted_facet(self):
        # h = (4x - 2y + 6z + 3) / 12 lifts to H = 12 h: the facet -4x + 2y - 6z + H = 3.
        p = dilate(simplex(3), 2)
        s = regular_subdivision(
            p, height_function(p, lambda v: Fraction(2 * v[0] - v[1] + 3 * v[2], 6) + Fraction(1, 4))
        )
        assert s.maximal_cells == (p,) and s.height_scale == 12
        assert s.witness == (((-4, 2, -6, 1), 3),)
        assert validate(s).ok

    def test_witness_must_be_a_lower_facet(self):
        p = dilate(simplex(2), 2)
        s = regular_subdivision(p, height_function(p, lambda v: 0))
        flags = {n: ok for n, ok, _ in validate(replace(s, witness=(((0, 0, -1), 0),))).checks}
        assert not flags["witness_affine"] and not flags["witness_strictly_convex"]

    def test_missing_height(self):
        p = dilate(simplex(2), 2)
        with pytest.raises(DegenerateInputError):
            regular_subdivision(p, {(0, 0): 0})

    @pytest.mark.parametrize("bad", [0.1, True, 1.0, "1"])
    def test_inexact_height_raises(self, bad):
        p = dilate(simplex(2), 2)
        heights = {x: 0 for x in p.lattice_points()}
        heights[(1, 0)] = bad
        with pytest.raises(DegenerateInputError, match=r"height at \(1, 0\) must be an int or a Fraction"):
            regular_subdivision(p, heights)
        with pytest.raises(DegenerateInputError, match=r"height at \(1, 0\)"):
            make_subdivision(p, [p], heights)
        with pytest.raises(DegenerateInputError, match=r"height at \(1, 0\)"):
            height_function(p, lambda x: heights[x])

    def test_signed_interior_count(self):
        rng = random.Random(41)
        for _ in range(15):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 3)])
            if p.dim() != d:
                continue
            heights = {x: rng.randint(0, 5) for x in p.lattice_points()}
            s = regular_subdivision(p, heights)
            assert validate(s).ok
            signed = sum((-1) ** c.dim() for c in interior_cells(s))
            assert signed == (-1) ** d


class TestHeightPoints:
    def test_point_off_the_lattice_raises(self):
        p = hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DegenerateInputError, match=r"\[0.5, 0\] is not a lattice point"):
            make_subdivision(p, [p], {(0.5, 0): 1, (0, 0): 0})

    @pytest.mark.parametrize("extra", [(7, 7), (0.5, 0.5), (1.0, 0), 5])
    def test_foreign_point_raises(self, extra):
        p = hull([(0, 0), (2, 0), (0, 2)])
        heights = {x: 0 for x in p.lattice_points() if x != extra}  # (1.0, 0) replaces (1, 0)
        heights[extra] = 1
        for build in (lambda: regular_subdivision(p, heights), lambda: make_subdivision(p, [p], heights)):
            with pytest.raises(
                DegenerateInputError,
                match=r"is not a lattice point of the polytope$"
                r"|^height point coordinate must be an int, got 1\.0$",
            ):
                build()

    def test_point_from_another_space_raises(self):
        p = hull([(0, 0), (2, 0), (0, 2)])
        heights = {x: 0 for x in p.lattice_points()}
        heights[(1, 2, 3)] = 1
        for build in (lambda: regular_subdivision(p, heights), lambda: make_subdivision(p, [p], heights)):
            with pytest.raises(DimensionMismatchError, match=r"height point \[1, 2, 3\] is not in Z\^2"):
                build()


def _affine_fit(pts, hmap, d, scale):
    """The facet (n, c) of the lifted points (x, h(x) * scale) when the heights are affine.

    With h(x) = <g, x> + k, the hyperplane <-w * scale * g, x> + w * (h(x) * scale) =
    w * scale * k has integer coefficients once w clears the denominators of
    scale * g and scale * k, and then they have no common factor.
    """
    base = pts[0]
    if len(pts) == 1:
        grad = [Fraction(0)] * d
    else:
        grad = solve_rational(
            [[a - b for a, b in zip(x, base)] for x in pts[1:]],
            [hmap[x] - hmap[base] for x in pts[1:]],
        )
        if grad is None:
            raise SubdivisionError("heights are not affine despite the rank test")
    coeffs = [-g * scale for g in grad] + [(hmap[base] - dot(grad, base)) * scale]
    w = lcm(*(v.denominator for v in coeffs))
    n = tuple(int(v * w) for v in coeffs[:d]) + (w,)
    return n, int(coeffs[d] * w)


def _oracle_cells_and_witness(p, hmap):
    """Sorted (cell vertices, witness) pairs by the earlier two paths: a fitted
    facet when the lifted points are not full-dimensional, else their lower hull."""
    pts = p.lattice_points()
    d = p.dim()
    scale = lcm(*[v.denominator for v in hmap.values()])
    lifted = [x + (int(hmap[x] * scale),) for x in pts]
    if rank([[a - b for a, b in zip(q, lifted[0])] for q in lifted[1:]]) <= d:
        return [(p.vertices, _affine_fit(pts, hmap, d, scale))]
    out = []
    for n, c in dd.facet_normals_from_points(lifted)[0]:
        if n[d] > 0:
            out.append((_oracle_hull([x for x, q in zip(pts, lifted) if dot(n, q) == c]).vertices, (n, c)))
    return sorted(out)


class TestLowerHullWithApex:
    def random_polytope(self, rng, dim):
        while True:
            p = hull([tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(dim + 2)])
            if p.dim() == dim:
                return p

    def check(self, p, hmap):
        s = regular_subdivision(p, hmap)
        got = sorted(zip((c.vertices for c in s.maximal_cells), s.witness))
        assert got == _oracle_cells_and_witness(p, hmap)
        return s

    def test_affine_heights_against_the_fitted_facet(self):
        rng = random.Random(43)
        for trial in range(160):
            dim = trial % 4 + 1
            p = self.random_polytope(rng, dim)
            g = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)]
            k = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            s = self.check(p, {x: dot(g, x) + k for x in p.lattice_points()})
            assert s.maximal_cells == (p,)

    def test_integer_heights_keep_their_cells_and_witnesses(self):
        rng = random.Random(44)
        for trial in range(120):
            dim = trial % 4 + 1
            p = self.random_polytope(rng, dim)
            self.check(p, {x: Fraction(rng.randint(0, 4)) for x in p.lattice_points()})


class TestDistanceHeights:
    def test_zero_on_target(self):
        p = dilate(simplex(2), 3)
        delta = hull([(1, 1)])
        h = distance_height(p, delta)
        assert h[(1, 1)] == 0
        assert all(v > 0 for k, v in h.items() if k != (1, 1))

    def test_segment_distances(self):
        h = distance_height(hull([(0,), (3,)]), hull([(0,)]))
        assert [h[(k,)] for k in range(4)] == [0, 1, 4, 9]

    def test_edge_projection(self):
        p = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        h = distance_height(p, hull([(0, 0), (1, 0)]))
        assert h[(1, 1)] == 1 and h[(0, 1)] == 1

    def test_fractional_projection(self):
        # nearest point to (1, 1) on the segment from (0, 0) to (2, 1)
        seg = hull([(0, 0), (2, 1)])
        assert min_squared_distance(seg, (1, 1)) == Fraction(1, 5)

    def test_not_contained_raises(self):
        with pytest.raises(DegenerateInputError):
            distance_height(simplex(2), hull([(5, 5)]))

    def test_is_the_staged_height_with_no_slices(self):
        p = dilate(simplex(2), 3)
        delta = hull([(0, 0), (1, 1)])
        h = distance_height(p, delta)
        assert list(h.items()) == [(x, min_squared_distance(delta, x)) for x in p.lattice_points()]
        assert list(h.items()) == list(staged_distance_height(p, delta).items())

    def test_staged_chain_must_lie_in_p(self):
        # Each stage lies in the one before it, but the outermost is not in p.
        p = dilate(simplex(2), 2)
        with pytest.raises(DegenerateInputError, match="stages not nested"):
            staged_distance_height(p, hull([(0, 0)]), slices=[dilate(simplex(2), 3)])
        assert staged_distance_height(p, hull([(0, 0)]), slices=[p])[(2, 0)] == 4

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: distance_height(p, 5),
            lambda p: distance_height(p, [(0, 0)]),
            lambda p: staged_distance_height(p, None),
            lambda p: staged_distance_height(p, p, slices=[True]),
            lambda p: min_squared_distance((0, 0), (1, 1)),
        ],
        ids=["int-target", "list-target", "none-stage", "bool-slice", "tuple-polytope"],
    )
    def test_target_or_stage_that_is_not_a_polytope_raises(self, call):
        with pytest.raises(DegenerateInputError, match=r"is not a lattice or a rational polytope$"):
            call(simplex(2))


class TestMinNormCertificate:
    # Weights w over one denominator D name the point Y / D, Y = sum w_i p_i.
    POINTS = [(2, 0), (0, 2), (3, 3)]

    def test_optimal_point_passes(self):
        # The nearest point of the triangle to the origin is (1, 1) = (2, 2) / 2.
        _certify_min_norm(self.POINTS, [1, 1, 0], 2, (2, 2))
        _certify_min_norm(self.POINTS, [3, 3, 0], 6, (6, 6))

    def test_non_optimal_point_raises(self):
        # (2, 0) is a vertex, but <(2, 0), (0, 2)> = 0 < 4.
        with pytest.raises(InternalConsistencyError, match="not optimal"):
            _certify_min_norm(self.POINTS, [1, 0, 0], 1, (2, 0))

    def test_weights_must_reproduce_the_point(self):
        miss = "not convex or miss the point"
        with pytest.raises(InternalConsistencyError, match=miss):
            _certify_min_norm(self.POINTS, [1, 0, 0], 1, (1, 1))
        with pytest.raises(InternalConsistencyError, match=miss):
            _certify_min_norm(self.POINTS, [2, -1, 0], 1, (4, -2))
        with pytest.raises(InternalConsistencyError, match=miss):  # weights sum to 2, not D
            _certify_min_norm(self.POINTS, [1, 1, 0], 1, (2, 2))
        with pytest.raises(InternalConsistencyError, match=miss):  # D = 0 names no point
            _certify_min_norm(self.POINTS, [0, 0, 0], 0, (0, 0))

    def test_non_optimal_point_raises_under_optimize(self):
        # python -O strips assert statements; the certificate checks must still raise.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from sbvol.errors import InternalConsistencyError\n"
            "from sbvol.subdivision import _certify_min_norm\n"
            "for case in ([1, 0, 0], 1, (2, 0)), ([1, 1, 0], 1, (2, 2)), ([0, 0, 0], 0, (0, 0)):\n"
            "    try:\n"
            "        _certify_min_norm([(2, 0), (0, 2), (3, 3)], *case)\n"
            "    except InternalConsistencyError:\n"
            "        print('raised')\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["raised"] * 3

    def test_affinely_dependent_corral_raises(self):
        with pytest.raises(InternalConsistencyError):
            _affine_minimizer([(1, 0), (2, 0), (3, 0)])

    def test_empty_rational_polytope_raises(self):
        empty = RationalPolytope(1, [((1,), 1), ((-1,), 0)])
        with pytest.raises(DegenerateInputError):
            min_squared_distance(empty, (0,))


class TestDimensionMismatch:
    TRIANGLE = hull([(0, 0), (2, 0), (0, 2)])

    def test_contains(self):
        with pytest.raises(DimensionMismatchError):
            self.TRIANGLE.contains((0, 0, 9))
        with pytest.raises(DimensionMismatchError):
            hull([(0, 0), (2, 0)]).contains((1,))
        with pytest.raises(DimensionMismatchError):
            self.TRIANGLE.as_halfspaces().contains((0,))

    def test_min_squared_distance(self):
        with pytest.raises(DimensionMismatchError):
            min_squared_distance(self.TRIANGLE, (3, 3, 3))
        with pytest.raises(DimensionMismatchError):
            min_squared_distance(self.TRIANGLE.as_halfspaces(), (3,))

    def test_distance_heights(self):
        p = dilate(simplex(2), 2)
        wrong = hull([(0, 0, 5), (1, 0, 5)])
        with pytest.raises(DimensionMismatchError):
            distance_height(p, wrong)
        with pytest.raises(DimensionMismatchError):
            staged_distance_height(p, wrong)
        with pytest.raises(DimensionMismatchError):
            staged_distance_height(p, hull([(0, 0)]), [wrong])
        with pytest.raises(DimensionMismatchError):
            staged_distance_height(p, wrong, [hull([(0, 0, 0), (1, 0, 5)])])


class TestStagedDistance:
    def test_zero_stages_equal_plain(self):
        p = dilate(simplex(2), 3)
        delta = hull([(1, 1)])
        assert staged_distance_height(p, delta) == distance_height(p, delta)

    def test_double_cone_figure(self):
        octa = hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        delta = hull([(-1, 0, 0), (1, 0, 0)])
        slice1 = RationalPolytope(
            3,
            [(n, Fraction(c)) for n, c in octa.facet_system()]
            + [((0, 1, 0), Fraction(0)), ((0, -1, 0), Fraction(0))],
        )
        h = staged_distance_height(octa, delta, [octa, slice1])
        s = regular_subdivision(octa, h)
        assert validate(s).ok
        assert len(s.maximal_cells) == 4
        assert any(c == delta for c in s.cells)
        for c in s.maximal_cells:
            assert all(c.contains(v) for v in delta.vertices)
            assert c.lattice_width()[0] == 1

    def test_inconsistent_chain(self):
        p = dilate(simplex(2), 3)
        with pytest.raises(DegenerateInputError):
            staged_distance_height(p, hull([(1, 1)]), [hull([(0, 0), (1, 0)])])


def _square_and_the_square_around_it():
    """The trivial subdivision of [0, 2]^2, and [-1, 3]^2, which it does not subdivide."""
    small = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    return regular_subdivision(small, {x: 0 for x in small.lattice_points()}), hull(
        [(-1, -1), (3, -1), (-1, 3), (3, 3)]
    )


class TestValidation:
    def test_validate_rejects_a_polytope_it_does_not_subdivide(self):
        s, big = _square_and_the_square_around_it()
        with pytest.raises(DegenerateInputError, match=r"^the subdivision is of the polytope with vertices"):
            validate(s, big)
        assert validate(s, hull([(2, 2), (0, 0), (2, 0), (0, 2)])).ok  # equal polytope, another object

    def test_interior_cells_rejects_a_polytope_it_does_not_subdivide(self):
        # Read against the big square, every one of the 9 cells was interior.
        s, big = _square_and_the_square_around_it()
        with pytest.raises(DegenerateInputError, match=r"^the subdivision is of the polytope with vertices"):
            interior_cells(s, big)
        assert [c.dim() for c in interior_cells(s, hull([(2, 2), (0, 0), (2, 0), (0, 2)]))] == [2]

    def test_overlapping_cells_fail_cover(self):
        p = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        a = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        b = hull([(0, 0), (2, 0), (2, 2)])
        s = make_subdivision(p, [a, b])
        rep = validate(s)
        assert not rep.ok
        assert any(name == "cover" and not ok for name, ok, _ in rep.checks)

    def test_t_joint_fails_face_condition(self):
        p = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        a = hull([(0, 0), (2, 0), (0, 1), (2, 1)])
        b = hull([(0, 1), (1, 1), (0, 2), (1, 2)])
        c = hull([(1, 1), (2, 1), (1, 2), (2, 2)])
        s = make_subdivision(p, [a, b, c])
        rep = validate(s)
        assert not rep.ok
        assert any(name == "pairwise_faces" and not ok for name, ok, _ in rep.checks)

    def test_cell_listed_twice_fails_face_condition(self):
        # The volumes add up to the rectangle's, but the shared facet has
        # both copies on one side; a pairwise-intersection check accepts it.
        p = hull([(0, 0), (2, 0), (0, 1), (2, 1)])
        half = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        rep = validate(make_subdivision(p, [half, half]))
        assert not rep.ok
        assert [(name, ok) for name, ok, _ in rep.checks] == [
            ("integral", True),
            ("cover", True),
            ("pairwise_faces", False),
        ]

    def test_lower_dimensional_cell_fails_cover(self):
        p = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        s = make_subdivision(p, [p, hull([(0, 0), (2, 2)])])
        rep = validate(s)
        assert not rep.ok
        assert [(name, ok) for name, ok, _ in rep.checks] == [
            ("integral", True),
            ("cover", False),
            ("pairwise_faces", False),
        ]

    def test_boundary_tests_run_no_lattice_point_scan(self, monkeypatch):
        # A huge single cell: the boundary test reads carriers off the facet
        # system and the face lattice off the vertices, so nothing scans P.
        p = dilate(simplex(4), 200)

        def no_scan(*args, **kwargs):
            raise AssertionError("a lattice-point scan ran")

        monkeypatch.setattr(polytope_module, "integer_points", no_scan)
        s = make_subdivision(p, [p])
        assert [c.dim() for c in interior_cells(s)] == [4]
        assert [c.dim() for c in interior_cells(s, p)] == [4]
        assert validate(s).ok
        assert lies_in_boundary(p, [(0, 0, 0, 0), (200, 0, 0, 0), (0, 0, 7, 0)])
        assert not lies_in_boundary(p, [(0, 0, 0, 0), (1, 1, 1, 1)])
        # Points that are no lattice vertex: rational, interior, on one facet only.
        assert lies_in_boundary(p, [(Fraction(1, 3), 0, 5, 0), (0, 0, Fraction(9, 2), 1)])
        assert not lies_in_boundary(p, [(1, 1, 1, 1)])
        assert lies_in_boundary(p, [(50, 50, 50, 50)])
        assert not lies_in_boundary(p, [(50, 50, 50, 49), (0, 0, 0, 0)])
        assert "points" not in p._cache

    def test_lies_in_boundary_edge_inputs(self):
        # No points: the AND over nothing is every facet.  A generator is read once.
        p = dilate(simplex(2), 3)
        assert lies_in_boundary(p, [])
        assert lies_in_boundary(p, iter([(0, 0), (3, 0)]))
        with pytest.raises(DegenerateInputError, match="full-dimensional"):
            lies_in_boundary(hull([(0, 0)]), [])

    def test_figure_subdivision_valid(self):
        p = dilate(simplex(3), 4)
        s = regular_subdivision(p, height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4)))
        rep = validate(s)
        assert rep.ok
        assert all(ok for _, ok, _ in rep.checks)
