import itertools
import math
import random
from fractions import Fraction

import pytest

from sbvol import dd
from sbvol import polytope as polytope_module
from sbvol import toric as toric_module
from sbvol.errors import DegenerateInputError, ResourceLimitError, UnsupportedInputError
from sbvol.families import hpt, schreieder
from sbvol.polytope import dilate, hull
from sbvol.toric import (
    class_group,
    divisor_polytope,
    facet_shift,
    fine_interior,
    normal_fan,
    ord_value,
)
from test_fine_interior_oracle import RationalCone, hilbert_basis, vertex_cone


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


def product_scan_points(rp):
    """Oracle: every integer point of the vertex bounding box, tested halfspace by halfspace."""
    vs = rp.vertices()
    if not vs:
        return ()
    box = [range(math.ceil(min(v[i] for v in vs)), math.floor(max(v[i] for v in vs)) + 1) for i in range(rp.ambient_dim)]
    return tuple(
        x
        for x in itertools.product(*box)
        if all(sum(Fraction(a) * b for a, b in zip(n, x)) >= c for n, c in rp.halfspaces)
    )


def parallelepiped_oracle(gens, bound=12):
    """Oracle: lattice points of the half-open parallelepiped by rational scan."""
    d = len(gens[0])
    out = set()
    for x in itertools.product(range(-bound, bound + 1), repeat=d):
        from sbvol.intlinalg import solve_rational

        cols = [[g[k] for g in gens] for k in range(d)]
        lam = solve_rational(cols, [Fraction(v) for v in x])
        if lam is None:
            continue
        if all(0 <= t < 1 for t in lam):
            out.add(tuple(x))
    return out


class TestNormalFan:
    def test_dilated_simplex_rays(self):
        fan = normal_fan(dilate(simplex(3), 4))
        assert set(fan.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}

    def test_hpt_six_rays(self):
        fan = normal_fan(hpt())
        assert fan.n_rays == 6

    def test_square_rays(self):
        fan = normal_fan(hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_ord(self):
        p = dilate(simplex(3), 5)
        assert ord_value(p, (1, 0, 0)) == 0
        assert ord_value(p, (-1, -1, -1)) == -5
        assert ord_value(p, (0, 0, 0)) == 0


class TestHilbertBasis:
    def test_two_dim_cone(self):
        cone = RationalCone.from_generators([(1, 0), (1, 2)])
        assert hilbert_basis(cone) == ((1, 0), (1, 1), (1, 2))

    def test_unimodular(self):
        cone = RationalCone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert hilbert_basis(cone) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_family_count(self):
        for q in (2, 3, 5, 7):
            cone = RationalCone.from_generators([(1, 0), (1, q)])
            hb = hilbert_basis(cone)
            assert hb == tuple((1, k) for k in range(q + 1))

    def test_against_parallelepiped_oracle(self):
        gens = [(1, 0), (2, 5)]
        cone = RationalCone.from_generators(gens)
        hb = set(hilbert_basis(cone))
        box = parallelepiped_oracle(gens)
        # every basis element is a generator or a parallelepiped point
        assert hb <= (box | set(cone.generators))

    def test_minimality(self):
        cone = RationalCone.from_generators([(1, 0), (3, 7)])
        hb = list(hilbert_basis(cone))
        for h in hb:
            for b in hb:
                if b == h:
                    continue
                diff = tuple(x - y for x, y in zip(h, b))
                assert not (cone.contains(diff) and any(diff)), (h, b)

    def test_non_pointed_rejected(self):
        cone = RationalCone.from_generators([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(UnsupportedInputError):
            hilbert_basis(cone)

    def test_facet_data_computed_once(self, monkeypatch):
        calls = []
        original = dd.extreme_rays

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dd, "extreme_rays", counted)
        cone = RationalCone.from_generators([(1, 0, 0), (1, 3, 0), (1, 0, 5)])
        points = [(1, 1, 1), (0, 1, 0), (3, 3, 5), (1, 3, 5), (-1, 0, 0)]
        assert [cone.contains(x) for x in points] == [True, False, True, False, False]
        assert len(calls) == 1
        # A simplicial cone needs no triangulation: the basis reuses the same run.
        assert len(hilbert_basis(cone)) > 3
        assert len(calls) == 1


class TestFineInterior:
    def test_golden_three_dim(self):
        p = hull([(0, 2, 2), (1, 3, 0), (2, 4, 3), (3, 0, 1)])
        fi = fine_interior(p)
        expected = sorted(
            tuple(Fraction(a, 5) for a in v)
            for v in [(7, 12, 6), (9, 9, 7), (6, 11, 8), (8, 13, 9)]
        )
        assert sorted(fi.vertices()) == expected
        assert fi.dim == 3 and not fi.is_lattice

    def test_every_scan_is_capped_by_the_budget(self, monkeypatch):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)])
        expected = fine_interior(p)
        caps = []
        original = toric_module.integer_points

        def recorded(constraints, lo, hi, budget, routine):
            caps.append(budget)
            return original(constraints, lo, hi, budget, routine)

        monkeypatch.setattr(toric_module, "integer_points", recorded)
        monkeypatch.setattr(polytope_module, "DEFAULT_POINT_BUDGET", 100)
        fi = fine_interior(p)
        assert caps and set(caps) == {None}  # the scan reads DEFAULT_POINT_BUDGET
        assert (fi.is_empty, fi.dim, fi.generators) == (
            expected.is_empty,
            expected.dim,
            expected.generators,
        )

    def test_budget_error_names_the_scan(self, monkeypatch):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)])
        monkeypatch.setattr(polytope_module, "DEFAULT_POINT_BUDGET", 0)
        with pytest.raises(
            ResourceLimitError,
            match=r"^fine_interior: integer point scan spent 2 nodes, over its budget of 0"
            r" \(dimension 3, 6 constraints\)$",
        ):
            fine_interior(p)

    def test_budget_error_names_a_plane_scan(self, monkeypatch):
        p = hull([(0, 0), (7, 2), (3, 9)])
        monkeypatch.setattr(polytope_module, "DEFAULT_POINT_BUDGET", 10)
        with pytest.raises(
            ResourceLimitError,
            match=r"^fine_interior: integer point scan spent 11 nodes, over its budget of 10"
            r" \(dimension 2, 4 constraints\)$",
        ):
            fine_interior(p)

    def test_cliff_polytope_finishes_under_a_small_budget(self, monkeypatch):
        # 20 facets and 70 lattice points; with only the box bound on the free
        # suffix, a scan of this polytope runs past 20,000 nodes
        p = hull(
            [(-3, -3, 2, 0), (-3, 1, 2, 0), (-3, 3, -2, 0), (-2, -1, -1, 1), (-1, -3, 3, 1),
             (1, 0, -1, 3), (2, -1, 3, 0), (2, 3, -2, 2), (3, -2, -2, 2)]
        )
        monkeypatch.setattr(polytope_module, "DEFAULT_POINT_BUDGET", 20_000)
        fi = fine_interior(p)
        assert (fi.is_empty, fi.dim, len(fi.vertices())) == (False, 4, 40)

    def test_single_point(self):
        fi = fine_interior(dilate(simplex(2), 3))
        assert fi.vertices() == ((Fraction(1), Fraction(1)),)
        assert fi.dim == 0

    def test_empty(self):
        assert fine_interior(dilate(simplex(2), 2)).is_empty

    def test_contains_interior_points(self):
        rng = random.Random(21)
        for _ in range(15):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(d + 3)])
            if p.dim() != d:
                continue
            fi = fine_interior(p)
            for m in p.lattice_points(interior_only=True):
                assert fi.polytope.contains(m)

    def test_monotone(self):
        big = dilate(simplex(2), 4)
        small = dilate(simplex(2), 3)
        fb, fs = fine_interior(big), fine_interior(small)
        for v in fs.vertices():
            assert fb.polytope.contains(v)

    def test_matches_hilbert_route(self):
        rng = random.Random(22)
        done = 0
        while done < 12:
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 2)])
            if p.dim() != d:
                continue
            fan = normal_fan(p)
            gens = set()
            for i in range(len(p.vertices)):
                gens.update(hilbert_basis(vertex_cone(fan, i)))
            from sbvol.polytope import RationalPolytope

            alt = RationalPolytope(
                d, [(n, Fraction(ord_value(p, n) + 1)) for n in gens]
            )
            fi = fine_interior(p)
            assert sorted(fi.vertices()) == sorted(alt.vertices())
            done += 1


class TestKodaira:
    def test_values(self):
        assert fine_interior(dilate(simplex(2), 2)).kodaira_dimension == float("-inf")
        assert fine_interior(dilate(simplex(2), 3)).kodaira_dimension == 0
        assert fine_interior(dilate(simplex(3), 4)).kodaira_dimension == 0

    def test_general_type_flag(self):
        p = hull([(0, 2, 2), (1, 3, 0), (2, 4, 3), (3, 0, 1)])
        assert fine_interior(p).kodaira_dimension == 2 == p.dim() - 1


class TestDivisors:
    def test_ample_polytope_identity(self):
        p = dilate(simplex(3), 4)
        fan = normal_fan(p)
        pd = divisor_polytope(fan, fan.ample_coefficients())
        assert sorted(pd.vertices()) == [tuple(Fraction(x) for x in v) for v in p.vertices]

    def test_zero_divisor(self):
        fan = normal_fan(dilate(simplex(2), 3))
        pd = divisor_polytope(fan, [0] * fan.n_rays)
        assert pd.vertices() == ((Fraction(0), Fraction(0)),)

    def test_divisor_polytope_rejects_floats_and_bools(self):
        fan = normal_fan(simplex(2))
        for coeffs in ([0.1, 0, 2], [True, 0, 0]):
            with pytest.raises(DegenerateInputError, match=r"^divisor coefficient must be an int or a Fraction, got (0\.1|True)$"):
                divisor_polytope(fan, coeffs)
        assert divisor_polytope(fan, [Fraction(1, 2), 0, 0]).halfspaces

    def test_facet_shift_segment(self):
        p = hull([(0,), (5,)])
        fan = normal_fan(p)
        left = [i for i, u in enumerate(fan.rays) if u == (1,)][0]
        shifted = facet_shift(p, left)
        assert sorted(shifted.vertices()) == [(Fraction(1),), (Fraction(5),)]

    def test_facet_shift_smooth_is_lattice(self):
        p = dilate(simplex(3), 4)
        fan = normal_fan(p)
        for i in range(fan.n_rays):
            assert facet_shift(p, i).is_lattice()

    def test_shift_matches_divisor_polytope(self):
        p = dilate(simplex(3), 4)
        fan = normal_fan(p)
        coeffs = list(fan.ample_coefficients())
        coeffs[0] -= 1
        a = facet_shift(p, 0)
        b = divisor_polytope(fan, coeffs)
        assert sorted(a.vertices()) == sorted(b.vertices())

    def test_lattice_points_against_product_scan(self):
        rng = random.Random(22)
        polys = [dilate(simplex(3), 4), hpt(), hull([(0, 0, 0), (3, 0, 0), (0, 2, 0), (1, 1, 3)])]
        for p in polys:
            fan = normal_fan(p)
            systems = [facet_shift(p, i) for i in range(fan.n_rays)]
            for _ in range(4):
                # rational offsets around the ample divisor
                coeffs = [a + Fraction(rng.randint(-3, 2), rng.randint(1, 3)) for a in fan.ample_coefficients()]
                systems.append(divisor_polytope(fan, coeffs))
            for rp in systems:
                assert rp.lattice_points() == product_scan_points(rp)


HPT_DEGREES = [
    (2, (1, 0)),
    (1, (0, 0)),
    (2, (0, 1)),
    (1, (1, 0)),
    (1, (0, 1)),
    (2, (1, 1)),
]


def automorphism_orbit_match(ours, target):
    """Match degree lists in Z x (Z/2)^2 up to a group automorphism and ray order."""
    t2 = [(1, 0), (0, 1), (1, 1)]
    gl2 = []
    for a, b in itertools.permutations([(1, 0), (0, 1), (1, 1)], 2):
        gl2.append((a, b))

    def apply(auto, deg):
        sign, mat, shear = auto
        m, t = deg
        new_t = (
            (mat[0][0] * t[0] + mat[0][1] * t[1] + m * shear[0]) % 2,
            (mat[1][0] * t[0] + mat[1][1] * t[1] + m * shear[1]) % 2,
        )
        return (sign * m, new_t)

    autos = []
    for sign in (1, -1):
        for r1, r2 in itertools.product([(1, 0), (0, 1), (1, 1)], repeat=2):
            if (r1[0] * r2[1] - r1[1] * r2[0]) % 2 == 1:
                for shear in itertools.product((0, 1), repeat=2):
                    autos.append((sign, (r1, r2), shear))
    target_sorted = sorted(target)
    for auto in autos:
        if sorted(apply(auto, d) for d in ours) == target_sorted:
            return True
    return False


class TestClassGroup:
    def test_hpt(self):
        g = class_group(hpt())
        assert g.describe() == (1, (2, 2))
        ours = [(g.ray_degree(i).free[0], g.ray_degree(i).torsion) for i in range(6)]
        assert automorphism_orbit_match(ours, HPT_DEGREES)

    def test_schreieder_3(self):
        data = schreieder(3)
        g = class_group(data.polytope)
        assert g.describe() == (1, (2, 2, 2))
        ample = g.ample_class()
        assert abs(ample.free[0]) == 10 and all(t == 0 for t in ample.torsion)

    def test_non_fano_free(self):
        p = hull([(1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 2, 0), (1, 2, 0), (2, 1, 0), (-6, -6, 2)])
        g = class_group(p)
        assert g.describe() == (4, ())

    def test_dilated_simplex(self):
        g = class_group(dilate(simplex(3), 4))
        assert g.describe() == (1, ())
        assert abs(g.ample_class().free[0]) == 4

    def test_principal_divisors_vanish(self):
        p = dilate(simplex(3), 2)
        g = class_group(p)
        for m in [(1, 0, 0), (0, 1, 0), (2, -1, 3)]:
            coeffs = [sum(a * b for a, b in zip(m, u)) for u in g.fan.rays]
            assert g.degree(coeffs) == g.degree([0] * g.fan.n_rays)

    @pytest.mark.parametrize("i", [9, -1, True])
    def test_ray_degree_rejects_an_index_that_names_no_ray(self, i):
        g = class_group(hull([(0, 0), (2, 0), (0, 2)]))
        with pytest.raises(DegenerateInputError, match=rf"^ray index must be an int in 0\.\.2, got {i!r}$"):
            g.ray_degree(i)

    def test_fan_and_group_are_built_once_per_polytope(self, monkeypatch):
        calls = []
        smith_form = toric_module.smith_form

        def counted(m):
            calls.append(m)
            return smith_form(m)

        monkeypatch.setattr(toric_module, "smith_form", counted)
        p = hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)])
        assert normal_fan(p) is normal_fan(p)
        assert class_group(p) is class_group(p)
        assert class_group(p).fan is normal_fan(p)
        assert len(calls) == 1

    def test_degree_rejects_floats_and_bools(self):
        g = class_group(simplex(2))
        for coeffs in ([0.5, 1, True], [1.0, 0, 0], [True, 0, 0], [Fraction(1, 2), 0, 0]):
            with pytest.raises(DegenerateInputError, match=r"^divisor coefficient vector must have integer entries, got \["):
                g.degree(coeffs)
        assert g.degree([Fraction(2), 0, -1]) == g.degree((2, 0, -1))

    def test_rank_nullity(self):
        rng = random.Random(23)
        for _ in range(8):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 3)])
            if p.dim() != d:
                continue
            g = class_group(p)
            assert g.free_rank + d == g.fan.n_rays
