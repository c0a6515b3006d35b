import random
from fractions import Fraction
from math import comb

import pytest

from sbvol.errors import DegenerateInputError
from sbvol.hodge import e_p0_open, h_p0_compact
from sbvol.polytope import dilate, hull
from sbvol.toric import fine_interior


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


class TestOpenInvariants:
    def test_top_degree_is_interior_count(self):
        assert e_p0_open(dilate(simplex(3), 4), 2) == 1

    def test_middle_degree_binomial(self):
        # faces of dimension 2 of the dilated triangle: the triangle itself
        assert abs(e_p0_open(dilate(simplex(2), 4), 1)) == comb(3, 2)

    def test_no_interior_faces(self):
        assert e_p0_open(dilate(simplex(3), 2), 2) == 0

    def test_out_of_range(self):
        with pytest.raises(DegenerateInputError):
            e_p0_open(simplex(2), 5)

    @pytest.mark.parametrize("degree", [True, 1.0, Fraction(1)])
    def test_degree_that_is_not_an_int_raises(self, degree):
        with pytest.raises(DegenerateInputError, match=r"^degree must be an int in 0\.\.2, got .+$"):
            e_p0_open(dilate(simplex(3), 4), degree)


class TestCompactRow:
    def test_quartic_surface(self):
        row = h_p0_compact(dilate(simplex(3), 4))
        assert row.values == (1, 0, 1)
        assert row.agree

    def test_hollow(self):
        row = h_p0_compact(dilate(simplex(3), 2))
        assert row.values == (1, 0, 0)
        assert row.agree

    def test_quintic_surface(self):
        row = h_p0_compact(dilate(simplex(3), 5))
        assert row.values == (1, 0, comb(4, 3))
        assert row.agree

    def test_binomial_sweep(self):
        for n in range(2, 7):
            for d in range(1, 7):
                row = h_p0_compact(dilate(simplex(n), d))
                expected = tuple([1] + [0] * (n - 2) + [comb(d - 1, n)])
                assert row.values == expected
                assert row.agree, (n, d, row)

    def test_plane_curves(self):
        # conic: genus 0; cubic: genus 1; quartic curve: genus 3
        assert h_p0_compact(dilate(simplex(2), 2)).values == (1, 0)
        assert h_p0_compact(dilate(simplex(2), 3)).values == (1, 1)
        assert h_p0_compact(dilate(simplex(2), 4)).values == (1, 3)

    def test_face_sum_on_random_polytopes(self):
        rng = random.Random(51)
        done = 0
        while done < 10:
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 3)])
            if p.dim() != d:
                continue
            row = h_p0_compact(p)
            assert row.agree, p.vertices
            assert row.values[-1] == p.n_interior_points()
            done += 1


class TestDim3Rule:
    """Up to dimension three the section is rational exactly when the Fine interior is empty.

    In dimension three it is then a surface ruled over a curve of genus
    h^{1,0}, which the face sum must report as zero.
    """

    def test_hollow_surface_rational(self):
        assert fine_interior(dilate(simplex(2), 2)).is_empty

    def test_general_type_not_rational(self):
        assert not fine_interior(hull([(0, 2, 2), (1, 3, 0), (2, 4, 3), (3, 0, 1)])).is_empty

    def test_width_one_rational_with_genus_zero(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert fine_interior(p).is_empty and h_p0_compact(p).by_face_sum[1] == 0

    def test_genus_zero_whenever_fine_interior_empty(self):
        rng = random.Random(52)
        done = 0
        while done < 10:
            p = hull([tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(6)])
            if p.dim() != 3:
                continue
            if fine_interior(p).is_empty:
                assert h_p0_compact(p).by_face_sum[1] == 0
            done += 1
