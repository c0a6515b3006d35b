import itertools
import random

import pytest

from sbvol import conditionm, polytope, toric, verification
from sbvol.conditionm import (
    check_condition_m,
    cross_check_unrestricted,
    sections_of_class,
)
from sbvol.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
)
from sbvol.families import cubic_empty, hpt, kollar_totaro, schreieder, tpq
from sbvol.intlinalg import dot
from sbvol.polytope import dilate, hull
from sbvol.toric import class_group, divisor_polytope, facet_shift, normal_fan


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


def match_up_to_permutation(got, expected):
    n = len(expected[0])
    got_set = set(got)
    expected_set = set(expected)
    for perm in itertools.permutations(range(n)):
        if {tuple(w[j] for j in perm) for w in got_set} == expected_set:
            return True
    return False


class TestConditionM:
    def test_budget_error_names_the_enumeration(self):
        with pytest.raises(
            ResourceLimitError,
            match=r"^reduced_witnesses: integer point scan spent 2 nodes, over its budget of 1"
            r" \(dimension 6, 2 constraints\)$",
        ):
            check_condition_m(hpt(), budget=1)

    def test_unrestricted_budget_caps_the_lattice_point_scan(self):
        with pytest.raises(
            ResourceLimitError,
            match=r"^LatticePolytope.lattice_points: integer point scan spent 11 nodes, over its"
            r" budget of 10 \(dimension 5, 6 constraints\)$",
        ):
            check_condition_m(hpt(), mode="unrestricted", budget=10)
        assert check_condition_m(hpt(), mode="unrestricted", budget=40).holds

    @pytest.mark.parametrize("mode", ["reduced", "unrestricted"])
    def test_budget_that_is_not_a_nonnegative_int_raises_in_either_mode(self, mode):
        for budget in (-1, True, 2.5):
            with pytest.raises(InvalidParameterError, match=rf"^check_condition_m: budget must be an int >= 0, got {budget!r}$"):
                check_condition_m(hpt(), mode=mode, budget=budget)

    def test_unknown_mode_raises_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a fan or a class group for an unknown mode")

        monkeypatch.setattr(conditionm, "normal_fan", refuse)
        monkeypatch.setattr(conditionm, "class_group", refuse)
        with pytest.raises(InvalidParameterError, match=r"^unknown mode 'square-free'"):
            check_condition_m(hpt(), mode="square-free")

    def test_hpt_holds(self):
        rep = check_condition_m(hpt())
        assert rep.holds
        group = rep.group
        for i, w in enumerate(rep.witnesses):
            assert w[i] >= 1
            assert all(x in (0, 1) for x in w)
            assert group.degree(w) == group.ample_class()

    def test_dilated_simplex_threshold(self):
        # reduced mode needs d distinct variables among n+1
        for n in (2, 3, 4):
            for d in range(1, n + 3):
                rep = check_condition_m(dilate(simplex(n), d))
                assert rep.holds == (d <= n + 1), (n, d)

    def test_singular_empty_simplex_fails(self):
        rep = check_condition_m(tpq(1, 2))
        assert not rep.holds

    def test_unimodular_simplex_holds(self):
        rep = check_condition_m(simplex(3))
        assert rep.holds

    def test_unrestricted_dilated_simplex_always(self):
        for d in (1, 3, 6):
            rep = check_condition_m(dilate(simplex(3), d), mode="unrestricted")
            assert rep.holds

    def test_reduced_implies_unrestricted(self):
        rng = random.Random(31)
        done = 0
        while done < 10:
            dim = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(dim + 2)])
            if p.dim() != dim:
                continue
            r1 = check_condition_m(p, mode="reduced")
            r2 = check_condition_m(p, mode="unrestricted")
            if r1.holds:
                assert r2.holds
            done += 1


class TestSections:
    def test_hpt_sections_are_the_twelve_monomials(self):
        expected = [
            (2, 0, 0, 0, 0, 0),
            (0, 4, 0, 0, 0, 0),
            (0, 0, 2, 0, 0, 0),
            (0, 0, 0, 4, 0, 0),
            (0, 0, 0, 0, 4, 0),
            (0, 0, 0, 0, 0, 2),
            (1, 1, 0, 1, 0, 0),
            (0, 0, 0, 1, 1, 1),
            (0, 1, 1, 0, 1, 0),
            (0, 2, 0, 0, 2, 0),
            (0, 0, 0, 2, 2, 0),
            (0, 2, 0, 2, 0, 0),
        ]
        p = hpt()
        fan = normal_fan(p)
        secs = sections_of_class(p, fan.ample_coefficients())
        assert len(secs) == 12
        assert match_up_to_permutation([w for _, w in secs], expected)

    def test_float_and_bool_coefficients_rejected(self):
        for coeffs in ([0.5, 2.0, True], [0, 0, True], [1.0, 0, 0]):
            with pytest.raises(DegenerateInputError, match=r"^divisor coefficient vector must have integer entries, got \["):
                sections_of_class(simplex(2), coeffs)
        assert sections_of_class(simplex(2), [0, 0, 1]) == sections_of_class(simplex(2), (0, 0, 1))

    def test_wrong_length_raises_one_error_everywhere(self):
        p = simplex(2)
        calls = (
            lambda: class_group(p).degree([1, 2]),
            lambda: divisor_polytope(normal_fan(p), [1, 2]),
            lambda: sections_of_class(p, [1, 2]),
        )
        for call in calls:
            with pytest.raises(DimensionMismatchError, match=r"^divisor coefficient vector must have length 3, got \(1, 2\)$"):
                call()

    def test_zero_divisor_single_section(self):
        p = dilate(simplex(2), 3)
        fan = normal_fan(p)
        secs = sections_of_class(p, [0] * fan.n_rays)
        assert len(secs) == 1
        assert secs[0][0] == (0, 0)

    def test_non_simplicial_example(self):
        expected = [
            (0, 0, 0, 0, 1, 2),
            (0, 0, 1, 1, 0, 1),
            (1, 1, 0, 0, 1, 0),
            (0, 1, 0, 2, 0, 0),
            (1, 0, 2, 0, 0, 0),
        ]
        p = hull([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        fan = normal_fan(p)
        assert fan.n_rays == 6
        secs = sections_of_class(p, fan.ample_coefficients())
        assert len(secs) == 5
        assert match_up_to_permutation([w for _, w in secs], expected)
        rep = check_condition_m(p)
        assert rep.holds

    def test_non_fano_example_condition_m(self):
        p = hull([(1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 2, 0), (1, 2, 0), (2, 1, 0), (-6, -6, 2)])
        assert check_condition_m(p).holds


class TestCrossCheck:
    def test_dilated_simplices(self):
        for d in (1, 2, 4):
            p = dilate(simplex(3), d)
            fan = normal_fan(p)
            for i in range(fan.n_rays):
                res = cross_check_unrestricted(p, i)
                assert res.agree and res.exists_by_polytope

    def test_hpt_agrees(self):
        p = hpt()
        fan = normal_fan(p)
        for i in range(fan.n_rays):
            assert cross_check_unrestricted(p, i).agree

    def test_singular_simplex_agrees(self):
        p = tpq(1, 2)
        fan = normal_fan(p)
        for i in range(fan.n_rays):
            assert cross_check_unrestricted(p, i).agree

    def test_one_smith_form_across_all_rays(self, monkeypatch):
        calls = []
        smith_form = toric.smith_form

        def counted(m):
            calls.append(m)
            return smith_form(m)

        monkeypatch.setattr(toric, "smith_form", counted)
        for p in (hpt(), tpq(1, 2)):
            before = len(calls)
            for i in range(normal_fan(p).n_rays):
                cross_check_unrestricted(p, i)
            assert len(calls) - before == 1

    def test_budget_error_names_the_cross_check(self, monkeypatch):
        p = hpt()
        monkeypatch.setattr(polytope, "DEFAULT_POINT_BUDGET", 1)
        with pytest.raises(
            ResourceLimitError,
            match=r"^cross_check_unrestricted: integer point scan spent 2 nodes, over its budget of 1"
            r" \(dimension 6, 2 constraints\)$",
        ):
            cross_check_unrestricted(p, 0)

    @pytest.mark.parametrize("ray_index", [6, 99, -1, -7])
    def test_ray_index_out_of_range_raises_before_any_search(self, ray_index, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched for a witness on a ray that does not exist")

        monkeypatch.setattr(conditionm, "class_group", refuse)
        monkeypatch.setattr(conditionm, "integer_points", refuse)
        p = hpt()
        with pytest.raises(DegenerateInputError, match=r"^ray index must be an int in 0\.\.5, got -?\d+$"):
            cross_check_unrestricted(p, ray_index)

    @pytest.mark.parametrize("ray_index", [True, False, 1.0])
    def test_ray_index_that_is_not_an_int_raises_before_any_search(self, ray_index, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched for a witness on a ray index that is not an int")

        monkeypatch.setattr(conditionm, "class_group", refuse)
        monkeypatch.setattr(conditionm, "integer_points", refuse)
        with pytest.raises(DegenerateInputError, match=r"^ray index must be an int in 0\.\.5, got \S+$"):
            cross_check_unrestricted(hpt(), ray_index)

    def test_route_one_checks_its_hit(self, monkeypatch):
        # The unit triangle's ample divisor has coefficient 0 on the rays
        # through the origin: it is of ample degree but does not vanish there.
        p = simplex(2)
        fan = normal_fan(p)
        ray = fan.ample_coefficients().index(0)
        assert ray == 1

        def ample_vector(*args):
            yield fan.ample_coefficients()

        monkeypatch.setattr(conditionm, "_ample_exponents", ample_vector)
        with pytest.raises(
            InternalConsistencyError,
            match=r"^ray 1: witness \(1, 0, 0\) is not an ample section vanishing on it$",
        ):
            cross_check_unrestricted(p, ray)


class TestDefinitionChase:
    def test_sections_match_shifted_polytope_for_smooth(self):
        from sbvol.toric import facet_shift

        for d in (2, 4, 6):
            p = dilate(simplex(3), d)
            fan = normal_fan(p)
            ample = fan.ample_coefficients()
            for i in range(fan.n_rays):
                shifted = facet_shift(p, i)
                assert shifted.is_lattice()
                coeffs = list(ample)
                coeffs[i] -= 1
                secs = sections_of_class(p, coeffs)
                assert (len(secs) > 0) == (len(shifted.lattice_points()) > 0)


class TestUnrestrictedWitnessOracle:
    """Unrestricted witnesses are read off the lattice-point table.

    They were once the first lattice point of each ray's shifted divisor
    polytope, found by a double description and a scan per ray; that route
    is kept here as the oracle, and both must give the same witnesses.
    """

    @staticmethod
    def check(p):
        fan = normal_fan(p)
        ample = fan.ample_coefficients()
        witnesses = check_condition_m(p, mode="unrestricted").witnesses
        for i, w in enumerate(witnesses):
            pts = facet_shift(p, i).lattice_points()
            assert w == (tuple(dot(pts[0], u) + a for u, a in zip(fan.rays, ample)) if pts else None)

    @pytest.mark.parametrize(
        "build",
        [
            hpt,
            lambda: tpq(2, 5),
            lambda: kollar_totaro(3, 4),
            lambda: cubic_empty(3),
            lambda: dilate(simplex(3), 3),
            lambda: schreieder(3).polytope,
        ],
        ids=["hpt", "tpq(2,5)", "kollar_totaro(3,4)", "cubic_empty(3)", "3*simplex(3)", "schreieder(3)"],
    )
    def test_named_families(self, build):
        self.check(build())

    def test_criterion_11c_polytopes(self):
        rng = random.Random(verification.SEED + 2)
        for _ in range(50):
            self.check(verification._random_polytope(rng, rng.choice([2, 2, 3]), coord=2))
