"""Bad input is rejected, never coerced or truncated: one row per routine and bad argument.

Each row is a public routine, a bad argument and the error class it must
raise.  A float or a bool is never an int, a point or a vector of the wrong
length never meets a shorter one in a zip, an int where a sequence is
expected raises a package error rather than TypeError, and an index or a
family parameter outside its range is named, not looked up.  A case that an older
test of its routine already pins is not repeated here.
"""

from fractions import Fraction
from itertools import product

import pytest

from sbvol import dd
from sbvol.conditionm import check_condition_m, reduced_witnesses, sections_of_class
from sbvol.errors import DegenerateInputError, DimensionMismatchError, InvalidParameterError
from sbvol.families import (
    bounds_table,
    builtin_seed_registry,
    containment_certificate,
    dilated_simplex,
    double_cone,
    exponent_tuples,
    extend_schreieder,
    hpt,
    kollar_totaro,
    schreieder,
    simplex_product,
    standard_simplex,
)
from sbvol.hodge import e_p0_open, h_p0_compact
from sbvol.intlinalg import adjugate
from sbvol.polytope import (
    AffineChart,
    AffineUnimodularMap,
    RationalPolytope,
    cartesian_product,
    convex_union,
    dilate,
    hull,
    translate,
    unimodular_equivalence,
)
from sbvol.ledger import SeedRegistry, classify_cell, dim4_pipeline, volume_ledger
from sbvol.subdivision import (
    distance_height,
    interior_cells,
    lies_in_boundary,
    make_subdivision,
    min_squared_distance,
    regular_subdivision,
    staged_distance_height,
    validate,
)
from sbvol.toric import (
    class_group,
    divisor_polytope,
    facet_shift,
    fine_interior,
    normal_fan,
    ord_value,
)

SQUARE = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = hull([(0, 0), (1, 0), (0, 1)])
CUBE = hull(list(product((0, 1), repeat=3)))
STRIP = [((1, 0), 0), ((-1, 0), -1)]  # 0 <= x <= 1 in Q^2
FLAT = hull([(0, 0, 0, 0, 0), (4, 0, 0, 0, 0), (0, 4, 0, 0, 0), (0, 0, 4, 0, 0)])  # a 3-chart in Z^5

EYE2 = ((1, 0), (0, 1))

Deg, Dim, Par = DegenerateInputError, DimensionMismatchError, InvalidParameterError

ROWS = [
    # a point of a polytope's space
    ("contains-bool", lambda: SQUARE.contains((True, 0)), Deg),
    ("boundary-longer-point", lambda: lies_in_boundary(SQUARE, [(0, 0, 7)]), Dim),
    ("boundary-shorter-point", lambda: lies_in_boundary(SQUARE, [(0,)]), Dim),
    ("boundary-float", lambda: lies_in_boundary(SQUARE, [(0.0, 0)]), Deg),
    ("contains-int", lambda: SQUARE.contains(5), Deg),
    ("map-apply-int", lambda: AffineUnimodularMap.identity(2).apply(5), Deg),
    ("map-apply-float-bool", lambda: AffineUnimodularMap.identity(2).apply((0.5, True)), Deg),
    ("distance-int", lambda: min_squared_distance(SQUARE, 5), Deg),
    ("boundary-int-point", lambda: lies_in_boundary(SQUARE, [5]), Deg),
    ("boundary-int-points", lambda: lies_in_boundary(SQUARE, 5), Deg),
    ("to-chart-shorter-point", lambda: FLAT.chart().to_chart((1, 1, 1)), Dim),
    ("from-chart-shorter-point", lambda: FLAT.chart().from_chart((1, 1)), Dim),
    ("from-chart-longer-point", lambda: FLAT.chart().from_chart((1, 1, 1, 1)), Dim),
    ("identity-to-chart-longer-point", lambda: SQUARE.chart().to_chart((0, 0, 7)), Dim),
    ("identity-from-chart-shorter-point", lambda: SQUARE.chart().from_chart((0,)), Dim),
    ("pipeline-small-space", lambda: dim4_pipeline(FLAT, CUBE, builtin_seed_registry()), Dim),
    # a sequence where an int is given
    ("hull-int", lambda: hull(5), Deg),
    ("hull-int-points", lambda: hull([5, 6]), Deg),
    ("translate-int", lambda: translate(SQUARE, 3), Deg),
    ("dual-vector-int", lambda: ord_value(SQUARE, 3), Deg),
    ("halfspaces-int", lambda: RationalPolytope(2, 5), Deg),
    ("halfspace-int-normal", lambda: RationalPolytope(2, [(1, 0)]), Deg),
    ("divisor-int", lambda: class_group(SQUARE).degree(5), Deg),
    ("map-int-linear", lambda: AffineUnimodularMap(5, (0,)), Deg),
    ("product-int-factor", lambda: simplex_product([5]), Par),
    ("halfspace-int", lambda: RationalPolytope(2, [5]), Deg),
    ("cone-pairs-int", lambda: double_cone(SQUARE, 5), Deg),
    ("cone-pair-int", lambda: double_cone(SQUARE, [5]), Deg),
    ("extension-steps-int", lambda: extend_schreieder(schreieder(3), 5), Par),
    ("extension-step-int", lambda: extend_schreieder(schreieder(3), [5]), Par),
    ("stages-int", lambda: staged_distance_height(SQUARE, hull([(0, 0)]), 5), Deg),
    ("subdivision-cells-int", lambda: make_subdivision(SQUARE, 5), Deg),
    ("subdivision-heights-int", lambda: make_subdivision(SQUARE, [SQUARE], 5), Deg),
    ("regular-heights-int", lambda: regular_subdivision(SQUARE, 5), Deg),
    ("divisor-polytope-int", lambda: divisor_polytope(normal_fan(SQUARE), 5), Deg),
    ("bounds-table-int", lambda: bounds_table(5), Par),
    # a pair
    ("halfspace-triple", lambda: RationalPolytope(2, [((1, 0), 0, 3)]), Deg),
    ("halfspace-single", lambda: RationalPolytope(2, [((1, 0),)]), Deg),
    ("cone-triple", lambda: double_cone(SQUARE, [((0, 0, 1), (0, 0, -1), (1, 1, 1))]), Deg),
    # a polytope, a subdivision, a map or a class group
    ("subdivision-cell-int", lambda: make_subdivision(SQUARE, [5]), Deg),
    ("equivalence-int", lambda: unimodular_equivalence(SQUARE, 5), Deg),
    ("map-apply-polytope-int", lambda: AffineUnimodularMap.identity(2).apply_polytope(5), Deg),
    ("containment-int-polytope", lambda: containment_certificate(5, SQUARE), Deg),
    ("containment-int-map", lambda: containment_certificate(SQUARE, SQUARE, 5), Deg),
    ("ledger-int-subdivision", lambda: volume_ledger(SQUARE, 5), Deg),
    ("ledger-int-polytope", lambda: volume_ledger(5, make_subdivision(SQUARE, [SQUARE])), Deg),
    ("ledger-int-seeds", lambda: volume_ledger(SQUARE, make_subdivision(SQUARE, [SQUARE]), 5), Deg),
    ("classify-int-seeds", lambda: classify_cell(kollar_totaro(3, 4), 5), Deg),
    ("validate-int", lambda: validate(5), Deg),
    ("interior-cells-int", lambda: interior_cells(5), Deg),
    ("reduced-witnesses-int", lambda: reduced_witnesses(5), Deg),
    ("facet-shift-int-polytope", lambda: facet_shift(5, 0), Deg),
    ("fine-interior-int", lambda: fine_interior(5), Deg),
    ("normal-fan-int", lambda: normal_fan(5), Deg),
    ("class-group-int", lambda: class_group(5), Deg),
    ("condition-m-int", lambda: check_condition_m(5), Deg),
    ("sections-int", lambda: sections_of_class(5, []), Deg),
    ("hodge-int", lambda: h_p0_compact(5), Deg),
    ("classify-cell-int", lambda: classify_cell(5), Deg),
    ("regular-int", lambda: regular_subdivision(5, {}), Deg),
    ("boundary-int-polytope", lambda: lies_in_boundary(5, [(0, 0)]), Deg),
    ("ord-value-int", lambda: ord_value(5, (1, 0)), Deg),
    ("dilate-int", lambda: dilate(5, 2), Deg),
    ("translate-int-polytope", lambda: translate(5, (1, 0)), Deg),
    ("product-int", lambda: cartesian_product(SQUARE, 5), Deg),
    ("union-int", lambda: convex_union(SQUARE, 5), Deg),
    ("cone-int-polytope", lambda: double_cone(5, []), Deg),
    ("distance-height-int", lambda: distance_height(5, SQUARE), Deg),
    ("e-open-int", lambda: e_p0_open(5, 0), Deg),
    ("seed-register-int", lambda: SeedRegistry().register("x", 5, ""), Deg),
    ("seed-match-int", lambda: builtin_seed_registry().match(5), Deg),
    ("pipeline-int-big", lambda: dim4_pipeline(5, TRIANGLE, builtin_seed_registry()), Deg),
    ("pipeline-int-small", lambda: dim4_pipeline(SQUARE, 5, builtin_seed_registry()), Deg),
    ("pipeline-int-seeds", lambda: dim4_pipeline(SQUARE, TRIANGLE, 5), Deg),
    # an integer vector
    ("hull-float", lambda: hull([(0, 0), (0.5, 0)]), Deg),
    ("translate-float", lambda: translate(SQUARE, (1.5, 0)), Deg),
    ("translate-bool", lambda: translate(SQUARE, (True, 0)), Deg),
    ("translate-length", lambda: translate(SQUARE, (1, 0, 0)), Dim),
    ("normal-too-short", lambda: RationalPolytope(3, STRIP), Dim),
    ("normal-too-long", lambda: RationalPolytope(2, [((1, 0, 7), 0)]), Dim),
    ("ambient-float", lambda: RationalPolytope(2.5, []), Deg),
    ("ambient-bool", lambda: RationalPolytope(True, []), Deg),
    ("ambient-negative", lambda: RationalPolytope(-1, []), Deg),
    ("dual-vector-length", lambda: ord_value(SQUARE, (1,)), Dim),
    ("dual-vector-float", lambda: ord_value(SQUARE, (1.0, 0)), Deg),
    ("containment-spaces", lambda: containment_certificate(SQUARE, CUBE), Dim),
    ("containment-map", lambda: containment_certificate(CUBE, CUBE, AffineUnimodularMap.identity(2)), Dim),
    ("subdivision-cell-space", lambda: make_subdivision(SQUARE, [CUBE]), Dim),
    ("simplex-facets-ragged", lambda: dd.simplex_facets([(0, 0), (1, 0), (0, 1, 0)]), Dim),
    ("simplex-facets-no-point", lambda: dd.simplex_facets([]), Deg),
    ("simplex-facets-one-point", lambda: dd.simplex_facets([()]), Deg),
    ("facet-normals-ragged", lambda: dd.facet_normals_from_points([(0, 0), (1, 0), (0, 1), (1, 1, 0)]), Dim),
    # a square matrix of ints
    ("adjugate-wide", lambda: adjugate([[1, 2, 3], [4, 5, 6]]), Deg),
    ("adjugate-tall", lambda: adjugate([[1], [2]]), Deg),
    ("adjugate-ragged", lambda: adjugate([[1, 2], [3]]), Deg),
    ("adjugate-float", lambda: adjugate([[1.5, 0], [0, 1]]), Deg),
    ("adjugate-bool", lambda: adjugate([[True, 0], [0, 1]]), Deg),
    ("adjugate-fraction", lambda: adjugate([[Fraction(1, 2), 0], [0, 1]]), Deg),
    ("adjugate-int-row", lambda: adjugate([5]), Deg),
    # an index or a dimension in a range
    ("face-dim-range", lambda: SQUARE.faces(3), Deg),
    ("facet-shift-float", lambda: facet_shift(SQUARE, 1.0), Deg),
    ("facet-shift-bool", lambda: facet_shift(SQUARE, True), Deg),
    ("facet-shift-false", lambda: facet_shift(SQUARE, False), Deg),
    ("facet-shift-range", lambda: facet_shift(SQUARE, 4), Deg),
    ("ray-degree-float", lambda: class_group(SQUARE).ray_degree(0.0), Deg),
    ("dilate-float", lambda: dilate(SQUARE, 1.5), Deg),
    ("dilate-fraction", lambda: dilate(SQUARE, Fraction(3, 2)), Deg),
    ("dilate-integral-fraction", lambda: dilate(SQUARE, Fraction(2)), Deg),
    ("dilate-bool", lambda: dilate(SQUARE, True), Deg),
    ("dilate-negative", lambda: dilate(SQUARE, -1), Deg),
    ("dd-dim-negative", lambda: dd.extreme_rays([], -1), Par),
    ("dd-dim-bool", lambda: dd.extreme_rays([(1,)], True), Par),
    ("dd-dim-float", lambda: dd.extreme_rays([(1,)], 1.0), Par),
    # a budget
    ("witness-budget-float", lambda: reduced_witnesses(class_group(hpt()), budget=2.5), Par),
    ("witness-budget-bool", lambda: reduced_witnesses(class_group(hpt()), budget=True), Par),
    ("witness-budget-negative", lambda: reduced_witnesses(class_group(hpt()), budget=-1), Par),
    # a family parameter
    ("standard-simplex-negative", lambda: standard_simplex(-2), Par),
    ("exponent-tuples-negative", lambda: exponent_tuples(-1), Par),
    ("product-short-factor", lambda: simplex_product([(1,)]), Par),
    ("product-long-factor", lambda: simplex_product([(1, 2, 3)]), Par),
    ("product-no-factor", lambda: simplex_product([]), Par),
    ("dilated-simplex-float-d", lambda: dilated_simplex(1.5, 2), Par),
    ("dilated-simplex-float-n", lambda: dilated_simplex(2, 1.5), Par),
    ("dilated-simplex-bool-d", lambda: dilated_simplex(True, 2), Par),
    ("dilated-simplex-bool-n", lambda: dilated_simplex(2, True), Par),
    ("dilated-simplex-zero", lambda: dilated_simplex(0, 2), Par),
    # a flag: only a bool, never a truthy string or an int
    ("ledger-check-str", lambda: volume_ledger(SQUARE, make_subdivision(SQUARE, [SQUARE]), check="no"), Par),
    ("ledger-check-int", lambda: volume_ledger(SQUARE, make_subdivision(SQUARE, [SQUARE]), check=0), Par),
    ("interior-only-str", lambda: SQUARE.lattice_points(interior_only="no"), Par),
    ("interior-only-none", lambda: SQUARE.lattice_points(interior_only=None), Par),
    # the fields of a chart
    ("chart-no-basis-no-transform", lambda: AffineChart(2, 1, (0, 0), ()), Deg),
    ("chart-short-base", lambda: AffineChart(2, 1, (0,), ((1, 0),), EYE2), Deg),
    ("chart-int-base", lambda: AffineChart(2, 1, 0, ((1, 0),), EYE2), Deg),
    ("chart-missing-basis-row", lambda: AffineChart(2, 1, (0, 0), (), EYE2), Deg),
    ("chart-extra-basis-row", lambda: AffineChart(2, 1, (0, 0), EYE2, EYE2), Deg),
    ("chart-short-basis-row", lambda: AffineChart(2, 1, (0, 0), ((1,),), EYE2), Deg),
    ("chart-no-transform", lambda: AffineChart(2, 1, (0, 0), ((1, 0),)), Deg),
    ("chart-short-transform", lambda: AffineChart(2, 1, (0, 0), ((1, 0),), ((1, 0),)), Deg),
    ("chart-ragged-transform", lambda: AffineChart(2, 1, (0, 0), ((1, 0),), ((1, 0), (0,))), Deg),
    ("chart-dim-over-ambient", lambda: AffineChart(1, 2, (0,), ((1,), (1,)), ((1,),)), Deg),
    ("chart-float-dim", lambda: AffineChart(2, 1.0, (0, 0), ((1, 0),), EYE2), Deg),
]


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=name) for name, c, e in ROWS])
def test_bad_input_is_rejected(call, error):
    with pytest.raises(error):
        call()


def test_a_ragged_point_is_named_with_its_space():
    for route in (dd.simplex_facets, dd.facet_normals_from_points):
        with pytest.raises(Dim, match=r"point \(0, 1, 0\) is not in Z\^2"):
            route([(0, 0), (1, 0), (0, 1, 0)])
    with pytest.raises(Dim, match=r"point \(1, 1, 0\) is not in Z\^2"):
        dd.facet_normals_from_points([(0, 0), (1, 0), (0, 1), (1, 1, 0)])


def test_the_rejected_values_are_valid_one_step_away():
    # The rows fail on their bad argument, not on the fixtures around it.
    assert SQUARE.contains((Fraction(1, 2), 0)) and not lies_in_boundary(SQUARE, [(Fraction(1, 2),) * 2])
    assert translate(SQUARE, (1, 0)).vertices[0] == (1, 0)
    assert RationalPolytope(2, STRIP).contains((0, 5))
    assert ord_value(SQUARE, (1, 0)) == 0 and ord_value(SQUARE, (Fraction(1), 0)) == 0
    assert containment_certificate(SQUARE, dilate(SQUARE, 2)).contained
    assert standard_simplex(0).vertices == ((),) and simplex_product([(1, 2)]) == dilated_simplex(1, 2)
    assert dilate(SQUARE, 0).vertices == ((0, 0),) and len(SQUARE.faces(2)) == 1
    assert facet_shift(SQUARE, 3).vertices() and exponent_tuples(2) == [(0, 0)]
    assert dd.extreme_rays([], 0) == ([], [], []) and dd.extreme_rays([(1,)], 1) == ([(1,)], [], [0])
    assert dd.simplex_facets([(0, 0), (1, 0), (0, 1)])[0] == 1 and dd.simplex_facets([(0,), (3,)])[0] == 3
    assert adjugate([]) == (1, []) and adjugate([[3, 0], [0, 1]]) == (3, [[1, 0], [0, 3]])
    assert len(dd.facet_normals_from_points([(0, 0), (1, 0), (0, 1), (1, 1)])[0]) == 4
    assert RationalPolytope(2, [((1, 0), 0)]).contains((0, 5))
    assert double_cone(SQUARE, [((0, 0, 1), (0, 0, -1))]).polytope.dim() == 3
    assert extend_schreieder(schreieder(3), [(0, 0, 1)]).ambient_dim == 11
    assert AffineUnimodularMap.identity(2).apply((Fraction(1, 2), 1)) == (Fraction(1, 2), 1)
    assert AffineUnimodularMap.identity(2).apply_polytope(SQUARE) == SQUARE
    assert FLAT.chart().from_chart(FLAT.chart().to_chart((1, 1, 1, 0, 0))) == (1, 1, 1, 0, 0)
    assert SQUARE.chart().from_chart(SQUARE.chart().to_chart((Fraction(1, 2), 1))) == (Fraction(1, 2), 1)
    assert AffineChart(2, 1, (0, 0), ((1, 0),), EYE2).from_chart((5,)) == (5, 0)
    assert AffineChart(2, 2, (1, 1), EYE2, EYE2).to_chart((3, 1)) == (2, 0)  # a shift chart
    assert AffineChart.for_points([(1, 1), (3, 1), (1, 2)]) == AffineChart(2, 2, (1, 1), EYE2, EYE2)
    assert AffineChart.identity(0).to_chart(()) == () and FLAT.chart().dim == 3
    assert unimodular_equivalence(SQUARE, SQUARE).found and normal_fan(SQUARE).n_rays == 4
    assert containment_certificate(SQUARE, SQUARE, AffineUnimodularMap.identity(2)).contained
    assert validate(make_subdivision(SQUARE, [SQUARE])).ok
    assert staged_distance_height(SQUARE, hull([(0, 0)]), [])[(1, 1)] == 2
    assert len(make_subdivision(SQUARE, [SQUARE], {(0, 0): 0}).maximal_cells) == 1
    assert len(regular_subdivision(SQUARE, dict.fromkeys(SQUARE.lattice_points(), 0)).maximal_cells) == 1
    assert classify_cell(TRIANGLE).justification == "lattice width one"
    assert volume_ledger(SQUARE, make_subdivision(SQUARE, [SQUARE]), check=False).describe() == "1*[point]"
    assert SQUARE.lattice_points(interior_only=True) == () and len(SQUARE.lattice_points(interior_only=False)) == 4
    assert divisor_polytope(normal_fan(SQUARE), [0, 0, 1, 1]).vertices()
    assert bounds_table([3])[0][0].n == 3
    assert cartesian_product(SQUARE, TRIANGLE).dim() == 4 and convex_union(SQUARE, TRIANGLE) == SQUARE
    assert double_cone(SQUARE, []).polytope == SQUARE and distance_height(SQUARE, SQUARE)[(1, 1)] == 0
    assert isinstance(e_p0_open(SQUARE, 0), int) and builtin_seed_registry().match(SQUARE) is None
