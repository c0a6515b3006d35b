import pytest

from sbvol.errors import DegenerateInputError, InvalidParameterError
from sbvol.families import (
    bounds_table,
    build,
    builtin_seed_registry,
    containment_certificate,
    cubic_empty,
    dilated_simplex,
    divisor_23_certificate_map,
    divisor_23_double_cone,
    double_cone,
    double_cover,
    exponent_tuples,
    extend_schreieder,
    hpt,
    kollar_totaro,
    schreieder,
    simplex_product,
    standard_simplex,
    sum_identity,
    tpq,
)
from sbvol.polytope import AffineUnimodularMap, hull
from sbvol.subdivision import regular_subdivision, staged_distance_height, validate


@pytest.mark.parametrize(
    "call",
    [
        lambda: kollar_totaro(3.0, 4),
        lambda: tpq(2.0, 5),
        lambda: tpq(True, 3),
        lambda: cubic_empty(3.0),
        lambda: schreieder(3.0),
        lambda: sum_identity(3.0),
        lambda: exponent_tuples(2.0),
        lambda: bounds_table([3.0]),
        lambda: standard_simplex(2.0),
        lambda: double_cover(2, 1.0),
        lambda: double_cover(1.5, 2),
    ],
)
def test_family_parameters_that_are_not_ints_are_rejected(call):
    with pytest.raises(InvalidParameterError, match=r"^\w+: [dnpq] must be .*int.*, got (\d\.\d|True)$"):
        call()


class TestBuilders:
    def test_hpt_vertices(self):
        p = hpt()
        assert p.dim() == 5 and len(p.vertices) == 6
        assert (0, 0, 0, 0, 0) in p.vertices
        assert (2, 0, 0, 0, 0) in p.vertices
        assert (0, 1, 2, 0, 0) in p.vertices
        assert (1, 1, 0, 0, 2) in p.vertices

    def test_kollar_totaro_vertices(self):
        p = kollar_totaro(4, 4)
        assert (2, 0, 0, 0, 0) in p.vertices
        assert (0, 1, 0, 0, 0) in p.vertices
        assert (0, 3, 1, 0, 0) in p.vertices
        assert (0, 0, 0, 0, 3) in p.vertices
        assert p.classify().is_empty_simplex

    def test_cubic_empty(self):
        p = cubic_empty(5)
        assert p.classify().is_empty_simplex
        with pytest.raises(InvalidParameterError):
            cubic_empty(4)

    def test_tpq(self):
        p = tpq(3, 7)
        assert p.classify().is_empty_simplex
        assert p.lattice_width()[0] == 1
        with pytest.raises(InvalidParameterError):
            tpq(2, 4)

    def test_double_cover_polytope(self):
        p = double_cover(4, 5)
        assert p.dim() == 6
        assert (0, 0, 0, 0, 0, 2) in p.vertices
        assert len(p.vertices) == 7

    def test_dispatcher(self):
        assert build("dilated_simplex", 4, 3) == dilated_simplex(4, 3)
        with pytest.raises(InvalidParameterError):
            build("unknown_family")


class TestSchreieder:
    def test_vertex_inventory(self):
        data = schreieder(3)
        p = data.polytope
        assert p.ambient_dim == 10
        assert len(p.vertices) == 11 and p.is_simplex()
        assert tuple([0] * 10) in p.vertices
        for i in range(6):
            v = [0] * 10
            v[i] = 5
            assert tuple(v) in p.vertices
        # the zero tuple is pinned to the first extra coordinate
        v = [0] * 10
        v[6] = 2
        assert tuple(v) in p.vertices

    def test_rho_pinning(self):
        data = schreieder(3)
        assert data.rho[0] == (0, 0, 0)
        assert list(data.rho[1:]) == sorted(data.rho[1:])

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            schreieder(2)

    def test_contained_in_degree_simplex(self):
        data = schreieder(3)
        cert = containment_certificate(data.polytope, dilated_simplex(5, 10))
        assert cert.contained


def _sparse_vertices(p):
    """The sorted vertices of p, each as its nonzero (coordinate, value) pairs."""
    return sorted(tuple((i, x) for i, x in enumerate(v) if x) for v in p.vertices)


# The vertices of extend_schreieder's result, frozen when it still returned a
# record around the polytope: the record's deletion moved no vertex.
ONE_STEP_VERTICES = [
    (), ((0, 1), (9, 2)), ((0, 5),), ((1, 1), (8, 2)), ((1, 5),), ((2, 1), (7, 2), (10, 2)),
    ((2, 5),), ((3, 5),), ((4, 5),), ((5, 5),), ((6, 2),), ((7, 1),), ((10, 1),),
]
FULL_BUDGET_VERTICES = [
    (), ((0, 1), (9, 2), (13, 2)), ((0, 5),), ((1, 1), (8, 2), (12, 2)), ((1, 5),),
    ((2, 1), (7, 2), (11, 2)), ((2, 5),), ((3, 5),), ((4, 5),), ((5, 5),), ((6, 1),),
    ((6, 2), (10, 2)), ((7, 1),), ((8, 1),), ((9, 1),), ((10, 1),), ((11, 1),), ((12, 1),),
    ((13, 1),),
]
N4_VERTICES = [
    (), ((0, 1), (1, 1), (18, 2)), ((0, 1), (2, 1), (17, 2)), ((0, 1), (3, 1), (16, 2)),
    ((0, 1), (15, 2)), ((0, 6),), ((1, 1), (2, 1), (14, 2), (20, 2)), ((1, 1), (3, 1), (13, 2)),
    ((1, 1), (12, 2)), ((1, 6),), ((2, 1), (3, 1), (11, 2)), ((2, 1), (10, 2)), ((2, 6),),
    ((3, 1), (9, 2)), ((3, 6),), ((4, 6),), ((5, 6),), ((6, 6),), ((7, 6),), ((8, 1),),
    ((8, 1), (21, 1)), ((8, 2), (19, 2), (21, 2)), ((14, 1),), ((19, 1),), ((20, 1),),
    ((21, 1),),
]


class TestExtension:
    def test_one_step(self):
        data = schreieder(3)
        ext = extend_schreieder(data, [(0, 0, 1)])
        assert ext.ambient_dim == 11
        assert containment_certificate(ext, dilated_simplex(5, 11)).contained
        assert _sparse_vertices(ext) == ONE_STEP_VERTICES

    def test_budget_per_tuple(self):
        data = schreieder(3)
        with pytest.raises(InvalidParameterError):
            extend_schreieder(data, [(0, 0, 1), (0, 0, 1)])

    def test_full_budget(self):
        data = schreieder(3)
        steps = []
        for eps in exponent_tuples(3):
            steps += [eps] * ((3 - sum(eps)) // 2)
        assert len(steps) == 4  # 2^(n-2) (n-1) for n = 3
        ext = extend_schreieder(data, steps)
        assert ext.ambient_dim == 14
        assert containment_certificate(ext, dilated_simplex(5, 14)).contained
        assert _sparse_vertices(ext) == FULL_BUDGET_VERTICES

    def test_n4_sequence(self):
        # the zero tuple spends both of its steps, around a step of (0, 1, 1, 0)
        ext = extend_schreieder(schreieder(4), [(0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 0)])
        assert ext.ambient_dim == 22
        assert _sparse_vertices(ext) == N4_VERTICES

    def test_zero_steps(self):
        data = schreieder(3)
        ext = extend_schreieder(data, [])
        assert ext == data.polytope


def _extend_by_cone_and_shear(data, steps):
    """The extension as first built: per step, the double cone over the polytope with
    the pair e_new, e_col - e_new, then the shear x_new += x_col applied to it."""
    poly = data.polytope
    for eps in steps:
        cur, col = poly.ambient_dim, data.column_of(eps)
        e = lambda j: tuple(1 if i == j else 0 for i in range(cur + 1))
        minus = tuple(a - b for a, b in zip(e(col), e(cur)))
        coned = double_cone(poly, [(e(cur), minus)]).polytope
        rows = [e(i) for i in range(cur)] + [tuple(a + b for a, b in zip(e(cur), e(col)))]
        poly = AffineUnimodularMap(tuple(rows), tuple([0] * (cur + 1))).apply_polytope(coned)
    return poly


def _extend_step_by_step(data, steps):
    """The extension with one hull per step, each step's vertices checked
    against the degree budget before the next step lifts them."""
    poly = data.polytope
    for eps in steps:
        cur, col = poly.ambient_dim, data.column_of(eps)
        e = lambda j: tuple(1 if i == j else 0 for i in range(cur + 1))
        poly = hull([v + (v[col],) for v in poly.vertices] + [e(cur), e(col)])
        if any(min(v) < 0 or sum(v) > data.degree for v in poly.vertices):
            raise AssertionError("a step broke the nonnegative degree budget")
    return poly


def _budget_steps(n):
    return [eps for eps in exponent_tuples(n) for _ in range((n - sum(eps)) // 2)]


class TestExtensionOracle:
    """Each extension step is built as its image, and the steps carry points to one
    hull at the end; the cone-and-shear route and the hull per step are the oracles."""

    @pytest.mark.parametrize(
        "n, eps",
        [(n, eps) for n in (3, 4) for eps in exponent_tuples(n) if (n - sum(eps)) // 2 >= 1],
    )
    def test_every_single_step(self, n, eps):
        data = schreieder(n)
        ext = extend_schreieder(data, [eps])
        oracle = _extend_by_cone_and_shear(data, [eps])
        assert ext == oracle
        assert ext.facet_system() == oracle.facet_system()

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_full_budget_n3(self, order):
        data = schreieder(3)
        steps = _budget_steps(3)[::order]
        assert extend_schreieder(data, steps) == _extend_by_cone_and_shear(data, steps)

    @pytest.mark.parametrize(
        "n, count, order", [(3, 4, 1), (3, 4, -1), (4, 8, 1), (4, 8, -1)]
    )
    def test_one_hull_matches_a_hull_per_step(self, n, count, order):
        data = schreieder(n)
        steps = _budget_steps(n)[:count][::order]
        ext = extend_schreieder(data, steps)
        assert ext.vertices == _extend_step_by_step(data, steps).vertices


class TestDoubleCone:
    def test_zero_pairs(self):
        p = hull([(-1,), (1,)])
        dc = double_cone(p, [])
        assert dc.polytope == p

    def test_octahedron(self):
        p = hull([(-1,), (1,)])
        dc = double_cone(p, [((0, 1, 0), (0, -1, 0)), ((0, 0, 1), (0, 0, -1))])
        assert len(dc.polytope.vertices) == 6
        assert dc.polytope.dim() == 3

    def test_projection_condition(self):
        p = hull([(-1,), (1,)])
        with pytest.raises(DegenerateInputError):
            double_cone(p, [((0, 0, 1), (0, 0, -1)), ((0, 1, 0), (0, -1, 0))])

    def test_divisor23_polytope(self):
        dc = divisor_23_double_cone()
        assert len(dc.polytope.vertices) == 10
        assert dc.polytope.dim() == 7
        base = dc.embedded_base()
        assert all(dc.polytope.contains(v) for v in base.vertices)

    def test_divisor23_staged_subdivision_cells_width_one(self):
        dc = divisor_23_double_cone()
        heights = staged_distance_height(dc.polytope, dc.embedded_base(), dc.slices())
        s = regular_subdivision(dc.polytope, heights)
        assert validate(s).ok
        base = dc.embedded_base()
        assert any(c == base for c in s.cells)
        touching = [
            c
            for c in s.maximal_cells
            if all(c.contains(v) for v in base.vertices)
        ]
        assert touching
        for c in touching:
            assert c.lattice_width()[0] == 1


class TestCertificates:
    def test_divisor23_containment(self):
        dc = divisor_23_double_cone()
        target = simplex_product([(2, 3), (3, 4)])
        cert = containment_certificate(dc.polytope, target, divisor_23_certificate_map())
        assert cert.contained

    def test_wrong_map_reports_violation(self):
        dc = divisor_23_double_cone()
        target = simplex_product([(2, 3), (3, 4)])
        wrong = AffineUnimodularMap.identity(7)
        cert = containment_certificate(dc.polytope, target, wrong)
        assert not cert.contained
        assert cert.violated_halfspace is not None
        assert cert.violating_vertex is not None


class TestBounds:
    def test_sum_identity_small(self):
        assert sum_identity(4) == (12, 12, True)
        assert sum_identity(3)[2]
        assert sum_identity(12)[2]

    def test_hypersurface_rows(self):
        rows, grid = bounds_table([3, 4])
        assert (rows[0].degree, rows[0].n_min, rows[0].n_max_baseline, rows[0].n_max) == (5, 5, 9, 13)
        assert (rows[1].degree, rows[1].n_max) == (6, 30)
        assert ("paper-baseline" in {s for _, _, s in grid}) and ("new" in {s for _, _, s in grid})
        assert (10, 5, "new") in grid and (9, 5, "paper-baseline") in grid

    def test_double_cover_rows(self):
        rows, _ = bounds_table(range(2, 9), "double_cover")
        for r in rows:
            n = r.n
            lhs, _, _ = sum_identity(n)
            assert r.n_max - r.n == 2**n - 2 + lhs - n // 2
            assert r.degree % 2 == 0


class TestSeeds:
    def test_builtin_registry(self):
        reg = builtin_seed_registry()
        assert len(reg) == 2
        assert reg.match(hpt()) is not None
