import random
from math import gcd

import pytest

from sbvol import ledger as ledger_module
from sbvol import polytope as polytope_module
from sbvol.errors import (
    DegenerateInputError,
    ResourceLimitError,
    SubdivisionError,
)
from sbvol.families import builtin_seed_registry, hpt, kollar_totaro
from sbvol.intlinalg import dot
from sbvol.ledger import (
    CellClassTag,
    SeedRegistry,
    classify_cell,
    dim4_pipeline,
    verdict,
    volume_ledger,
)
from sbvol.polytope import AffineUnimodularMap, LatticePolytope, dilate, hull
from sbvol.subdivision import (
    _interior,
    distance_height,
    height_function,
    interior_cells,
    make_subdivision,
    regular_subdivision,
    validate,
)
from sbvol.toric import fine_interior
from sbvol.verification import SEED, _random_polytope
from test_ledger_oracle import fresh_subdivision, oracle_volume_ledger, oracle_width_certificates


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


def unimodular_triangulation():
    """The lower hull of the strictly convex x^2 + xy + y^2 on 2*simplex(2): four unit triangles."""
    p = dilate(simplex(2), 2)
    heights = {(0, 0): 0, (1, 0): 1, (2, 0): 4, (0, 1): 1, (1, 1): 3, (0, 2): 4}
    assert set(heights) == set(p.lattice_points())
    s = regular_subdivision(p, heights)
    assert [c.normalized_volume() for c in s.maximal_cells] == [1, 1, 1, 1]
    return p, s


class TestClassify:
    def test_width_one(self):
        cell = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        tag = classify_cell(cell)
        assert tag.kind == "rational"

    def test_dim_at_most_one(self):
        assert classify_cell(hull([(0, 0)])).kind == "rational"
        assert classify_cell(hull([(0, 0), (3, 0)])).kind == "rational"

    def test_empty_fine_interior_dim3(self):
        cell = hull([(0, 0, 0), (0, 0, 2), (0, 4, 0), (4, 0, 0)])
        tag = classify_cell(cell)
        assert tag.kind == "rational"
        assert "fine interior" in tag.justification

    def test_seed_match(self):
        seeds = builtin_seed_registry()
        tag = classify_cell(hpt(), seeds)
        assert tag.kind == "seed"
        assert tag.seed_name == "hpt"
        assert tag.strongly_varying  # condition (M) is recorded for this seed

    def test_interior_points(self):
        tag = classify_cell(dilate(simplex(3), 4))
        assert tag.kind == "strongly_varying"
        assert "unique" in tag.justification

    def test_unknown(self):
        tag = classify_cell(kollar_totaro(4, 4))
        assert tag.kind == "unknown"


class TestSeedRegistry:
    def test_rejects_provably_rational(self):
        reg = SeedRegistry()
        with pytest.raises(
            DegenerateInputError,
            match=r"^bad: this polytope is provably rational \(empty fine interior in dimension"
            r" at most three\) and cannot be a seed$",
        ):
            reg.register("bad", dilate(simplex(2), 2), "not really")
        with pytest.raises(DegenerateInputError, match=r"\(lattice width one\)"):
            reg.register("flat", hull([(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 1)]), "width one")
        with pytest.raises(DegenerateInputError, match=r"\(dimension at most one\)"):
            reg.register("segment", hull([(0, 0), (4, 2)]), "a segment")

    def test_match_up_to_equivalence(self):
        from sbvol.polytope import translate

        reg = builtin_seed_registry()
        assert reg.match(translate(hpt(), (1, 2, 3, 4, 5))) is not None
        assert reg.match(dilate(simplex(3), 4)) is None

    def test_spent_budget_is_not_read_as_no_match(self, monkeypatch):
        from sbvol import polytope
        from sbvol.polytope import translate

        reg = builtin_seed_registry()
        monkeypatch.setattr(polytope, "EQUIVALENCE_BUDGET", 0)
        with pytest.raises(ResourceLimitError, match="unimodular_equivalence"):
            reg.match(translate(hpt(), (1, 2, 3, 4, 5)))


def oracle_classify_cell(cell, seeds=None, certificates=()):
    """The earlier classify_cell: the Fine interior of every cell of dimension 2 or 3 it reaches."""
    d = cell.dim()
    if d <= 1:
        return CellClassTag("rational", "dimension at most one")
    for l in certificates:
        values = [dot(l, v) for v in cell.vertices]
        if max(values) - min(values) == 1:
            return CellClassTag("rational", "lattice width one")
    q, _ = cell.normalize_full_dimensional()
    if q.lattice_width()[0] == 1:
        return CellClassTag("rational", "lattice width one")
    if d <= 3 and fine_interior(q).is_empty:
        return CellClassTag("rational", "empty fine interior in dimension at most three")
    if seeds is not None:
        entry = seeds.match(q)
        if entry is not None:
            varying = bool(entry.condition_m) or q.n_interior_points() >= 1
            why = f"registered non-stably-rational seed {entry.name!r}"
            if varying:
                why += " with strong variation"
            return CellClassTag("seed", why, entry.name, varying)
    interior = q.n_interior_points()
    if interior == 1:
        return CellClassTag("strongly_varying", "unique interior lattice point", None, True)
    if interior > 1:
        return CellClassTag("strongly_varying", f"{interior} interior lattice points", None, True)
    return CellClassTag("unknown", "no rationality or variation rule applies")


def test_fine_interior_runs_only_on_cells_without_interior_points(monkeypatch):
    # An interior lattice point lies in the Fine interior, so classify_cell
    # skips the Fine interior of such a cell, and every tag stays the earlier
    # rule's: on criterion 5, on dim4-ledger's subdivision and on seeded
    # regular subdivisions in dimensions 2 to 4.
    p = dilate(simplex(3), 4)
    cases = [(p, regular_subdivision(p, height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4))), None)]
    reg = builtin_seed_registry()
    reg.register("double-cover-3-4", kollar_totaro(3, 4), "double cover bound")
    big = dilate(simplex(4), 4)
    cases.append((big, dim4_pipeline(big, kollar_totaro(3, 4), reg).subdivision, reg))
    rng = random.Random(SEED + 29)
    for dim, coord in ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2)):
        q = _random_polytope(rng, dim, coord=coord, extra=3)
        cases.append((q, regular_subdivision(q, {x: rng.randint(0, 6) for x in q.lattice_points()}), None))

    def guarded(q):
        if q.n_interior_points():
            raise AssertionError(f"Fine interior of a cell with an interior point: {q!r}")
        return fine_interior(q)

    monkeypatch.setattr(ledger_module, "fine_interior", guarded)
    skipped = 0
    for big, s, seeds in cases:
        for j in _interior(s, big):
            cell = s.cells[j]
            certs = list(oracle_width_certificates(s, s.cell_parents[j]))
            fresh = LatticePolytope._trusted(cell.ambient_dim, cell.vertices)
            old = oracle_classify_cell(fresh, seeds, certs)
            assert classify_cell(cell, seeds) == old, cell
            skipped += 2 <= cell.dim() <= 3 and fresh.n_interior_points() > 0
    assert skipped


class TestVolumeLedger:
    def test_figure_ledger(self):
        p = dilate(simplex(3), 4)
        s = regular_subdivision(p, height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4)))
        led = volume_ledger(p, s)
        assert led.point_coefficient == 2
        assert len(led.entries) == 1
        entry = led.entries[0]
        assert entry.coefficient == -1
        assert entry.tag.kind == "strongly_varying"
        assert verdict(led).status == "obstructed"

    def test_unimodular_triangulation_unobstructed(self):
        p, s = unimodular_triangulation()
        led = volume_ledger(p, s)
        assert led.is_point_form()
        assert verdict(led).status == "unobstructed"

    def test_trivial_width_one(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        s = regular_subdivision(p, height_function(p, lambda v: 0))
        led = volume_ledger(p, s)
        assert led.is_point_form()

    def test_segment_multiplicities(self):
        # cutting the 2x2 square along a diagonal with an interior lattice point
        p = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        s = regular_subdivision(p, height_function(p, lambda v: abs(v[0] - v[1])))
        led = volume_ledger(p, s)
        # two hollow triangles (+1 each), diagonal with one interior point (-2)
        assert led.point_coefficient == 0
        assert not led.entries
        assert verdict(led).status == "obstructed"

    def test_refusing_invalid(self):
        p = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        bad = make_subdivision(p, [hull([(0, 0), (2, 0), (0, 2)])])
        with pytest.raises(SubdivisionError):
            volume_ledger(p, bad)

    def test_rejects_a_polytope_the_subdivision_is_not_of(self):
        # Unchecked, the trivial subdivision of [0, 2]^2 read against
        # [-1, 3]^2 gave -8*[point] plus a strongly varying square.
        small = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        big = hull([(-1, -1), (3, -1), (-1, 3), (3, 3)])
        s = regular_subdivision(small, height_function(small, lambda v: 0))
        for check in (True, False):
            with pytest.raises(DegenerateInputError, match=r"^the subdivision is of the polytope with vertices"):
                volume_ledger(big, s, check=check)
        own = volume_ledger(small, s, check=False)
        assert own.point_coefficient == 0 and [e.coefficient for e in own.entries] == [1]


class TestInheritedWidth:
    """Width one lent by the full-dimensional maximal cells that contain a cell."""

    def recorded(self, monkeypatch):
        """Record the vertices of every cell volume_ledger classifies and every point set charted."""
        classified, charted = [], []
        classify, for_points = ledger_module.classify_cell, polytope_module.AffineChart.for_points

        def counted_classify(cell, seeds=None):
            classified.append(cell.vertices)
            return classify(cell, seeds)

        def counted_for_points(points):
            charted.append(tuple(points))
            return for_points(points)

        monkeypatch.setattr(ledger_module, "classify_cell", counted_classify)
        monkeypatch.setattr(polytope_module.AffineChart, "for_points", staticmethod(counted_for_points))
        return classified, charted

    def test_lower_dimensional_maximal_cell_lends_nothing(self, monkeypatch):
        # Unchecked, hand-built: a facet of a tetrahedron as the only
        # "maximal" cell.  Its width certificate is in the chart coordinates
        # of its plane and it has no facet system in Z^3, so it settles
        # nothing, not even itself: the facet is classified.
        p = hull([(x, y, z) for x in (0, 4) for y in (0, 4) for z in (0, 4)])
        tetra = hull([(1, 1, 1), (3, 1, 1), (1, 3, 1), (1, 1, 3)])
        facet = hull([(1, 1, 1), (3, 1, 1), (1, 3, 1)])
        facet.lattice_width()  # cached: a certificate a lender could read
        classified, _ = self.recorded(monkeypatch)
        led = volume_ledger(p, make_subdivision(p, [facet]), check=False)
        assert classified[-1] == facet.vertices
        # Three edges with one interior point each, +2 each, and the facet, -1.
        assert led.describe() == "5*[point]"
        with pytest.raises(DegenerateInputError, match="facet system requires a full-dimensional"):
            facet.facet_system()
        # Beside the tetrahedron, whose width certificate and facet normals
        # spread 0 or 2 on it, the facet is classified too.
        del classified[:]
        volume_ledger(p, make_subdivision(p, [tetra, facet]), check=False)
        assert facet.vertices in classified and tetra.vertices in classified

    def test_uncertified_cell_falls_through_to_the_search(self):
        # A cell no parent settles reaches classify_cell, which charts it and
        # searches its width, whether or not the width is one.
        wide = hull([(0, 0, 0), (0, 2, 0), (0, 0, 2)])  # 2 * simplex2, width 2
        thin = hull([(0, 0, 0), (0, 1, 0), (0, 0, 3)])  # width 1, not on an axis pair
        for cell, why in (
            (wide, "empty fine interior in dimension at most three"),
            (thin, "lattice width one"),
        ):
            fresh = LatticePolytope._trusted(3, cell.vertices)
            assert classify_cell(fresh).justification == why
            assert "width" in fresh.normalize_full_dimensional()[0]._cache

    def test_uncertified_cell_in_a_ledger(self, monkeypatch):
        # Two tetrahedra glued along a triangle of width 2 in the plane x = 0:
        # each one's certificate (1, 0, 0) spreads 0 on it, and no facet
        # normal spreads 1, so it alone is classified and charted.
        left = hull([(-1, 0, 0), (0, 0, 0), (0, 2, 0), (0, 0, 2)])
        right = hull([(1, 0, 0), (0, 0, 0), (0, 2, 0), (0, 0, 2)])
        p = hull(left.vertices + right.vertices)
        s = make_subdivision(p, [left, right])
        assert validate(s).ok
        want = oracle_volume_ledger(p, fresh_subdivision(s))
        classified, charted = self.recorded(monkeypatch)
        led = volume_ledger(p, s)
        wall = ((0, 0, 0), (0, 0, 2), (0, 2, 0))
        assert classified == [wall] and charted == [wall]
        why = "empty fine interior in dimension at most three"
        assert classify_cell(LatticePolytope._trusted(3, wall)).justification == why
        assert led == want and led.describe() == "1*[point]"

    def test_facet_normals_settle_cells_in_coordinate_hyperplanes(self, monkeypatch):
        # Two unit-width tetrahedra on either side of x = 0 share the triangle
        # (0,0,0), (0,1,0), (0,0,3), which has width one along e_2 but not
        # along e_1, the certificate both parents lend: the facet normal
        # e_2 of either parent settles it.
        left = hull([(-1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 3)])
        right = hull([(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 3)])
        for cell in (left, right):
            assert cell.lattice_width() == (1, (1, 0, 0))
        p = hull(left.vertices + right.vertices)
        s = make_subdivision(p, [left, right])
        assert validate(s, p).ok
        want = oracle_volume_ledger(p, fresh_subdivision(s))
        classified, charted = self.recorded(monkeypatch)
        led = volume_ledger(p, s)
        # The interior cells are the wall and the two tetrahedra: none is classified.
        assert classified == [] and charted == []
        assert led == want and led.describe() == "1*[point]"

    def test_dim4_ledger_classifies_only_low_cells_and_the_seed(self, monkeypatch):
        # Of the 727 interior cells of the dim4 pipeline, 708 are settled by
        # their parents' functionals: classify_cell sees the 18 cells of
        # dimension at most one and the seed, and charts none of them.
        big, small = dilate(simplex(4), 4), kollar_totaro(3, 4)
        seeds = builtin_seed_registry()
        seeds.register("double-cover-3-4", small, "double cover bound")
        s = regular_subdivision(big, distance_height(big, small))
        assert validate(s, big).ok
        classified, charted = self.recorded(monkeypatch)
        led = volume_ledger(big, s, seeds, check=False)
        low = [s.cells[j].vertices for j in _interior(s, big) if s.cell_dims[j] <= 1]
        assert len(low) == 18
        assert classified == low + [small.vertices]
        assert charted == []  # the seed is full-dimensional
        assert [e.tag.kind for e in led.entries] == ["seed"]

    def test_segment_multiplicity_is_the_gcd_of_its_edge(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.choice([2, 3, 4])
            u = tuple(rng.randint(-9, 9) for _ in range(n))
            v = tuple(a + rng.choice([1, 2, 3, 6]) * rng.randint(-7, 7) for a in u)
            if u == v:
                continue
            segment = hull([u, v])
            assert gcd(*(a - b for a, b in zip(u, v))) == 1 + segment.n_interior_points()

    def test_skewed_ledgers_count_segment_points(self):
        # Unimodular images of subdivided triangles: interior segments are
        # skewed, and the point coefficient counts 1 + their interior points.
        rng = random.Random(31)
        for _ in range(20):
            p = hull([(0, 0), (rng.randint(2, 5), 0), (0, rng.randint(2, 5))])
            lin = ((1, 0), (0, 1))
            for _ in range(4):
                a, b = lin
                c = rng.choice([-2, -1, 1, 2])
                lin = (b, tuple(x + c * y for x, y in zip(a, b)))
            m = AffineUnimodularMap(lin, (rng.randint(-3, 3), rng.randint(-3, 3)))
            q = m.apply_polytope(p)
            s = regular_subdivision(q, {x: rng.randint(0, 4) for x in q.lattice_points()})
            led = volume_ledger(q, s)
            want = 0
            for cell in interior_cells(s):
                sign = (-1) ** cell.dim()
                if cell.dim() == 1:
                    fresh = LatticePolytope._trusted(2, cell.vertices)
                    want += sign * (1 + fresh.n_interior_points())
                elif cell.dim() == 2 and classify_cell(cell).kind == "rational":
                    want += sign
            assert led.point_coefficient == want


class TestVerdict:
    def test_inconclusive_with_unknowns(self):
        p = kollar_totaro(4, 4)
        s = regular_subdivision(p, height_function(p, lambda v: 0))
        led = volume_ledger(p, s)
        assert led.entries and led.entries[0].tag.kind == "unknown"
        assert verdict(led).status == "inconclusive"

    def test_seed_same_sign_obstructs(self):
        seeds = builtin_seed_registry()
        p = kollar_totaro(4, 4)
        seeds.register("kt44-local", p, "registered for this test")
        s = regular_subdivision(p, height_function(p, lambda v: 0))
        led = volume_ledger(p, s, seeds)
        assert verdict(led).status == "obstructed"


class TestDim4Pipeline:
    def seeds_with_kt34(self):
        reg = builtin_seed_registry()
        reg.register("double-cover-3-4", kollar_totaro(3, 4), "double cover bound")
        return reg

    def test_obstructed(self):
        reg = self.seeds_with_kt34()
        res = dim4_pipeline(dilate(simplex(4), 4), kollar_totaro(3, 4), reg)
        assert res.verdict.status == "obstructed"
        assert res.ledger is not None
        seed_entries = [e for e in res.ledger.entries if e.tag.kind == "seed"]
        assert seed_entries and seed_entries[0].coefficient >= 1

    def test_kodaira_shortcut(self):
        reg = builtin_seed_registry()
        p = dilate(simplex(3), 4)
        reg.register("quartic-demo", p, "interior point demo")
        res = dim4_pipeline(p, p, reg)
        assert res.verdict.status == "obstructed"
        assert res.ledger is None and res.subdivision is None

    def test_boundary_hypothesis(self):
        reg = self.seeds_with_kt34()
        small = kollar_totaro(3, 4)
        # embed the seed inside a facet of a bigger polytope: hypothesis fails
        big = hull(
            [v + (0,) for v in dilate(simplex(4), 4).vertices]
            + [(0, 0, 0, 0, 1)]
        )
        with pytest.raises(DegenerateInputError):
            dim4_pipeline(big, hull([v + (0,) for v in small.vertices]), reg)

    def test_dimension_hypothesis(self):
        reg = builtin_seed_registry()
        with pytest.raises(DegenerateInputError):
            dim4_pipeline(dilate(simplex(5), 4), kollar_totaro(4, 4), reg)

    def test_unregistered_seed(self):
        reg = builtin_seed_registry()
        with pytest.raises(DegenerateInputError):
            dim4_pipeline(dilate(simplex(4), 4), kollar_totaro(3, 4), reg)
