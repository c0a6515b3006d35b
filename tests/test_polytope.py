import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from sbvol import dd
from sbvol import polytope as polytope_module
from sbvol.conditionm import check_condition_m, cross_check_unrestricted
from sbvol.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidParameterError,
    ResourceLimitError,
)
from sbvol.families import tpq
from sbvol.hodge import h_p0_compact
from sbvol import subdivision as subdivision_module
from sbvol.intlinalg import adjugate, dot, rank
from sbvol.polytope import (
    AffineUnimodularMap,
    LatticePolytope,
    RationalPolytope,
    _eye,
    _frame,
    cartesian_product,
    convex_union,
    dilate,
    face_closure,
    hull,
    integer_points,
    slacks,
    translate,
    unimodular_equivalence,
)
from sbvol.subdivision import min_squared_distance, regular_subdivision, validate
from sbvol.toric import fine_interior


def simplex(n):
    return hull([tuple([0] * n)] + [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])


def count_dd_calls(monkeypatch, name="extreme_rays"):
    """A list that grows by one on every dd.<name> call; by default, every double description run."""
    calls = []
    original = getattr(dd, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dd, name, counted)
    return calls


def box_scan_points(p, interior_only=False):
    """Oracle: plain bounding-box scan with halfspace membership, no pruning.

    Interior points satisfy every facet inequality strictly.
    """
    q, ch = p.normalize_full_dimensional()
    if q.dim() == 0:
        return sorted(p.vertices)
    lo = [min(v[i] for v in q.vertices) for i in range(q.ambient_dim)]
    hi = [max(v[i] for v in q.vertices) for i in range(q.ambient_dim)]
    out = []
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        values = [(sum(a * b for a, b in zip(n, x)), c) for n, c in q.facet_system()]
        if all(v > c if interior_only else v >= c for v, c in values):
            out.append(tuple(int(v) for v in ch.from_chart(x)))
    return sorted(out)


def brute_width(p, radius=None):
    """Oracle: enumerate all dual vectors in a cube and take the minimum spread."""
    q, _ = p.normalize_full_dimensional()
    d = q.ambient_dim
    if radius is None:
        radius = min(
            max(v[j] for v in q.vertices) - min(v[j] for v in q.vertices) for j in range(d)
        )
    best = None
    for l in itertools.product(range(-radius, radius + 1), repeat=d):
        if all(x == 0 for x in l):
            continue
        vals = [sum(a * b for a, b in zip(l, v)) for v in q.vertices]
        best = min(best, max(vals) - min(vals)) if best is not None else max(vals) - min(vals)
    return best


def assert_width_certificate(p):
    """The certificate is primitive, its first nonzero entry is positive, and it achieves the width."""
    w, cert = p.lattice_width()
    q, _ = p.normalize_full_dimensional()
    assert gcd(*cert) == 1
    assert next(x for x in cert if x) > 0
    vals = [sum(a * b for a, b in zip(cert, v)) for v in q.vertices]
    assert max(vals) - min(vals) == w
    return w


def random_unimodular(rng, d, max_entry):
    """A product of elementary matrices whose entries stay within max_entry."""
    while True:
        m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(3 * d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice([-2, -1, 1, 2])
            row = [x + c * y for x, y in zip(m[i], m[j])]
            if max(abs(x) for x in row) <= max_entry:
                m[i] = row
        if max(abs(x) for r in m for x in r) == max_entry:
            return tuple(tuple(r) for r in m)


class TestHull:
    def test_square_with_center(self):
        p = hull([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
        assert p.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_hpt_generators(self):
        pts = [
            (0, 0, 0, 0, 0),
            (2, 0, 0, 0, 0),
            (0, 2, 0, 0, 0),
            (0, 1, 2, 0, 0),
            (1, 0, 0, 2, 0),
            (1, 1, 0, 0, 2),
        ]
        p = hull(pts)
        assert len(p.vertices) == 6
        assert p.dim() == 5

    def test_collinear(self):
        p = hull([(0, 0), (1, 0), (2, 0)])
        assert p.vertices == ((0, 0), (2, 0))
        assert p.dim() == 1

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            hull([(0, 0), (1, 0, 0)])

    def test_empty(self):
        with pytest.raises(DegenerateInputError):
            hull([])

    def test_vertex_recovery(self):
        rng = random.Random(11)
        for _ in range(15):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 3)])
            assert hull(p.lattice_points()) == p


class TestFacets:
    def test_dilated_simplex(self):
        p = dilate(simplex(3), 4)
        sys = p.facet_system()
        assert ((1, 0, 0), 0) in sys and ((0, 1, 0), 0) in sys and ((0, 0, 1), 0) in sys
        assert ((-1, -1, -1), -4) in sys
        assert len(sys) == 4
        assert sorted(c for _, c in sys) == [-4, 0, 0, 0]

    def test_segment(self):
        p = hull([(0,), (5,)])
        assert p.facet_system() == (((-1,), -5), ((1,), 0))

    def test_lower_dimensional_raises(self):
        p = hull([(0, 0), (1, 1)])
        with pytest.raises(DegenerateInputError):
            p.facet_system()


class TestLatticePoints:
    def test_interior_of_4_simplex(self):
        p = dilate(simplex(3), 4)
        assert p.lattice_points(interior_only=True) == ((1, 1, 1),)

    def test_interior_binomial(self):
        p = dilate(simplex(3), 5)
        assert len(p.lattice_points(interior_only=True)) == comb(4, 3)

    def test_empty_simplex_points(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 2, 1)])
        assert set(p.lattice_points()) == set(p.vertices)

    def test_against_box_scan(self):
        rng = random.Random(12)
        for _ in range(20):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(-2, 3) for _ in range(d)) for _ in range(d + 3)])
            assert list(p.lattice_points()) == box_scan_points(p)
            assert list(p.lattice_points(interior_only=True)) == box_scan_points(p, True)

    def test_budget_error_names_the_scan(self):
        with pytest.raises(ResourceLimitError, match=r"LatticePolytope.lattice_points.*budget of 10 \(dimension 3"):
            dilate(simplex(3), 4).lattice_points(budget=10)

    @pytest.mark.parametrize("budget", [-1, True, 1.5, 10.0, "10"])
    def test_budget_that_is_not_a_nonnegative_int_raises(self, budget):
        # Before any scan and after one: a cached table is no excuse.
        p = dilate(simplex(3), 4)
        match = rf"^LatticePolytope.lattice_points: budget must be an int >= 0, got {budget!r}$"
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match=match):
                p.lattice_points(budget=budget)
            p.lattice_points()
        with pytest.raises(InvalidParameterError, match=rf"^scan: budget must be an int >= 0, got {budget!r}$"):
            list(integer_points([((1,), 0)], [0], [3], budget, "scan"))

    def test_lower_dimensional_points(self):
        p = hull([(0, 0), (2, 2)])
        assert p.lattice_points() == ((0, 0), (1, 1), (2, 2))

    def test_zero_dimensional_box(self):
        # the empty point is the one point of Q^0; the root alone is spent
        assert RationalPolytope(0, []).lattice_points() == ((),)
        assert hull([()]).lattice_points() == ((),)
        assert list(integer_points([((), 0)], [], [], 0, "scan")) == [()]
        assert list(integer_points([((), 1)], [], [], 0, "scan")) == []


class TestFaces:
    def test_square_edges(self):
        p = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert len(p.faces(1)) == 4

    def test_4_simplex_facets(self):
        p = dilate(simplex(3), 4)
        assert len(p.faces(2)) == 4

    def test_simplex_counts(self):
        for n in range(2, 6):
            p = simplex(n)
            for k in range(n + 1):
                assert len(p.faces(k)) == comb(n + 1, k + 1)

    def test_faces_carry_their_dimension(self, monkeypatch):
        # Each face's dimension is ranked once, in the face enumeration.
        ranked = []
        original = polytope_module.rank

        def counted(a):
            ranked.append(a)
            return original(a)

        monkeypatch.setattr(polytope_module, "rank", counted)
        p = hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)])
        faces = p.faces()
        before = len(ranked)
        assert before > 0
        assert all(c.dim() == d for d, cells in faces.items() for c in cells)
        assert len(ranked) == before

    def test_budget_error_names_the_closure(self, monkeypatch):
        monkeypatch.setattr(polytope_module, "DEFAULT_FACE_BUDGET", 2)
        tight = [frozenset(range(4)) - {i} for i in range(4)]  # a tetrahedron's facets
        with pytest.raises(
            ResourceLimitError,
            match=r"^face_closure: face enumeration reached 3 faces, over its budget of 2"
            r" \(4 vertices, 4 facets\)$",
        ):
            face_closure(frozenset(range(4)), tight)

    def test_simplex_faces_keep_the_closure_budget(self, monkeypatch):
        # A simplex's faces are its vertex subsets, listed without the
        # closure; over the budget it raises the closure's error.
        monkeypatch.setattr(polytope_module, "DEFAULT_FACE_BUDGET", 10)
        with pytest.raises(
            ResourceLimitError,
            match=r"^face_closure: face enumeration reached 11 faces, over its budget of 10"
            r" \(4 vertices, 4 facets\)$",
        ):
            hull([(0, 0, 0), (5, 0, 0), (0, 3, 0), (1, 1, 7)])._face_masks()

    def test_euler_relation(self):
        rng = random.Random(13)
        for _ in range(10):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 3)])
            total = sum((-1) ** k * len(p.faces(k)) for k in range(p.dim() + 1))
            assert total == 1  # ball


class TestWidth:
    def test_tpq_width_one(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 0, 1), (3, 7, 1)])
        w, cert = p.lattice_width()
        assert w == 1
        vals = [sum(a * b for a, b in zip(cert, v)) for v in p.vertices]
        assert max(vals) - min(vals) == 1

    def test_dilated_simplex(self):
        for d, n in [(2, 2), (3, 2), (4, 3), (6, 5)]:
            w, cert = dilate(simplex(n), d).lattice_width()
            assert w == d

    def test_unit_segment(self):
        assert hull([(0,), (1,)]).lattice_width()[0] == 1

    def test_point_raises(self):
        with pytest.raises(DegenerateInputError):
            hull([(3, 4)]).lattice_width()

    def test_against_brute_force(self):
        rng = random.Random(14)
        for _ in range(15):
            d = rng.choice([2, 3])
            p = hull([tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(d + 3)])
            if p.dim() == 0:
                continue
            assert p.lattice_width()[0] == brute_width(p)
            assert_width_certificate(p)

    def test_skewed_unimodular_images(self):
        # Skewed images have wide bounding boxes but the width of the original.
        rng = random.Random(19)
        for d in (3, 3, 4, 4, 4, 4):
            base = hull([tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 4)])
            if base.dim() != d:
                base = dilate(simplex(d), 3)
            m = AffineUnimodularMap(random_unimodular(rng, d, 3), tuple(rng.randint(-3, 3) for _ in range(d)))
            image = m.apply_polytope(base)
            assert assert_width_certificate(image) == assert_width_certificate(base)

    def test_width_one_needs_no_inverse(self, monkeypatch):
        # The expected pairs are what the frame search returns without the width-1 exit.
        calls = []
        original = polytope_module.adjugate

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(polytope_module, "adjugate", counted)
        cases = [
            (simplex(4), (1, (1, 0, 0, 0))),
            (hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]), (1, (1, 0, 0))),
            (hull([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 3, 4)]), (1, (1, 0, 0))),
            (hull([(0, 0), (3, 1), (5, 2), (1, 0)]), (1, (1, -2))),
        ]
        for p, expected in cases:
            assert p.lattice_width() == expected
        assert calls == []
        assert dilate(simplex(3), 2).lattice_width()[0] == 2
        assert len(calls) == 1


def oracle_width_search(q):
    """The earlier _width_search: the incumbent is min() over every axis direction and facet normal."""
    d = q.ambient_dim
    verts = q.vertices
    v0 = verts[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in verts[1:]]

    def spread(l):
        vals = [dot(l, v) for v in verts]
        return max(vals) - min(vals)

    def normalized(l):
        g = gcd(*l) if next(x for x in l if x) > 0 else -gcd(*l)
        return tuple(x // g for x in l)

    best_l = normalized(min([*_eye(d), *(n for n, _ in q.facet_system())], key=spread))
    best = spread(best_l)
    if best == 1:
        return best, best_l
    det_f, adj = adjugate([diffs[i] for i in _frame(diffs)])
    norms = [sum(abs(x) for x in row) for row in adj]
    while True:
        cons = [(f, 1 - best) for f in diffs] + [(tuple(-x for x in f), 1 - best) for f in diffs]
        bound = [nm * (best - 1) // abs(det_f) for nm in norms]
        box = ([-b for b in bound], bound)
        for l in integer_points(cons, *box, None, "LatticePolytope.lattice_width"):
            if 0 < spread(l) < best:
                best_l = normalized(l)
                best = spread(best_l)
                break
        else:
            return best, best_l


def test_width_search_agrees_with_the_frozen_search():
    # Full-dimensional polytopes in dimensions 1-4, some dilated to width
    # at least 2, and lower-dimensional ones read through lattice_width,
    # which searches the chart polytope.  Each is built twice, so neither
    # side reads the other's cache.
    rng = random.Random(4417)
    thin = wide = lower = 0
    for trial in range(540):
        n = 1 + trial % 4
        k = rng.randint(1, n - 1) if trial % 3 == 0 and n > 1 else n  # the span's dimension
        box = [(9, 6, 3, 2)[k - 1]] * k
        if trial % 4 == 1:
            box[rng.randrange(k)] = 1  # width one along an axis
        while True:
            pts = [tuple(rng.randint(0, c) for c in box) for _ in range(k + 1 + rng.randint(0, 3))]
            if hull(pts).dim() == k:
                break
        if trial % 5 == 0:
            pts = [tuple(2 * x for x in v) for v in pts]
        if k == n > 1 and trial % 7 == 3:  # a skewed image: the width need not be along an axis
            m = random_unimodular(rng, n, 2)
            pts = [tuple(dot(row, v) for row in m) for v in pts]
        if k < n:  # into Z^n through an injective integer map and a shift
            while True:
                m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
                if rank(m) == k:
                    break
            shift = [rng.randint(-3, 3) for _ in range(n)]
            pts = [tuple(dot(row, v) + t for row, t in zip(m, shift)) for v in pts]
        p = hull(pts)
        q, _ = hull(pts).normalize_full_dimensional()
        got = p.lattice_width()
        assert got == oracle_width_search(q), pts
        thin += got[0] == 1
        wide += got[0] >= 2
        lower += p.dim() < n
    assert thin >= 100 and wide >= 100 and lower >= 100, (thin, wide, lower)


class TestNormalize:
    def test_planar_triangle_in_3d(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        q, ch = p.normalize_full_dimensional()
        assert q.ambient_dim == 2
        assert q.normalized_volume() == 1

    def test_skew_segment(self):
        p = hull([(0, 0), (2, 2)])
        q, _ = p.normalize_full_dimensional()
        assert q.vertices == ((0,), (2,))
        assert q.lattice_width()[0] == 2
        assert p.n_lattice_points() == 3

    def test_full_dimensional_identity(self):
        p = simplex(3)
        q, ch = p.normalize_full_dimensional()
        assert q == p
        assert ch.is_identity()


class TestClassify:
    def test_kollar_totaro_4_4(self):
        p = hull(
            [(2, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 3, 1, 0, 0), (0, 0, 3, 1, 0), (0, 0, 0, 3, 1), (0, 0, 0, 0, 3)]
        )
        c = p.classify()
        assert c.is_empty_simplex

    def test_wide_empty_simplex(self):
        p = hull([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (6, 14, 17, 65)])
        assert p.classify().is_empty_simplex

    def test_3_simplex_not_hollow(self):
        c = dilate(simplex(2), 3).classify()
        assert not c.is_hollow

    def test_implication_chain_on_simplices(self):
        rng = random.Random(15)
        seen = 0
        while seen < 20:
            d = rng.choice([2, 3])
            pts = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 1)]
            p = hull(pts)
            if p.dim() != d or not p.is_simplex():
                continue
            c = p.classify()
            if c.is_empty_simplex:
                assert c.is_relatively_empty
            if c.is_relatively_empty:
                assert c.is_hollow
            seen += 1


class TestFacetSystemsComputedOnce:
    def test_hull_keeps_the_facets_it_computes(self, monkeypatch):
        calls = count_dd_calls(monkeypatch)
        p = hull([(1, 1), (4, 1), (1, 3), (2, 2), (3, 2)])
        system = p.facet_system()
        assert len(calls) == 1
        assert system == LatticePolytope._trusted(2, p.vertices).facet_system()
        assert all(c == min(dot(n, v) for v in p.vertices) for n, c in system)

    def test_lower_dimensional_chart_polytope_is_reused(self, monkeypatch):
        # A triangle's facets come in closed form, with no DD run: count both routines.
        closed = count_dd_calls(monkeypatch, "simplex_facets")
        runs = count_dd_calls(monkeypatch)
        tri = hull([(2, 0, 0), (0, 2, 0), (0, 0, 2)])  # planar, in Z^3
        assert tri.n_lattice_points() == 6
        assert tri.n_interior_points() == 0
        assert tri.lattice_width()[0] == 2
        assert tri.normalized_volume() == 4
        # the hull, then the chart polytope's dimension, with its facets and volume
        assert len(closed) == 2 and not runs

    def test_vertex_facet_incidences_are_read_off_the_double_description(self, monkeypatch):
        """hull, facet_system, _vertex_carriers, _face_masks and validate make no carrier call."""
        big = dilate(simplex(3), 2)
        s = regular_subdivision(big, {x: sum(c * c for c in x) for x in big.lattice_points()})
        calls = []
        original = polytope_module.carrier

        def counted(system, x):
            calls.append(x)
            return original(system, x)

        monkeypatch.setattr(polytope_module, "carrier", counted)
        monkeypatch.setattr(subdivision_module, "carrier", counted)
        p = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2), (1, 1, 1), (1, 0, 0)])
        fresh = LatticePolytope._trusted(3, p.vertices)
        assert fresh.facet_system() == p.facet_system()
        assert fresh._vertex_carriers() == p._vertex_carriers()
        assert not fresh.is_simplex() and fresh.f_vector() == (5, 9, 6, 1)
        square = hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])  # planar, in Z^3
        assert square.f_vector() == (4, 4, 1)
        assert validate(s).ok and len(s.maximal_cells) > 1
        assert calls == []
        fresh.lattice_points()  # the lattice-point scan does call it
        assert len(calls) == fresh.n_lattice_points()


class TestOneLatticePointScan:
    @pytest.mark.parametrize(
        "p",
        [
            hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 3, 3)]),
            hull([(0, 0, 0), (3, 0, 1), (0, 3, 2), (2, 2, 2), (6, 0, 2)]),  # planar, in Z^3
        ],
    )
    def test_every_count_reads_one_scan_capped_by_the_budget(self, monkeypatch, p):
        budgets = []
        original = polytope_module.integer_points

        def counted(constraints, lo, hi, budget, routine):
            if routine == "LatticePolytope.lattice_points":
                budgets.append(budget)
            return original(constraints, lo, hi, budget, routine)

        monkeypatch.setattr(polytope_module, "integer_points", counted)
        p = LatticePolytope._trusted(p.ambient_dim, p.vertices)
        p.lattice_points(budget=10_000)
        p.classify()
        p.n_lattice_points()
        p.n_interior_points()
        p.fingerprint()
        h_p0_compact(p)
        assert budgets == [10_000]


class TestEquivalence:
    def test_translate(self):
        p = hull([(0, 0), (3, 1), (1, 2), (0, 1)])
        q = translate(p, (1, 0))
        res = unimodular_equivalence(p, q)
        assert res.found
        assert res.ambient_map.linear == ((1, 0), (0, 1))
        assert res.ambient_map.translation == (1, 0)

    def test_cut_cells(self):
        red = hull([(0, 0, 0), (0, 0, 2), (0, 4, 0), (4, 0, 0)])
        blue = hull([(0, 0, 2), (0, 0, 4), (4, 0, 0), (0, 4, 0)])
        res = unimodular_equivalence(red, blue)
        assert res.found
        assert res.ambient_map.apply_polytope(red) == blue
        # the explicit witness from the construction also works
        m = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (-1, -1, -1)), (0, 0, 4))
        assert m.apply_polytope(red) == blue
        # symmetric
        assert unimodular_equivalence(blue, red).found

    def test_inequivalent_by_counts(self):
        t2 = dilate(simplex(2), 2)
        square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert unimodular_equivalence(t2, square).status == "inequivalent"

    def test_inequivalent_by_frame_search(self):
        # The fingerprints agree, so only the frame search tells these apart.
        a, b, c = tpq(1, 5), tpq(2, 5), tpq(4, 5)
        assert a.fingerprint() == b.fingerprint() == c.fingerprint() == (3, 4, 4, 0, 5, 1, (4, 6, 4, 1))
        assert unimodular_equivalence(a, b).status == "inequivalent"
        res = unimodular_equivalence(a, c)
        assert res.found and res.ambient_map.apply_polytope(a) == c

    def test_spent_budget_raises(self, monkeypatch):
        p = hull([(0, 0), (3, 1), (1, 2), (0, 1)])
        q = AffineUnimodularMap(((1, 1), (0, 1)), (2, -1)).apply_polytope(p)
        assert p.fingerprint() == q.fingerprint()
        assert unimodular_equivalence(p, q).found
        monkeypatch.setattr(polytope_module, "EQUIVALENCE_BUDGET", 0)
        with pytest.raises(ResourceLimitError, match="unimodular_equivalence.*budget of 0"):
            unimodular_equivalence(p, q)

    def test_found_preserves_invariants(self):
        rng = random.Random(16)
        for _ in range(10):
            p = hull([tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(5)])
            if p.dim() != 2:
                continue
            m = AffineUnimodularMap(((1, 1), (0, 1)), (2, -1))
            q = m.apply_polytope(p)
            res = unimodular_equivalence(p, q)
            assert res.found
            assert p.fingerprint() == q.fingerprint()


class TestAlgebra:
    def test_dilate(self):
        assert dilate(simplex(2), 4) == hull([(0, 0), (4, 0), (0, 4)])

    def test_product_counts(self):
        p = cartesian_product(dilate(simplex(3), 2), dilate(simplex(4), 3))
        assert p.dim() == 7
        assert len(p.vertices) == 20

    def test_product_facets_match_direct_hull(self):
        p = cartesian_product(dilate(simplex(2), 2), hull([(0,), (3,)]))
        direct = hull(p.vertices)
        assert set(p.facet_system()) == set(direct.facet_system())

    def test_union_contains(self):
        p = simplex(2)
        q = translate(p, (2, 0))
        u = convex_union(p, q)
        for v in list(p.vertices) + list(q.vertices):
            assert u.contains(v)


class TestInvariants:
    def test_width_invariance_under_maps(self):
        rng = random.Random(17)
        p = dilate(simplex(2), 3)
        for _ in range(20):
            lin = [[1, 0], [0, 1]]
            for _ in range(4):
                i, j = rng.randrange(2), rng.randrange(2)
                if i != j:
                    c = rng.choice([-1, 1])
                    for k in range(2):
                        lin[i][k] += c * lin[j][k]
            m = AffineUnimodularMap(tuple(tuple(r) for r in lin), (rng.randint(-2, 2), rng.randint(-2, 2)))
            assert m.apply_polytope(p).lattice_width()[0] == p.lattice_width()[0]

    def test_vertex_count_below_point_count(self):
        rng = random.Random(18)
        for _ in range(10):
            p = hull([tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(6)])
            assert len(p.vertices) <= p.n_lattice_points()

    def test_volume_normalized(self):
        assert dilate(simplex(2), 2).normalized_volume() == 4
        assert simplex(3).normalized_volume() == 1

    def test_volume_dilation_law_and_unimodular_invariance(self):
        rng = random.Random(20)
        for _ in range(12):
            d = rng.choice([2, 3, 4])
            p = hull([tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3)])
            k = p.dim()
            if k == 0:
                continue
            vol = p.normalized_volume()
            for factor in (2, 3):
                assert dilate(p, factor).normalized_volume() == factor**k * vol
            m = AffineUnimodularMap(random_unimodular(rng, d, 3), tuple(rng.randint(-3, 3) for _ in range(d)))
            assert m.apply_polytope(p).normalized_volume() == vol


def fraction_slack(n, c, x):
    """Oracle: <n, x> - c in Fractions."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(n, x)) - Fraction(c)


def test_slacks_against_fraction_oracle():
    rng = random.Random(21)
    for _ in range(200):
        d = rng.randint(1, 4)
        system = [
            (tuple(rng.randint(-3, 3) for _ in range(d)), rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 4))]))
            for _ in range(5)
        ]
        x = tuple(rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 6))]) for _ in range(d))
        q = 1
        for v in x:
            q = q * Fraction(v).denominator // gcd(q, Fraction(v).denominator)
        for (n, c), s in zip(system, slacks(system, x)):
            assert isinstance(s, int)
            assert s == fraction_slack(n, c, x) * q * Fraction(c).denominator
        # a point on each hyperplane has slack exactly zero there
        for n, c in system:
            if any(n):
                j = next(i for i, a in enumerate(n) if a)
                y = list(x)
                y[j] = Fraction(0)
                y[j] = (Fraction(c) - sum(Fraction(a) * b for a, b in zip(n, y))) / n[j]
                assert list(slacks([(n, c)], y)) == [0]


class TestRejectsFloatsAndBools:
    """Only ints and Fractions cross the library boundary; nothing is coerced."""

    SQUARE = [((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]

    def test_float_normal(self):
        with pytest.raises(DegenerateInputError):
            RationalPolytope(2, [((1.5, 0), 0)] + self.SQUARE)

    def test_bool_normal(self):
        with pytest.raises(DegenerateInputError):
            RationalPolytope(2, [((True, 0), 0)] + self.SQUARE)

    def test_float_and_bool_offsets(self):
        for offset in (0.5, 0.0, True):
            with pytest.raises(DegenerateInputError):
                RationalPolytope(2, [((1, 0), offset)] + self.SQUARE)
        # ints and Fractions stay accepted, integral Fraction normals too
        p = RationalPolytope(2, [((Fraction(1), 0), Fraction(1, 2))] + self.SQUARE)
        assert ((1, 0), Fraction(1, 2)) in p.halfspaces

    def test_halfspace_cleaning(self):
        # A zero normal with offset <= 0 holds everywhere and is dropped; a
        # normal with content g is divided by g, its offset too.
        p = RationalPolytope(2, [((0, 0), 0), ((0, 0), Fraction(-3)), ((2, 0), 1)] + self.SQUARE)
        assert p.halfspaces == (((-1, 0), -1), ((0, -1), -1), ((0, 1), 0), ((1, 0), Fraction(1, 2)))
        with pytest.raises(DegenerateInputError, match="infeasible"):
            RationalPolytope(2, [((0, 0), Fraction(1, 3))] + self.SQUARE)

    def test_contains_float_point(self):
        triangle = hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DegenerateInputError):
            triangle.contains((0.5, 0.25))
        with pytest.raises(DegenerateInputError):
            triangle.as_halfspaces().contains((0.5, 0.25))
        assert triangle.contains((Fraction(1, 2), Fraction(1, 4)))

    def test_min_squared_distance_float_point(self):
        triangle = hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DegenerateInputError):
            min_squared_distance(triangle, (0.5, 0.25))
        with pytest.raises(DegenerateInputError):
            min_squared_distance(triangle, (2, 2.0))

    def test_lower_dimensional_contains_float_or_bool_point(self):
        planar = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        for x in [(0.5, 0.25, 0), (True, 0, 0)]:
            with pytest.raises(DegenerateInputError):
                planar.contains(x)
        assert planar.contains((Fraction(1, 2), Fraction(1, 4), 0))
        assert planar.contains((1, 0, 0))

    def test_bool_vertices(self):
        with pytest.raises(DegenerateInputError):
            hull([(True, 0), (0, 1), (0, 0)])

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: AffineUnimodularMap(((1.0, 0), (0, 1)), (0, 0)), DegenerateInputError),
            (lambda: AffineUnimodularMap(((1, 0), (0, 1)), (Fraction(1, 2), 0)), DegenerateInputError),
            (lambda: AffineUnimodularMap(((True, False), (False, True)), (0, 0)), DegenerateInputError),
            (lambda: AffineUnimodularMap(((1, 0), (0, 1)), (True, 0)), DegenerateInputError),
            (lambda: AffineUnimodularMap(((1, 0, 0), (0, 1, 0)), (0, 0)), DegenerateInputError),
            (lambda: AffineUnimodularMap(((1, 0), (0, 1)), (0, 0, 0)), DimensionMismatchError),
            (lambda: AffineUnimodularMap.identity(2).apply((1, 2, 3)), DimensionMismatchError),
            (lambda: hull([(0, 0), (1, 0), (0, 1)]).faces(True), DegenerateInputError),
            (lambda: hull([(0, 0), (1, 0), (0, 1)]).faces(1.0), DegenerateInputError),
        ],
        ids=[
            "float-linear",
            "fraction-translation",
            "bool-linear",
            "bool-translation",
            "2x3-linear",
            "long-translation",
            "long-point",
            "faces-True",
            "faces-1.0",
        ],
    )
    def test_maps_and_face_dimensions_take_ints_of_the_right_shape(self, call, error):
        with pytest.raises(error):
            call()


# 4 * simplex(3) runs no Fine-interior scan (its subcones are unimodular),
# so that row takes a polytope whose Fine interior still scans.  Every
# integer-point scan reads DEFAULT_POINT_BUDGET.
@pytest.mark.parametrize(
    "constant, call, routine, vertices",
    [
        ("DEFAULT_POINT_BUDGET", LatticePolytope.classify, "LatticePolytope.lattice_points", None),
        ("DEFAULT_FACE_BUDGET", LatticePolytope.f_vector, "face_closure", None),
        ("EQUIVALENCE_BUDGET", lambda p: unimodular_equivalence(p, p), "unimodular_equivalence", None),
        ("DEFAULT_POINT_BUDGET", fine_interior, "fine_interior", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]),
        ("DEFAULT_POINT_BUDGET", check_condition_m, "reduced_witnesses", None),
        ("DEFAULT_POINT_BUDGET", LatticePolytope.lattice_width, "LatticePolytope.lattice_width", None),
        ("DEFAULT_POINT_BUDGET", lambda p: cross_check_unrestricted(p, 0), "cross_check_unrestricted", None),
    ],
    ids=["point", "face", "equivalence", "fine-interior", "witness", "width", "cross-check"],
)
def test_each_budget_constant_is_read_when_its_routine_runs(
    monkeypatch, constant, call, routine, vertices
):
    p = dilate(simplex(3), 4) if vertices is None else hull(vertices)
    monkeypatch.setattr(polytope_module, constant, 0)
    with pytest.raises(ResourceLimitError, match=rf"^{routine}: .* over its budget of 0 \("):
        call(p)
