"""Wolfe's minimum-norm-point distance against the face-projection oracle and the Fraction Wolfe.

The first oracle is the earlier min_squared_distance: it projects the point
onto the affine span of every face and keeps the nearest projection that
lies in the polytope.  The two must agree exactly (Fraction equality) on the
staged double-cone chain, on the dim4 pipeline heights and on random
polytopes.

A point of the polytope is answered 0 by the containment test alone.  On
those points the slow path, certified Wolfe on the same integer points,
must give 0 as well, and 0 must come exactly for the contained points.

The second oracle is the earlier Wolfe in Fractions, `_wolfe_min_norm`,
`_affine_minimizer`, `_combination` and `_certify_min_norm`, copied below
unchanged apart from their names.  The package runs Wolfe in integers over
one common denominator; on every run of the dim4 heights under seeded
signed permutations, of the staged double-cone chain and of seeded random
polytopes, both must give the same corral, the same weights, the same
nearest point and the same distance.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

import sbvol.subdivision as subdivision_module
from sbvol.errors import DegenerateInputError, InternalConsistencyError
from sbvol.families import dilated_simplex, divisor_23_double_cone, kollar_totaro
from sbvol.intlinalg import adjugate, dot, rank, solve_rational, vec_mat
from sbvol.polytope import LatticePolytope, RationalPolytope, face_closure, hull, slacks
from sbvol.subdivision import (
    _certify_min_norm,
    _translated,
    _vertex_list,
    _wolfe_min_norm,
    distance_height,
    min_squared_distance,
)


# -- the earlier Wolfe in Fractions, unchanged ------------------------------------------


def oracle_combination(points, weights):
    """(Y, D) with sum w_i p_i = Y / D: Y is integer for integer points, D > 0."""
    den = lcm(*(w.denominator for w in weights))
    ints = [int(w * den) for w in weights]
    return vec_mat(ints, points), den


def oracle_certify_min_norm(points, weights, y):
    """Raise unless y = sum w_i p_i is the point of conv(points) nearest the origin.

    Convex weights put y in the hull, and <y, p> >= |y|^2 for every integer
    point p puts the hull where every norm is at least |y| (Wolfe 1976).
    """
    big, den = oracle_combination(points, weights)
    if min(weights) < 0 or sum(weights) != 1 or tuple(c * den for c in y) != big:
        raise InternalConsistencyError("min-norm weights are not convex or miss the point")
    if den * min(dot(big, p) for p in points) < dot(big, big):
        raise InternalConsistencyError("min-norm point is not optimal over the hull")


def oracle_affine_minimizer(corral):
    """Weights of the point of the affine span nearest the origin, from adj [G 1; 1^T 0]."""
    k = len(corral)
    system = [[dot(p, q) for q in corral] + [1] for p in corral] + [[1] * k + [0]]
    try:
        d, adj = adjugate(system)
    except DegenerateInputError:
        raise InternalConsistencyError("corral points are affinely dependent") from None
    return [Fraction(row[k], d) for row in adj[:k]]


def oracle_wolfe_min_norm(points):
    """Weights (aligned with points) and the point y = Y / D of their hull nearest the origin.

    Wolfe's algorithm: a major cycle adds the point minimising <y, p> to the
    corral; minor cycles move to the affine minimum of the corral and drop
    points whose weight reaches 0.  Each major cycle must lower |y|.
    """
    corral = [min(range(len(points)), key=lambda i: dot(points[i], points[i]))]
    lam = [Fraction(1)]
    big, den = points[corral[0]], 1
    yy = Fraction(dot(big, big))
    while yy > 0:
        j = min(range(len(points)), key=lambda i: dot(big, points[i]))
        if Fraction(dot(big, points[j]), den) >= yy:
            break
        corral, lam = corral + [j], lam + [Fraction(0)]
        while True:
            alpha = oracle_affine_minimizer([points[i] for i in corral])
            if min(alpha) > 0:
                break
            # theta 0 only drops an entering point without weight: the norm check fails.
            theta = min((l / (l - a) for l, a in zip(lam, alpha) if a <= 0 < l), default=0)
            lam = [l + theta * (a - l) for l, a in zip(lam, alpha)]
            corral, lam = [i for i, l in zip(corral, lam) if l > 0], [l for l in lam if l > 0]
        lam = list(alpha)
        big, den = oracle_combination([points[i] for i in corral], lam)
        if Fraction(dot(big, big), den * den) >= yy:
            raise InternalConsistencyError("a Wolfe major cycle did not lower the norm")
        yy = Fraction(dot(big, big), den * den)
    weights = dict(zip(corral, lam))
    return [weights.get(i, 0) for i in range(len(points))], tuple(Fraction(c, den) for c in big)


# -- the face-projection oracle ----------------------------------------------------------


def _face_vertex_lists(poly):
    """Vertex lists of all faces, for lattice or rational polytopes."""
    verts = _vertex_list(poly)
    if isinstance(poly, LatticePolytope):
        return [[verts[i] for i in range(len(verts)) if f >> i & 1] for f in poly._face_masks()]
    if not verts:
        raise DegenerateInputError("empty polytope has no faces")
    full = frozenset(range(len(verts)))
    rows = [tuple(slacks(poly.halfspaces, v)) for v in verts]
    tight = [frozenset(i for i, s in enumerate(col) if s == 0) for col in zip(*rows)]
    faces = face_closure(full, [t for t in tight if t])
    return [[verts[i] for i in sorted(f)] for f in faces]


def _projection_data(face_vertices):
    """(base, basis rows, coefficient matrix) projecting onto the affine span."""
    base = tuple(Fraction(x) for x in face_vertices[0])
    diffs = []
    for v in face_vertices[1:]:
        dv = tuple(Fraction(a) - b for a, b in zip(v, base))
        cand = diffs + [dv]
        if rank([[x for x in row] for row in cand]) == len(cand):
            diffs.append(dv)
    if not diffs:
        return (base, (), ())
    k = len(diffs)
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in diffs] for r1 in diffs]
    ginv_rows = []
    for i in range(k):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(k)]
        ginv_rows.append(solve_rational(gram, rhs))
    # coeff = G^{-1} B, mapping (x - base) to the span coordinates of the projection
    coeff = tuple(
        tuple(sum(ginv_rows[i][t] * diffs[t][j] for t in range(k)) for j in range(len(base)))
        for i in range(k)
    )
    return (base, tuple(diffs), coeff)


def oracle_min_squared_distance(poly, x) -> Fraction:
    """Exact squared Euclidean distance from x to a (lattice or rational) polytope."""
    data = poly._cache.get("nearest_data") if hasattr(poly, "_cache") else None
    if data is None:
        data = [_projection_data(f) for f in _face_vertex_lists(poly)]
        if hasattr(poly, "_cache"):
            poly._cache["nearest_data"] = data
    xs = tuple(Fraction(v) for v in x)
    best = None
    for base, basis, coeff in data:
        diff = tuple(a - b for a, b in zip(xs, base))
        proj = list(base)
        if basis:
            lam = [sum(c * dv for c, dv in zip(row, diff)) for row in coeff]
            for l, b in zip(lam, basis):
                for j in range(len(proj)):
                    proj[j] += l * b[j]
        if not poly.contains(proj):
            continue
        d2 = sum((a - b) ** 2 for a, b in zip(xs, proj))
        if best is None or d2 < best:
            best = d2
    if best is None:
        raise InternalConsistencyError("no face of the polytope holds the nearest point")
    return best


def assert_agrees(poly, queries):
    for x in queries:
        new = min_squared_distance(poly, x)
        assert type(new) is Fraction
        assert new == oracle_min_squared_distance(poly, x), (poly, x)


def assert_zero_path(poly, x, oracle=None):
    """0 exactly when poly contains x; then certified Wolfe gives 0, else the value is the oracle's.

    Returns whether x is contained.
    """
    got = min_squared_distance(poly, x)
    inside = poly.contains(x)
    assert (got == 0) == inside, (poly, x)
    if inside:
        points, _ = _translated(_vertex_list(poly), x)
        weights, den, big = _wolfe_min_norm(points)
        _certify_min_norm(points, weights, den, big)
        assert not any(big)
    else:
        assert got == (oracle_min_squared_distance(poly, x) if oracle is None else oracle)
    return inside


# -- the staged double-cone chain --------------------------------------------------


def _signed_permutation(rng, dim):
    """x -> (signs[i] * x[perm[i]] + t[i])_i: a Euclidean isometry of Z^dim."""
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    trans = [rng.randint(-5, 5) for _ in range(dim)]

    def point(x):
        return tuple(s * x[j] + t for j, s, t in zip(perm, signs, trans))

    def halfspace(n, c):
        pn = tuple(s * n[j] for j, s in zip(perm, signs))
        return pn, c + sum(a * t for a, t in zip(pn, trans))

    return point, halfspace


def _permuted_chain(seed):
    """The stage chain of divisor_23_double_cone and its lattice points, moved by a seeded isometry."""
    dc = divisor_23_double_cone()
    point, halfspace = _signed_permutation(random.Random(seed), dc.polytope.ambient_dim)
    chain = []
    for stage in list(dc.slices()) + [dc.embedded_base()]:
        if isinstance(stage, LatticePolytope):
            chain.append(hull([point(v) for v in stage.vertices]))
        else:
            chain.append(
                RationalPolytope(stage.ambient_dim, [halfspace(n, c) for n, c in stage.halfspaces])
            )
    return chain, [point(x) for x in dc.polytope.lattice_points()]


@pytest.fixture(scope="module")
def chain_oracle():
    """Oracle distances on the chain of seed 0, stage by stage (the slow part)."""
    chain, points = _permuted_chain(0)
    return [[oracle_min_squared_distance(stage, x) for x in points] for stage in chain]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_staged_double_cone_chain(seed, chain_oracle):
    # Distances are invariant under the isometries, so every seed must
    # reproduce the oracle values of seed 0, point for point.
    chain, points = _permuted_chain(seed)
    kinds = [type(stage).__name__ for stage in chain]
    assert kinds == ["LatticePolytope", "RationalPolytope", "LatticePolytope"]
    assert all(type(c) is Fraction for v in chain[1].vertices() for c in v)
    got = [[min_squared_distance(stage, x) for x in points] for stage in chain]
    assert got == chain_oracle
    staged = sorted(map(sum, zip(*got)))
    assert staged == sorted([Fraction(0)] * 12 + [Fraction(1), Fraction(6, 5), Fraction(2), Fraction(2)])


@pytest.mark.parametrize("seed", [0, 5, 6])
def test_staged_double_cone_zero_path(seed, chain_oracle):
    chain, points = _permuted_chain(seed)
    kinds = {(type(stage).__name__, stage.dim() < stage.ambient_dim) for stage in chain}
    assert kinds == {("LatticePolytope", False), ("RationalPolytope", True), ("LatticePolytope", True)}
    inside = [
        sum(assert_zero_path(stage, x, want) for x, want in zip(points, row))
        for stage, row in zip(chain, chain_oracle)
    ]
    assert inside == [16, 14, 12]  # of the 16 lattice points


def test_dim4_target_zero_path():
    big, small = dilated_simplex(4, 4), kollar_totaro(3, 4)
    inside = [assert_zero_path(small, x) for x in big.lattice_points()]
    assert sum(inside) == small.n_lattice_points() < len(inside)


def test_dim4_pipeline_heights():
    big, small = dilated_simplex(4, 4), kollar_totaro(3, 4)
    heights = distance_height(big, small)
    assert heights == {x: oracle_min_squared_distance(small, x) for x in big.lattice_points()}
    assert sum(1 for h in heights.values() if h == 0) == small.n_lattice_points()


# -- random polytopes ----------------------------------------------------------------


def _random_lattice_polytope(rng, dim):
    """Hull of random points on a random lattice of rank 0..dim: often lower-dimensional."""
    k = rng.randint(0, dim)
    frame = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(dim)]
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    pts = []
    for _ in range(rng.randint(1, k + 3)):
        u = [rng.randint(0, 2) for _ in range(k)]
        pts.append(tuple(sum(a * b for a, b in zip(row, u)) + t for row, t in zip(frame, shift)))
    return hull(pts)


def _queries(rng, poly, dim, count=6):
    """Lattice points of the polytope, integer points around it, and rational points."""
    inside = list(poly.lattice_points())
    out = rng.sample(inside, min(len(inside), 3))
    for _ in range(count):
        out.append(tuple(rng.randint(-8, 8) for _ in range(dim)))
    out.append(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(dim)))
    return out


def test_random_lattice_polytopes():
    rng = random.Random(1976)
    seen = set()
    for trial in range(200):
        dim = 1 + trial % 4
        p = _random_lattice_polytope(rng, dim)
        seen.add((dim, p.dim()))
        assert_agrees(p, _queries(rng, p, dim))
    # Single points, segments and full-dimensional polytopes in every ambient dimension.
    assert {(d, 0) for d in range(1, 5)} <= seen
    assert {(d, d) for d in range(1, 5)} <= seen
    assert (4, 2) in seen


def test_random_rational_polytopes():
    # Facets of a lattice polytope pushed inward by a third: fractional vertices.
    rng = random.Random(11)
    fractional = 0
    for trial in range(60):
        dim = 2 + trial % 2
        while True:
            p = hull([tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(dim + 3)])
            if p.is_full_dimensional():
                break
        q = RationalPolytope(dim, [(n, c + Fraction(1, 3)) for n, c in p.facet_system()])
        if q.is_empty():
            continue
        fractional += not q.is_lattice()
        assert_agrees(q, _queries(rng, q, dim))
    assert fractional >= 20


def _boundary_queries(rng, poly, dim):
    """Vertices, edge midpoints and the vertex centroid, each also pushed a little outward."""
    verts = [tuple(Fraction(c) for c in v) for v in _vertex_list(poly)]
    centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
    out = [centroid] + verts
    out += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in zip(verts, verts[1:])]
    for v in list(out):
        direction = [rng.randint(-1, 1) for _ in range(dim)]
        out.append(tuple(c + Fraction(e, 7) for c, e in zip(v, direction)))
    return out


def test_random_polytopes_zero_path():
    rng = random.Random(1977)
    inside = outside = 0
    for trial in range(80):
        dim = 1 + trial % 4
        if trial % 2:
            poly = _random_lattice_polytope(rng, dim)
        else:
            while True:
                p = hull([tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(dim + 2)])
                if p.is_full_dimensional():
                    break
            poly = RationalPolytope(dim, [(n, c + Fraction(1, 3)) for n, c in p.facet_system()])
            if poly.is_empty():
                continue
        for x in _boundary_queries(rng, poly, dim) + _queries(rng, poly, dim, count=3):
            if assert_zero_path(poly, x):
                inside += 1
            else:
                outside += 1
    assert inside >= 700 and outside >= 600, (inside, outside)


def test_hypothesis_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def polytope_and_point(draw):
        dim = draw(st.integers(1, 3))
        coord = st.integers(-3, 3)
        pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=dim + 3))
        x = draw(st.tuples(*[st.fractions(-6, 6, max_denominator=4)] * dim))
        return hull(pts), x

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polytope_and_point())
    def check(case):
        poly, x = case
        assert_agrees(poly, [x])

    check()


# -- Wolfe in integers against Wolfe in Fractions ------------------------------------------


def assert_wolfe_agrees(points, scale):
    """Both Wolfes certify the same corral, weights, nearest point and distance."""
    weights, den, big = _wolfe_min_norm(points)
    _certify_min_norm(points, weights, den, big)
    want_weights, want_y = oracle_wolfe_min_norm(points)
    oracle_certify_min_norm(points, want_weights, want_y)
    assert den > 0 and all(type(c) is int for c in (*weights, den, *big))
    got = [Fraction(w, den) for w in weights]
    assert [i for i, w in enumerate(got) if w] == [i for i, w in enumerate(want_weights) if w]
    assert got == want_weights, points
    assert tuple(Fraction(c, den) for c in big) == want_y
    assert Fraction(dot(big, big), (den * scale) ** 2) == Fraction(dot(want_y, want_y), scale * scale)


@pytest.fixture
def minor_steps(monkeypatch):
    """Counts the affine minima that leave the hull of their corral, each a minor-cycle step."""
    count = [0]
    original = subdivision_module._affine_minimizer

    def counted(corral):
        alpha, e = original(corral)
        count[0] += min(alpha) <= 0
        return alpha, e

    monkeypatch.setattr(subdivision_module, "_affine_minimizer", counted)
    return count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_wolfe_on_the_dim4_heights(seed, minor_steps):
    point, _ = _signed_permutation(random.Random(seed), 4)
    small = hull([point(v) for v in kollar_totaro(3, 4).vertices])
    for x in dilated_simplex(4, 4).lattice_points():
        assert_wolfe_agrees(*_translated(_vertex_list(small), point(x)))
    assert minor_steps[0] > 0


@pytest.mark.parametrize("seed", [0, 7])
def test_integer_wolfe_on_the_staged_double_cone_chain(seed, minor_steps):
    chain, points = _permuted_chain(seed)
    for stage in chain:
        for x in points:
            assert_wolfe_agrees(*_translated(_vertex_list(stage), x))
    assert minor_steps[0] > 0


def test_integer_wolfe_on_random_polytopes(minor_steps):
    rng = random.Random(1978)
    runs = 0
    for trial in range(60):
        dim = 1 + trial % 5
        if trial % 3:
            poly = _random_lattice_polytope(rng, dim)
        else:
            p = hull([tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(dim + 3)])
            poly = RationalPolytope(dim, [(n, c + Fraction(1, 3)) for n, c in p.facet_system()])
            if poly.is_empty():
                continue
        for x in _queries(rng, poly, dim, count=4):
            assert_wolfe_agrees(*_translated(_vertex_list(poly), x))
            runs += 1
    assert runs >= 400 and minor_steps[0] >= 20, (runs, minor_steps[0])
