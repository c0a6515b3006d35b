"""The one-pass integer Fine-interior scan against the earlier two-pass routine.

The oracle is the earlier fine_interior, copied below unchanged apart from
its name: Fraction pairings and slab boxes per (subcone, candidate vertex),
and a cheap pass with scans capped at 20,000 nodes before an exhaustive
pass.  The kernel clears each candidate's denominators once and scans in
integers, one pass per round.  Both must return the same emptiness,
dimension, lattice flag and vertices on the inputs of criterion 11a, the
paper's named polytopes and families, and 0/1 4-polytopes under unimodular
maps like those of the invariant-batch workload.

The oracle's _subcone_scan_frame is the earlier frame search, one Hermite
form per ray order.  The kernel keeps the rays in their given order and
runs one Hermite form, so its scans can feed other first violators into
the generators: the generators must hold every facet normal, be
primitive, and cut out the oracle's vertices.  The kernel's prefix cuts
are checked on their own: dropped, they change no generator and no vertex.

The unpruned oracle, _unpruned_fine_interior, is the kernel as it was
before it learned to skip scans: it builds a frame for every simplicial
subcone before the first round, unimodular ones too, and runs every
(subcone, candidate vertex) scan.  Its frame, _given_order_scan_frame, is
the kernel's frame as it was before the membership rows came from the
adjugate of the ray matrix: the rays in their given order, one Hermite
form, and the rows from a second adjugate in the new coordinates.  The
kernel's frame must equal it, so the comparison isolates the skipping.  A
skipped scan finds nothing, so the kernel must return exactly its
generators, vertices, dimension, emptiness and lattice flag.

The Hilbert-basis route at the end of this file (RationalCone, vertex_cone,
_fundamental_parallelepiped, _group_representatives, hilbert_basis) is the
package's earlier toric code, moved here unchanged apart from vertex_cone
becoming a function of the fan.  It reaches the Fine interior through a
second integer enumeration, Smith-form cosets of fundamental
parallelepipeds, so tests in test_toric.py use it as an independent check.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm

from sbvol import dd, toric
from sbvol.errors import (
    DegenerateInputError,
    InternalConsistencyError,
    ResourceLimitError,
    UnsupportedInputError,
)
from sbvol.families import dilated_simplex, hpt, kollar_totaro, standard_simplex, tpq
from sbvol.intlinalg import (
    adjugate,
    det,
    dot,
    hermite_form,
    invert_unimodular,
    mat_vec,
    primitive,
    rank,
    smith_form,
    transpose,
    vec_mat,
)
from sbvol.polytope import (
    AffineChart,
    LatticePolytope,
    RationalPolytope,
    _triangulate_cone,
    dilate,
    hull,
    integer_points,
)
from sbvol.toric import FineInteriorResult, NormalFan, fine_interior, normal_fan, ord_value
from sbvol.verification import SEED, _random_polytope
from test_elimination_oracle import invert_rational


def _subcone_scan_frame(tri, d):
    """Scan data for one simplicial subcone: a coordinate change making the
    ray matrix lower-triangular with large pivots early, membership
    constraints in the new coordinates, and the slab bounding box."""
    best = None
    perms = (
        itertools.permutations(range(d)) if d <= 6 else [tuple(range(d))]
    )
    for perm in perms:
        cols = [[tri[perm[j]][k] for j in range(d)] for k in range(d)]
        h, u0 = hermite_form(cols)
        piv = [abs(h[j][j]) for j in range(d)]
        score = 0
        prod = 1
        for k in range(d - 1):
            prod *= max(piv[d - 1 - k], 1)
            score += prod
        if best is None or score < best[0]:
            best = (score, u0)
    u0 = best[1]
    u = [list(r) for r in reversed(u0)]  # flip rows: structured-zero ray matrix
    uinv = invert_unimodular(u)
    new_rays = [tuple(sum(u[i][k] * r[k] for k in range(d)) for i in range(d)) for r in tri]
    # t_j >= 0 in t = M^{-1} n', for M with the rays as columns, reads
    # <row j of |det M| M^{-1}, n'> >= 0.
    m = transpose(new_rays)
    abs_det = abs(det(m))
    tcons = [(tuple(int(x * abs_det) for x in row), 0) for row in invert_rational(m)]
    lo = [sum(min(0, r[k]) for r in new_rays) for k in range(d)]
    hi = [sum(max(0, r[k]) for r in new_rays) for k in range(d)]
    return {"u": u, "uinv": uinv, "tcons": tcons, "lo": lo, "hi": hi, "rays": new_rays}


def _oracle_fine_interior(
    p: LatticePolytope, fan: NormalFan | None = None, budget=50_000_000
) -> FineInteriorResult:
    """Intersection of all supporting halfspaces shifted inward by one.

    Strategy: start from the facet normals and iterate.  If m satisfies the
    shifted facet inequalities at a vertex v, then for any dual vector
    n = sum t_j u_j in the normal cone at v with sum t_j >= 1 the shifted
    inequality for n follows by superadditivity.  So only dual vectors
    under the ray-sum-one slab of some vertex cone can cut further; those
    violating the current candidate are found by exact branch and bound
    and added until none remain.  The final generator set is therefore a
    certified cutting description of the Fine interior.
    """
    if fan is None:
        fan = normal_fan(p)
    d = p.ambient_dim
    halfspaces = {u: c + 1 for u, c in zip(fan.rays, fan.offsets)}

    frames = []  # (vertex, rays, scan frame) per simplicial vertex subcone
    for i, v in enumerate(p.vertices):
        cone_rays = [fan.rays[j] for j in sorted(fan.vertex_cones[i])]
        for tri in _triangulate_cone(cone_rays, d):
            frames.append((v, tuple(tri), _subcone_scan_frame(tri, d)))

    def scan_pass(verts, per_scan_budget):
        """(violators, complete) over every (vertex cone, candidate vertex) pair."""
        found = set()
        complete = True
        for v, rays, fr in frames:
            u, uinv, tcons = fr["u"], fr["uinv"], fr["tcons"]
            new_rays = fr["rays"]
            for q in verts:
                diff = [Fraction(a) - b for a, b in zip(q, v)]
                c_vals = [sum(x * y for x, y in zip(diff, r)) for r in rays]
                if any(c < 1 for c in c_vals):
                    raise InternalConsistencyError("candidate vertex violates a shifted facet")
                m = lcm(*(x.denominator for x in diff))
                a = [int(m * (bv - qv)) for qv, bv in zip(q, v)]  # m (v - q)
                a_t = tuple(
                    sum(a[k] * uinv[k][j] for k in range(d)) for j in range(d)
                )
                cons = tcons + [(a_t, 1 - m)]
                # The region satisfies t_j <= 1/c_j, so the slab box shrinks
                # with the pairing against the current candidate vertex.
                lo = []
                hi = []
                for k in range(d):
                    lo_k = sum(min(0, Fraction(r[k]) / c) for r, c in zip(new_rays, c_vals))
                    hi_k = sum(max(0, Fraction(r[k]) / c) for r, c in zip(new_rays, c_vals))
                    lo.append(max(fr["lo"][k], ceil(lo_k)))
                    hi.append(min(fr["hi"][k], floor(hi_k)))
                pts = []
                try:
                    for n_t in integer_points(cons, lo, hi, per_scan_budget, "fine_interior"):
                        if any(n_t):
                            pts.append(n_t)
                            if len(pts) == 4:
                                break
                except ResourceLimitError:
                    complete = False
                for n_t in pts:
                    n = tuple(sum(uinv[k][j] * n_t[j] for j in range(d)) for k in range(d))
                    # n must lie in this normal cone and violate the candidate.
                    if ord_value(p, n) != dot(v, n) or sum(df * nn for df, nn in zip(diff, n)) >= 1:
                        raise InternalConsistencyError("scan returned a dual vector outside its region")
                    found.add(primitive(n))
        return found, complete

    size = f"dimension {d}, {len(p.vertices)} vertices, {len(frames)} vertex subcones"
    spent = 0
    while spent <= budget:
        poly = RationalPolytope(
            p.ambient_dim, [(u, Fraction(c)) for u, c in halfspaces.items()]
        )
        verts = poly.vertices()
        if not verts:
            return FineInteriorResult(poly, True, -1, False, tuple(sorted(halfspaces)))
        # Cheap pass first: capped scans still find violators early; the
        # exhaustive pass runs only when a cheap pass comes back clean.
        # Each pass charges at least 1, so a zero budget still ends the loop.
        cheap = min(20_000, budget)
        found, complete = scan_pass(verts, per_scan_budget=cheap)
        spent += max(cheap, 1)
        if not found and not complete:
            found, complete = scan_pass(verts, per_scan_budget=budget)
            spent += budget // 10
        new = [n for n in found if n not in halfspaces]
        if not new:
            if not complete:
                raise ResourceLimitError(
                    f"fine_interior: an exhaustive scan spent over its budget of {budget}"
                    f" nodes ({spent} nodes charged in all; {size})"
                )
            return FineInteriorResult(
                poly, False, poly.dim(), poly.is_lattice(), tuple(sorted(halfspaces))
            )
        for n in new:
            halfspaces[n] = ord_value(p, n) + 1
    raise ResourceLimitError(
        f"fine_interior: iteration charged {spent} nodes without stabilizing, over its"
        f" budget of {budget} ({size})"
    )


def _given_order_scan_frame(tri, d):
    """Scan data (uinv, tcons, rays) for one simplicial subcone: a coordinate
    change making the ray matrix triangular, and the membership constraints
    and rays in the new coordinates.

    The coordinate change is the transform of the Hermite form of the ray
    matrix, its columns the rays in their given order, with its rows
    flipped: ray i then lives in the last i + 1 coordinates, so the prefix
    x[:j+1] is a triangular image of the last j + 1 rays alone.
    """
    _, u0 = hermite_form([[tri[j][k] for j in range(d)] for k in range(d)])
    u = [list(r) for r in reversed(u0)]  # flip rows: structured-zero ray matrix
    uinv = invert_unimodular(u)
    new_rays = [tuple(sum(u[i][k] * r[k] for k in range(d)) for i in range(d)) for r in tri]
    # t_j >= 0 in t = M^{-1} n', for M with the rays as columns, reads
    # <row j of |det M| M^{-1}, n'> >= 0, and |det M| M^{-1} = sign(det M) adj M.
    det_m, adj = adjugate(transpose(new_rays))
    tcons = [(tuple(x if det_m > 0 else -x for x in row), 0) for row in adj]
    return uinv, tcons, new_rays


def _unpruned_fine_interior(p: LatticePolytope) -> FineInteriorResult:
    """Intersection of all supporting halfspaces shifted inward by one.

    Each round runs one scan per (candidate vertex, simplicial vertex
    subcone), in integers, with a node cap of 50,000,000 on each; a scan
    over it raises ResourceLimitError.  The scan region is
    {t >= 0, sum_i pair_i t_i <= m - 1} in the subcone's triangular frame,
    and it carries the region's exact projection onto each prefix of the
    coordinates as d - 1 more constraints.
    """
    fan = normal_fan(p)
    d = p.ambient_dim
    halfspaces = {u: c + 1 for u, c in zip(fan.rays, fan.offsets)}

    frames = []  # (vertex, rays, scan frame) per simplicial vertex subcone
    for i, v in enumerate(p.vertices):
        cone_rays = [fan.rays[j] for j in sorted(fan.vertex_cones[i])]
        for tri in _triangulate_cone(cone_rays, d):
            frames.append((v, tri, _given_order_scan_frame(tri, d)))

    while True:
        poly = RationalPolytope(d, [(u, Fraction(c)) for u, c in halfspaces.items()])
        verts = poly.vertices()
        if not verts:
            return FineInteriorResult(poly, True, -1, False, tuple(sorted(halfspaces)))
        # Each candidate vertex q once in integers: Q = m q, m the lcm of its denominators.
        cleared = []
        for q in verts:
            m = lcm(*(x.denominator for x in q))
            cleared.append((m, [x.numerator * (m // x.denominator) for x in q]))
        found = set()
        for v, rays, (uinv, tcons, new_rays) in frames:
            abs_det = dot(tcons[0][0], new_rays[0])  # row 0 of |det M| M^{-1} times column 0 of M
            for m, big in cleared:
                pair = [dot(big, r) - m * dot(v, r) for r in rays]  # m <q - v, r>
                if any(c < m for c in pair):
                    raise InternalConsistencyError("candidate vertex violates a shifted facet")
                # m <q - v, n> <= m - 1, that is <m v - Q, n> >= 1 - m.
                cut = (vec_mat([m * a - b for a, b in zip(v, big)], uinv), 1 - m)
                # The region satisfies 0 <= t_j <= m / pair_j, so its box is the
                # bounding box of that scaled slab; den clears the pairings.
                den = lcm(*pair)
                spans = [[r[k] * (den // c) for r, c in zip(new_rays, pair)] for k in range(d)]
                lo = [-(-m * sum(min(0, x) for x in span) // den) for span in spans]
                hi = [m * sum(max(0, x) for x in span) // den for span in spans]
                # The prefix x[:j+1] sees only the last j + 1 rays, so the region's
                # exact projection onto it is sum_{i >= d-1-j} pair_i t_i <= m - 1.
                prefix = [0] * d
                cuts = []
                for i in range(d - 1, 0, -1):
                    prefix = [s - pair[i] * a for s, a in zip(prefix, tcons[i][0])]
                    cuts.append((tuple(prefix), (1 - m) * abs_det))
                scan = integer_points(tcons + [cut] + cuts, lo, hi, 50_000_000, "fine_interior")
                for n_t in itertools.islice(filter(any, scan), 4):
                    n = mat_vec(uinv, n_t)
                    # n must lie in this normal cone and violate the candidate.
                    if ord_value(p, n) != dot(v, n) or dot(big, n) - m * dot(v, n) >= m:
                        raise InternalConsistencyError("scan returned a dual vector outside its region")
                    found.add(primitive(n))
        new = [n for n in found if n not in halfspaces]
        if not new:
            return FineInteriorResult(
                poly, False, poly.dim(), poly.is_lattice(), tuple(sorted(halfspaces))
            )
        for n in new:
            halfspaces[n] = ord_value(p, n) + 1


def assert_agrees(p):
    got = fine_interior(p)
    want = _oracle_fine_interior(p)
    assert (got.is_empty, got.dim, got.is_lattice) == (want.is_empty, want.dim, want.is_lattice)
    assert got.vertices() == want.vertices()
    assert set(normal_fan(p).rays) <= set(got.generators)
    assert all(primitive(n) == n for n in got.generators)
    shifted = [(n, Fraction(ord_value(p, n) + 1)) for n in got.generators]
    assert RationalPolytope(p.ambient_dim, shifted).vertices() == want.vertices()
    return got


@functools.cache
def _criterion_11a_inputs():
    """The 400 polytopes of criterion 11a, drawn as it draws them."""
    rng = random.Random(SEED)
    out = []
    while len(out) < 400:
        dim = rng.choice([2, 2, 2, 3, 3, 4])
        big = _random_polytope(rng, dim)
        pts = big.lattice_points()
        if len(pts) <= dim + 1:
            continue
        k = rng.randint(dim + 1, min(len(pts), dim + 4))
        small = hull(rng.sample(pts, k))
        if small.dim() != dim:
            continue
        out += [small, big]
    return out


def test_criterion_11a_inputs():
    inputs = _criterion_11a_inputs()
    # each distinct polytope of dimension 2 or 3 once, and the smaller
    # polytope of each of the first twelve dimension-4 pairs
    low = {p.vertices: p for p in inputs if p.dim() <= 3}
    four = [p for p in inputs if p.dim() == 4][0:24:2]
    results = [assert_agrees(p) for p in list(low.values()) + four]
    # the inputs reach empty, lower-dimensional, full and non-lattice results
    assert {fi.is_empty for fi in results} == {False, True}
    assert {fi.dim for fi in results} >= {-1, 0, 1, 2, 3}
    assert any(not fi.is_empty and not fi.is_lattice for fi in results)


def _named_polytopes():
    return [
        hull([(0, 2, 2), (1, 3, 0), (2, 4, 3), (3, 0, 1)]),  # criterion 1
        hull([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (6, 14, 17, 65)]),
        kollar_totaro(4, 4),
        kollar_totaro(3, 4),
        hpt(),
        dilated_simplex(2, 3),
        dilated_simplex(3, 4),
        dilated_simplex(4, 2),
        dilated_simplex(5, 3),
        tpq(2, 3),
        tpq(3, 4),
        hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]),
        hull([(0, 0), (7, 2), (3, 9)]),
    ]


def test_named_polytopes_and_families():
    results = [assert_agrees(p) for p in _named_polytopes()]
    assert [fi.dim for fi in results[:3]] == [3, 4, -1]


def test_prefix_cuts_change_no_generator(monkeypatch):
    low = {p.vertices: p for p in _criterion_11a_inputs() if p.dim() <= 3}
    inputs = _named_polytopes() + list(low.values())
    with_cuts = [fine_interior(p) for p in inputs]
    scan = toric.integer_points

    def without_cuts(constraints, lo, hi, budget, routine):
        # d membership constraints and the region's own cut, then the d - 1 prefix cuts
        assert len(constraints) == 2 * len(lo)
        return scan(constraints[: len(lo) + 1], lo, hi, budget, routine)

    monkeypatch.setattr(toric, "integer_points", without_cuts)
    for p, got in zip(inputs, with_cuts):
        want = fine_interior(p)
        assert (got.generators, got.vertices()) == (want.generators, want.vertices())


def _unimodular_01_polytopes(rng, count):
    out = []
    while len(out) < count:
        pts = {tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(5 + rng.randint(0, 3))}
        lin = [[int(i == j) for j in range(4)] for i in range(4)]
        for _ in range(4):
            i, j = rng.sample(range(4), 2)
            sign = rng.choice((-1, 1))
            row = [a + sign * b for a, b in zip(lin[i], lin[j])]
            if max(abs(x) for x in row) <= 1:
                lin[i] = row
        assert abs(det(lin)) == 1
        shift = [rng.randint(-3, 3) for _ in range(4)]
        p = hull([tuple(sum(a * x for a, x in zip(row, q)) + t for row, t in zip(lin, shift)) for q in pts])
        if p.dim() == 4:
            out.append(p)
    return out


def test_unimodular_images_of_01_polytopes():
    for p in _unimodular_01_polytopes(random.Random(8), 20):
        assert_agrees(p)


# -- skipped scans ------------------------------------------------------------------


def _distinct_11a_inputs():
    return list({p.vertices: p for p in _criterion_11a_inputs()}.values())


def _outcome(fi):
    return (fi.generators, fi.vertices(), fi.dim, fi.is_empty, fi.is_lattice)


def test_skipping_scans_changes_no_result():
    inputs = (
        _distinct_11a_inputs()
        + _named_polytopes()
        + _unimodular_01_polytopes(random.Random(8), 20)
    )
    assert len(inputs) > 350
    for p in inputs:
        assert _outcome(fine_interior(p)) == _outcome(_unpruned_fine_interior(p)), p.vertices


def _counted(monkeypatch, name):
    calls = []
    real = getattr(toric, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(toric, name, counting)
    return calls


def test_unimodular_subcones_run_no_scan(monkeypatch):
    p = dilate(standard_simplex(3), 4)
    want = _unpruned_fine_interior(p)
    scans = _counted(monkeypatch, "integer_points")
    frames = _counted(monkeypatch, "hermite_form")
    got = fine_interior(p)
    assert _outcome(got) == _outcome(want)
    assert got.vertices() == ((1, 1, 1),)
    assert scans == [] and frames == []


def test_an_empty_first_candidate_builds_no_frame(monkeypatch):
    p = dilate(standard_simplex(2), 2)
    cones = _counted(monkeypatch, "_triangulate_cone")
    got = fine_interior(p)
    assert got.is_empty and cones == []
    assert _outcome(got) == _outcome(_unpruned_fine_interior(p))


def test_every_scan_the_rule_skips_finds_no_point(monkeypatch):
    rule = toric._no_violator
    scan = toric.integer_points
    skipped = []  # the decision of the rule for the scan about to run
    checked = []

    def let_it_run(pair, gcds, m, abs_det):
        skipped.append(rule(pair, gcds, m, abs_det))
        return False

    def scan_skipped_to_the_end(constraints, lo, hi, budget, routine):
        points = scan(constraints, lo, hi, budget, routine)
        if not skipped.pop():
            return points
        points = list(points)
        assert not any(any(x) for x in points), (constraints, lo, hi)
        checked.append(len(points))
        return iter(points)

    monkeypatch.setattr(toric, "_no_violator", let_it_run)
    monkeypatch.setattr(toric, "integer_points", scan_skipped_to_the_end)
    for p in _distinct_11a_inputs() + _named_polytopes():
        fine_interior(p)
    assert skipped == []
    assert len(checked) > 1000


# -- subcone frames -------------------------------------------------------------


def _subcones(polytopes):
    """Each distinct simplicial vertex subcone of the polytopes, with its dimension."""
    out = {}
    for p in polytopes:
        fan = normal_fan(p)
        for cone in fan.vertex_cones:
            for tri in _triangulate_cone([fan.rays[j] for j in sorted(cone)], p.ambient_dim):
                out[tuple(tri)] = p.ambient_dim
    return list(out.items())


def _random_cone(rng, d):
    """d independent primitive rays with entries in -3..3."""
    while True:
        rays = [primitive(tuple(rng.randint(-3, 3) for _ in range(d))) for _ in range(d)]
        if all(any(r) for r in rays) and det([list(r) for r in rays]) != 0:
            return rays


def _unimodular_cone(rng, d):
    """The rows of a unimodular matrix: the identity under a few row additions."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


def _identity_order(tri, d):
    """The ray matrix, rays as columns in their given order."""
    return [[tri[j][k] for j in range(d)] for k in range(d)]


def _frame_inputs():
    rng = random.Random(13)
    sizes = ((2, 20), (3, 20), (4, 20), (5, 4), (6, 2))
    random_cones = [(_random_cone(rng, d), d) for d, n in sizes for _ in range(n)]
    unimodular = [(_unimodular_cone(rng, d), d) for d in (2, 3, 4, 5, 6)]
    if any(abs(det([list(r) for r in tri])) != 1 for tri, _ in unimodular):
        raise AssertionError("a unimodular cone is not unimodular")
    seven = [(_random_cone(rng, 7), 7)]
    return _subcones(_criterion_11a_inputs()) + random_cones, unimodular, seven


def _membership_rows(tri):
    """The rows of |det M| M^{-1}, for M with the rays as columns."""
    det_m, adj = adjugate(transpose(tri))
    return [tuple(x if det_m > 0 else -x for x in row) for row in adj]


def test_one_hermite_form_per_subcone(monkeypatch):
    seen = []

    def counting(a):
        seen.append(a)
        return hermite_form(a)

    monkeypatch.setattr(toric, "hermite_form", counting)
    general, unimodular, seven = _frame_inputs()
    assert {d for _, d in general} == {2, 3, 4, 5, 6}
    for tri, d in general + unimodular + seven:
        seen.clear()
        frame = toric._subcone_scan_frame(tri, _membership_rows(tri))
        assert seen == [_identity_order(tri, d)]
        assert frame == _given_order_scan_frame(tri, d)


def test_every_frame_is_built_for_a_scan_of_its_subcone(monkeypatch):
    # A frame's Hermite form H = U M is followed by a scan whose membership
    # rows, rows of |det M| M^{-1} U^{-1}, pair with the columns of the
    # flipped H (the rays U M) to |det M| times the identity.
    pending = []  # the flipped H of a frame whose scan has not run yet
    built = []
    scans = toric.integer_points
    real = toric.hermite_form

    def hermite(a):
        assert not pending, "a frame was built with no scan of its subcone"
        h, u = real(a)
        pending.append(h[::-1])
        built.append(a)
        return h, u

    def scan(constraints, lo, hi, budget, routine):
        if pending:
            new_rays = list(zip(*pending.pop()))
            table = [[dot(a, r) for r in new_rays] for a, _ in constraints[: len(lo)]]
            abs_det = table[0][0]
            assert abs_det > 0
            assert table == [[abs_det * (i == j) for j in range(len(lo))] for i in range(len(lo))]
        return scans(constraints, lo, hi, budget, routine)

    monkeypatch.setattr(toric, "hermite_form", hermite)
    monkeypatch.setattr(toric, "integer_points", scan)
    for p in _named_polytopes() + _distinct_11a_inputs():
        fine_interior(p)
        assert not pending, p.vertices
    assert len(built) > 500


# -- the Hilbert-basis route ---------------------------------------------------------


@dataclass(frozen=True)
class RationalCone:
    """cone(generators) with cached facet data; generators are primitive."""

    dim: int
    generators: tuple

    @staticmethod
    def from_generators(gens):
        gens = tuple(sorted(set(primitive(g) for g in gens if any(g))))
        if not gens:
            raise DegenerateInputError("cone needs at least one nonzero generator")
        return RationalCone(len(gens[0]), gens)

    def facet_data(self):
        """(inequalities, span equations) cutting the cone out of its ambient space."""
        return self._facet_data

    @cached_property
    def _facet_data(self):
        return dd.extreme_rays(self.generators, self.dim)[:2]

    def rank(self) -> int:
        return rank([list(g) for g in self.generators])

    def is_pointed(self) -> bool:
        normals, _ = self.facet_data()
        return rank([list(n) for n in normals]) == self.rank()

    def contains(self, x) -> bool:
        normals, equations = self.facet_data()
        return all(dot(n, x) >= 0 for n in normals) and all(
            dot(e, x) == 0 for e in equations
        )


def vertex_cone(fan: NormalFan, i) -> RationalCone:
    return RationalCone.from_generators([fan.rays[j] for j in sorted(fan.vertex_cones[i])])


def _fundamental_parallelepiped(gens, dim):
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for independent generators.

    In the chart of their span the generators are the columns of a square
    integer matrix M; each coset representative r of Z^d / M Z^d is moved
    into the parallelepiped by subtracting M floor(adj(M) r / det M).
    """
    chart = AffineChart.for_points([tuple([0] * dim)] + list(gens))
    m_cols = transpose([chart.to_chart(g) for g in gens])
    det_m, adj = adjugate(m_cols)
    out = set()
    for r in _group_representatives(m_cols):
        shift = [t // det_m for t in mat_vec(adj, r)]
        out.add(chart.from_chart(tuple(a - b for a, b in zip(r, mat_vec(m_cols, shift)))))
    return out


def _group_representatives(m_cols):
    """Coset representatives of Z^d / (column lattice of m_cols)."""
    d = len(m_cols)
    sd = smith_form(m_cols)
    diag = [sd.s[i][i] for i in range(d)]
    u_inv = invert_unimodular([list(r) for r in sd.u])
    reps = []
    for combo in itertools.product(*(range(max(abs(x), 1)) for x in diag)):
        reps.append(mat_vec(u_inv, combo))
    return reps


def hilbert_basis(cone: RationalCone):
    """The unique minimal generating set of cone intersect the lattice.

    Triangulates into simplicial subcones, collects fundamental
    parallelepiped points, then extracts the irreducible elements by a
    greedy pass in increasing order of a strictly positive functional.
    """
    if not cone.is_pointed():
        raise UnsupportedInputError("Hilbert basis requires a pointed cone")
    normals, _ = cone.facet_data()
    candidates = set(cone.generators)
    for sub in _triangulate_cone(list(cone.generators), cone.rank()):
        for p in _fundamental_parallelepiped(sub, cone.dim):
            if any(x != 0 for x in p):
                candidates.add(p)

    def phi(x):
        return sum(dot(n, x) for n in normals)

    basis = []
    for c in sorted(candidates, key=lambda x: (phi(x), x)):
        reducible = False
        for b in basis:
            diff = tuple(a - t for a, t in zip(c, b))
            if cone.contains(diff):
                reducible = True
                break
        if not reducible:
            basis.append(c)
    return tuple(sorted(basis))
