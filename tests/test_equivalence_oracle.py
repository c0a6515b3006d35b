"""Unimodular equivalence against the earlier fingerprint-screened search.

The oracle is the earlier unimodular_equivalence, copied below with only
its budget read through the module, so a test can lower it for both:
it answers "inequivalent" whenever the two fingerprints differ (dimension,
vertex and lattice-point counts, volume, width, f-vector) and runs the
frame search otherwise.  The package now screens only by the dimension,
the normalized volume and the sorted lattice distances from each vertex to
the facets, so more pairs reach the search, and its search sends a frame
vertex only to vertices of the same distances.  Both must give the same status and the same map
on the images of criterion 11b, on every pair of T(p, q) with q <= 7, on
the named polytopes and families, on every pair of interior cells of
criterion 5 and of seeded regular subdivisions in dimensions 2 to 4 (so
lower-dimensional cells, which get no ambient map, are covered), and on
points of different spaces.  Each side runs on fresh copies, so no cache
of one feeds the other.  The screen reads no fingerprint, width, lattice
point or face lattice, which is pinned too.
"""

import random
from math import gcd

import pytest

from sbvol import polytope
from sbvol.errors import ResourceLimitError
from sbvol.families import dilated_simplex, hpt, kollar_totaro, tpq
from sbvol.intlinalg import adjugate, det, dot, mat_mul, rank, transpose
from sbvol.polytope import (
    AffineUnimodularMap,
    EquivalenceResult,
    LatticePolytope,
    _frame,
    _instance,
    hull,
    unimodular_equivalence,
)
from sbvol.subdivision import height_function, interior_cells, regular_subdivision
from sbvol.verification import SEED, _random_polytope, _random_unimodular

# -- the earlier routine ----------------------------------------------------------------


def oracle_equivalence(p, q):
    """Search for an affine unimodular map with T(p) = q.

    Polytopes are first compared by unimodular-invariant fingerprints
    (definite inequivalence on mismatch), then a vertex-anchored frame
    search spends at most EQUIVALENCE_BUDGET nodes; a spent budget raises
    ResourceLimitError instead of reading as either answer.  The ambient
    map is provided when both inputs are full-dimensional in the same
    ambient space, or are points of one space.
    """
    _instance(p, LatticePolytope, "a lattice polytope")
    _instance(q, LatticePolytope, "a lattice polytope")
    if p.fingerprint() != q.fingerprint():
        return EquivalenceResult("inequivalent", None)
    pa, chart_p = p.normalize_full_dimensional()
    qa, chart_q = q.normalize_full_dimensional()
    d = pa.dim()
    if d == 0:
        shift = tuple(a - b for a, b in zip(q.vertices[0], p.vertices[0]))
        m = AffineUnimodularMap.identity(p.ambient_dim)
        amb = AffineUnimodularMap(m.linear, shift) if p.ambient_dim == q.ambient_dim else None
        return EquivalenceResult("found", amb)

    pv = list(pa.vertices)
    qv = list(qa.vertices)
    v0 = pv[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in pv[1:]]
    frame_idx = _frame(diffs)
    # A maps frame row f_j to the picked w_j, so A^T = F^{-1} W for W with
    # rows w_j; with D = det F, the integer matrix D F^{-1} is computed once.
    det_f, adj = adjugate([list(diffs[i]) for i in frame_idx])

    p_tight = [m.bit_count() for m in pa._vertex_carriers()]  # facets at each vertex
    p_counts = [p_tight[i + 1] for i in frame_idx]
    q_count_of = {w: m.bit_count() for w, m in zip(qv, qa._vertex_carriers())}
    v0_count = p_tight[0]

    nodes = 0
    for w0 in qv:
        if q_count_of[w0] != v0_count:
            continue
        cands = [
            [tuple(a - b for a, b in zip(w, w0)) for w in qv if w != w0 and q_count_of[w] == pc]
            for pc in p_counts
        ]

        def search(depth, picked):
            nonlocal nodes
            if depth == d:
                nodes += 1
                if nodes > polytope.EQUIVALENCE_BUDGET:
                    raise ResourceLimitError(
                        f"unimodular_equivalence: frame search spent {nodes} nodes, over its"
                        f" budget of {polytope.EQUIVALENCE_BUDGET} (dimension {d}, {len(pv)} vertices)"
                    )
                scaled = transpose(mat_mul(adj, picked))  # D A
                if any(x % det_f for row in scaled for x in row):
                    return None
                lin = tuple(tuple(x // det_f for x in row) for row in scaled)
                if abs(det(lin)) != 1:
                    return None
                trans = tuple(w - dot(r, v0) for w, r in zip(w0, lin))
                m = AffineUnimodularMap(lin, trans)
                if sorted(m.apply(v) for v in pv) == qv:
                    return m
                return None
            for cand in cands[depth]:
                if rank([list(x) for x in picked + [cand]]) != depth + 1:
                    continue
                got = search(depth + 1, picked + [cand])
                if got is not None:
                    return got
            return None

        m = search(0, [])
        if m is not None:
            same = chart_p.is_identity() and chart_q.is_identity() and p.ambient_dim == q.ambient_dim
            return EquivalenceResult("found", m if same else None)
    return EquivalenceResult("inequivalent", None)


# -- the inputs -------------------------------------------------------------------------


def fresh(p):
    return LatticePolytope._trusted(p.ambient_dim, p.vertices)


def pairs_of(items):
    """Every pair x, y with x not after y: the status is symmetric, so one order suffices."""
    return [(x, y) for i, x in enumerate(items) for y in items[i:]]


def assert_agrees(pairs):
    """The same status and map from both routines on every pair; the count of each status."""
    seen = {"found": 0, "inequivalent": 0}
    for p, q in pairs:
        got = unimodular_equivalence(fresh(p), fresh(q))
        assert got == oracle_equivalence(fresh(p), fresh(q)), (p.vertices, q.vertices)
        seen[got.status] += 1
    return seen


def _criterion_11b_pairs():
    """The 200 polytopes of criterion 11b, each with its unimodular image, drawn as it draws them."""
    rng = random.Random(SEED + 1)
    pairs = []
    for _ in range(200):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim)
        pairs.append((p, _random_unimodular(rng, dim).apply_polytope(p)))
    return pairs


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
        tpq(2, 3),
        tpq(3, 4),
        hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5)]),
        hull([(0, 0), (7, 2), (3, 9)]),
        hull([(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]


def _subdivision_cells():
    """Interior cells of criterion 5 and of seeded regular subdivisions in dimensions 2 to 4."""
    p = dilated_simplex(4, 3)
    s = regular_subdivision(p, height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4)))
    out = [interior_cells(s)]
    rng = random.Random(SEED + 29)
    for dim, coord in ((2, 3), (2, 4), (3, 2), (3, 2), (4, 2), (4, 1), (4, 2)):
        p = _random_polytope(rng, dim, coord=coord, extra=3)
        heights = {x: rng.randint(0, 6) for x in p.lattice_points()}
        out.append(interior_cells(regular_subdivision(p, heights)))
    return out


# -- the agreement ----------------------------------------------------------------------


def test_criterion_11b_images_and_their_neighbours():
    pairs = _criterion_11b_pairs()
    images = assert_agrees(pairs)
    assert images == {"found": 200, "inequivalent": 0}
    # each polytope against the next image of its dimension: mostly inequivalent
    others = [(p, q) for (p, _), (_, q) in zip(pairs, pairs[1:]) if p.dim() == q.dim()]
    assert assert_agrees(others)["inequivalent"] >= 100


def test_every_tpq_pair_up_to_seven():
    family = [tpq(a, b) for b in range(1, 8) for a in range(1, b + 1) if gcd(a, b) == 1]
    seen = assert_agrees(pairs_of(family))
    assert seen["inequivalent"] > seen["found"] >= len(family)
    # the fingerprints agree, so only the search tells these apart
    assert tpq(1, 5).fingerprint() == tpq(2, 5).fingerprint()
    assert unimodular_equivalence(tpq(1, 5), tpq(2, 5)).status == "inequivalent"


def test_named_polytopes_and_families():
    named = _named_polytopes()
    move = AffineUnimodularMap(((1, 2, 0), (0, 1, 0), (1, 1, 1)), (3, -1, 2))
    pairs = pairs_of(named)
    pairs += [(x, move.apply_polytope(x)) for x in named if x.ambient_dim == 3]
    seen = assert_agrees(pairs)
    assert seen["found"] == len(named) + sum(x.ambient_dim == 3 for x in named)


def test_every_pair_of_interior_cells():
    cells = _subdivision_cells()
    assert {c.dim() for group in cells for c in group} == {0, 1, 2, 3, 4}
    # lower-dimensional cells are found equivalent without an ambient map
    low = [c for group in cells for c in group if 0 < c.dim() < c.ambient_dim]
    assert any(
        unimodular_equivalence(x, y) == EquivalenceResult("found", None)
        for x in low
        for y in low
        if x != y
    )
    for group in cells:
        assert_agrees(pairs_of(group))


def test_points_and_spans_of_different_spaces():
    points = [hull([(1, 2)]), hull([(4, -1)]), hull([(3, 4, 5)]), hull([()])]
    segments = [hull([(0, 0), (2, 2)]), hull([(1, 0, 0), (1, 2, 4)]), hull([(0,), (2,)])]
    everything = points + segments + [hull([(0, 0), (1, 0), (0, 1)])]
    seen = assert_agrees([(x, y) for x in everything for y in everything])
    assert seen["found"] == len(points) ** 2 + len(segments) ** 2 + 1
    assert unimodular_equivalence(points[0], points[1]).ambient_map.translation == (3, -3)
    assert unimodular_equivalence(points[0], points[2]) == EquivalenceResult("found", None)


# -- what the screen reads --------------------------------------------------------------


def test_the_screen_reads_no_fingerprint_width_scan_or_face_lattice(monkeypatch):
    pairs = [
        (tpq(1, 5), tpq(4, 5)),  # found
        (tpq(1, 5), tpq(2, 5)),  # inequivalent only by the search
        (dilated_simplex(2, 2), hull([(0, 0), (1, 0), (0, 1), (1, 1)])),  # by the volume
        (hull([(0, 0), (2, 0), (0, 1), (1, 1)]), hull([(0, 0), (3, 0), (0, 1)])),  # by the counts
        (hull([(0, 0, 0), (2, 2, 2)]), hull([(5, 0), (7, 2)])),  # found, of other spaces
    ]
    expected = [oracle_equivalence(fresh(p), fresh(q)) for p, q in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("unimodular_equivalence read a fingerprint invariant")

    monkeypatch.setattr(LatticePolytope, "fingerprint", refuse)
    for name in ("_width_search", "integer_points", "face_lattice"):
        monkeypatch.setattr(polytope, name, refuse)
    got = [unimodular_equivalence(fresh(p), fresh(q)) for p, q in pairs]
    assert got == expected
    assert [r.status for r in got] == ["found", "inequivalent", "inequivalent", "inequivalent", "found"]


def test_simplices_of_one_volume_reach_the_search(monkeypatch):
    # Two simplices of one dimension and volume whose vertices have the same
    # distances to the facets pass the screen, even when their widths (3 and
    # 2) tell them apart; the search then decides, within its budget.
    a, b = hull([(0, 0), (0, 2), (4, 3)]), hull([(0, 0), (0, 2), (4, 1)])
    assert assert_agrees([(a, b)]) == {"found": 0, "inequivalent": 1}
    monkeypatch.setattr(polytope, "EQUIVALENCE_BUDGET", 0)
    with pytest.raises(ResourceLimitError, match="unimodular_equivalence.*budget of 0"):
        unimodular_equivalence(a, b)


def test_distance_rows_cut_frames_that_cannot_map(monkeypatch):
    # A frame vertex goes only to vertices at the same distances from the
    # facets; the earlier search, which matched only the facet counts, spent
    # 26 frames here, and this one finds the same map within 25.
    a = hull([(0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)])
    b = hull(
        [(-3, -4, 3, 0), (-3, -3, 3, -2), (-2, -4, 3, 0), (-2, -3, 2, 0), (-1, -3, 2, -1), (-1, -2, 2, -1)]
    )
    monkeypatch.setattr(polytope, "EQUIVALENCE_BUDGET", 25)
    got = unimodular_equivalence(a, b)
    linear = ((0, 0, 1, -1), (1, 0, 1, 0), (0, 0, -1, 0), (-1, 1, 0, 0))
    assert got == EquivalenceResult("found", AffineUnimodularMap(linear, (-2, -4, 3, -1)))
