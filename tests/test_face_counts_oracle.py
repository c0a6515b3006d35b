"""Face counts read off one carrier table against a fresh scan per face.

The oracles are the earlier routines, copied below unchanged apart from
their names and the dropped cache wrappers: the lattice-point scan with
every facet offset shifted by one for interior points, the per-facet loop
of classify(), and hodge._face_data, which builds every face as its own
polytope.  With `lattice_points` and `_face_data` swapped for them, the
rest of the package (charts, facet systems, integer_points, faces) runs
as it is.  Point lists, classify(), the Hodge rows, e^{p,0} at every
degree and fingerprints must agree exactly.

The face-sum oracle is the earlier per-degree loop: `_e_open_from_faces`,
copied below unchanged apart from its name, scans every face once per
(face, degree).  The kernel fills a face's whole row in one pass; the Hodge
face sums and e^{p,0} at every degree must be identical on the corpus.
"""

import random
from functools import cache

import pytest

from sbvol import hodge
from sbvol.families import cubic_empty, dilated_simplex, hpt, kollar_totaro, tpq
from sbvol.hodge import e_p0_open, h_p0_compact
from sbvol.polytope import (
    DEFAULT_POINT_BUDGET,
    LatticePolytope,
    PolytopeClassification,
    hull,
    integer_points,
)
from sbvol.verification import SEED, _random_polytope


def _oracle_lattice_points(self, interior_only=False, budget=DEFAULT_POINT_BUDGET):
    """All lattice points, or only those in the relative interior."""
    q, ch = self.normalize_full_dimensional()
    if q.dim() == 0:
        pts = [()]
    else:
        shift = 1 if interior_only else 0
        d = q.ambient_dim
        pts = integer_points(
            [(n, c + shift) for n, c in q.facet_system()],
            [min(v[i] for v in q.vertices) for i in range(d)],
            [max(v[i] for v in q.vertices) for i in range(d)],
            budget,
            "LatticePolytope.lattice_points",
        )
    if ch.is_identity():
        out = tuple(pts)
    else:
        out = tuple(sorted(ch.from_chart(p) for p in pts))
    return out


def _oracle_classify(self, budget=DEFAULT_POINT_BUDGET) -> PolytopeClassification:
    pts = set(self.lattice_points(budget=budget))
    verts = set(self.vertices)
    empty = pts == verts
    simplex = empty and len(self.vertices) == self.dim() + 1
    if self.dim() == 0:
        hollow = False
        rel = ()
    else:
        hollow = self.n_interior_points() == 0
        rel = []
        for idx, facet in enumerate(self.faces(self.dim() - 1)):
            outside = len(pts) - facet.n_lattice_points()
            if outside == 1:
                rel.append(idx)
        rel = tuple(rel)
    return PolytopeClassification(empty, simplex, hollow, rel)


def _oracle_face_data(p: LatticePolytope):
    """(vertex bitmask, dim, interior count, vertex count) for every face."""
    sets = p._face_masks()
    cells = {}
    for f, d in sets.items():
        idx = [i for i in range(len(p.vertices)) if f >> i & 1]
        cell = LatticePolytope._trusted(p.ambient_dim, [p.vertices[i] for i in idx])
        cells[f] = (d, cell.n_interior_points(), len(idx))
    return cells


def _oracle_e_open_from_faces(face_items, sub, sub_dim, p):
    """e^{p,0} of the open hypersurface piece attached to the face `sub`."""
    sign = -1 if (sub_dim - 1) % 2 else 1
    if p == 0:
        edges = sum(
            interior
            for f, (d, interior, _nv) in face_items
            if d == 1 and f & sub == f
        )
        nverts = sum(1 for f, (d, _i, _nv) in face_items if d == 0 and f & sub == f)
        return sign * (edges + nverts - 1)
    total = sum(
        interior for f, (d, interior, _nv) in face_items if d == p + 1 and f & sub == f
    )
    return sign * total


def _oracle_face_sums(p):
    """(e^{p,0} of p at every degree, the Hodge face sum or None below dimension 2)."""
    q, _ = p.normalize_full_dimensional()
    m = q.dim()
    faces = list(hodge._face_data(q).items())
    full = next(f for f, (d, _i, _nv) in faces if d == m)
    e_open = [_oracle_e_open_from_faces(faces, full, m, deg) for deg in range(m)]
    if m < 2:
        return e_open, None
    by_sum = []
    for deg in range(m):
        e = sum(_oracle_e_open_from_faces(faces, f, d, deg) for f, (d, _i, _nv) in faces)
        by_sum.append(e if deg % 2 == 0 else -e)
    return e_open, tuple(by_sum)


def _answers(p, classify):
    """Every count under test, on a copy of p with an empty cache."""
    p = LatticePolytope._trusted(p.ambient_dim, p.vertices)
    d = p.dim()
    out = {
        "points": p.lattice_points(),
        "interior": p.lattice_points(interior_only=True),
        "counts": (p.n_lattice_points(), p.n_interior_points()),
        "classify": classify(p),
        "e_open": [e_p0_open(p, k) for k in range(d)],
        "fingerprint": p.fingerprint(),
    }
    if d >= 2:
        row = h_p0_compact(p)
        out["hodge"] = (row.values, row.by_face_sum)
    if d >= 1:
        q, _ = p.normalize_full_dimensional()
        out["face_data"] = hodge._face_data(q)
    return out


def _oracle_answers(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LatticePolytope, "lattice_points", _oracle_lattice_points)
        # one oracle face table per polytope serves every degree
        mp.setattr(hodge, "_face_data", cache(_oracle_face_data))
        return _answers(p, _oracle_classify)


def _corpus():
    rng = random.Random(2024)
    out = []
    for dim, count in ((1, 40), (2, 80), (3, 80), (4, 50)):
        for _ in range(count):
            n = rng.randint(1, dim + 4)
            out.append(hull([tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(n)]))
    for _ in range(40):
        # planar polygons in Z^4, spanned by two random directions
        base = [rng.randint(-2, 2) for _ in range(4)]
        u, v = ([rng.randint(-2, 2) for _ in range(4)] for _ in range(2))
        pts = [
            tuple(b + a * x + c * y for b, x, y in zip(base, u, v))
            for a, c in ((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(3, 6)))
        ]
        out.append(hull(pts))
    out += [hpt(), kollar_totaro(3, 4), kollar_totaro(4, 4), tpq(2, 5), dilated_simplex(3, 3), cubic_empty(3)]
    # the big and small polytopes of the first 50 pairs of criterion 11a
    rng = random.Random(SEED)
    pairs = 0
    while pairs < 50:
        dim = rng.choice([2, 2, 2, 3, 3, 4])
        big = _random_polytope(rng, dim)
        pts = big.lattice_points()
        if len(pts) <= dim + 1:
            continue
        k = rng.randint(dim + 1, min(len(pts), dim + 4))
        small = hull(rng.sample(pts, k))
        if small.dim() != dim:
            continue
        out += [big, small]
        pairs += 1
    # the grid of criterion 8
    out += [dilated_simplex(d, n) for n in range(2, 7) for d in range(1, 7)]
    for n in range(1, 5):
        out.append(hull([tuple(range(n))]))
        out.append(hull([tuple([0] * n), tuple([1] * n)]))
        out.append(hull([tuple([0] * n), tuple(range(1, 2 * n + 1, 2))]))
        out.append(hull([tuple([1] * n), tuple(3 * i - 2 for i in range(n))]))
    return out


CORPUS = _corpus()


def test_corpus_covers_every_shape():
    dims = {(p.dim(), p.is_full_dimensional()) for p in CORPUS}
    assert {(0, False), (1, False), (2, False), (3, False)} <= dims
    assert {(1, True), (2, True), (3, True), (4, True), (5, True), (6, True)} <= dims
    assert any(p.classify().is_relatively_empty for p in CORPUS)
    assert any(p.dim() >= 2 and p.n_interior_points() > 1 for p in CORPUS)


@pytest.mark.parametrize("start", range(0, len(CORPUS), 40))
def test_carrier_counts_match_the_per_face_scans(start):
    for p in CORPUS[start : start + 40]:
        assert _answers(p, LatticePolytope.classify) == _oracle_answers(p), p.vertices


def test_face_sums_match_the_per_degree_loop():
    for p in CORPUS:
        e_open, by_sum = _oracle_face_sums(p)
        assert [e_p0_open(p, k) for k in range(p.dim())] == e_open, p.vertices
        if by_sum is not None:
            got = h_p0_compact(p).by_face_sum
            assert got == by_sum and all(type(x) is int for x in got), p.vertices
