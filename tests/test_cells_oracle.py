"""Bitmask subdivision cells and width one lent by parent cells, against the earlier routines.

The oracles are the earlier face closure, which takes every face of every
maximal cell from the closure of frozensets under intersection and ranks
each one for its dimension, the earlier eager cell lattice, which built a
polytope for every face and renumbered each face's mask onto the shared
points, the earlier boundary test, a dot product against every facet of P
per cell, and the earlier classify_cell, which charts every cell and
searches its width.  The new code must give the same cells in the same
order with the same dimensions, masks and parents, the same interior cells
and the same tags, on the dim4 pipeline, the staged double cone, random
subdivisions (many with non-simplicial cells) and the unimodular images of
criterion 11b.  Cells are built only when read, which is pinned too.
"""

import random
from fractions import Fraction
from math import gcd

from sbvol.families import (
    builtin_seed_registry,
    dilated_simplex,
    divisor_23_double_cone,
    kollar_totaro,
)
from sbvol.intlinalg import dot, rank
from sbvol.ledger import CellClassTag, _Lenders, classify_cell, volume_ledger
from sbvol.polytope import LatticePolytope, _bits, face_closure, hull
from sbvol.subdivision import (
    _interior,
    distance_height,
    interior_cells,
    lies_in_boundary,
    make_subdivision,
    regular_subdivision,
    staged_distance_height,
)
from sbvol.toric import fine_interior
from sbvol.verification import SEED, _random_polytope, _random_unimodular
from test_ledger_oracle import oracle_width_certificates

# -- the earlier routines --------------------------------------------------------------


def oracle_face_index_sets(cell):
    """Every face as a frozenset of indices into cell.vertices, ranked for its dimension."""
    q, ch = cell.normalize_full_dimensional()
    cverts = [ch.to_chart(v) for v in cell.vertices]
    full = frozenset(range(len(cverts)))
    if q.dim() == 0:
        return {full: 0}
    tight = [
        frozenset(i for i, v in enumerate(cverts) if dot(n, v) == c) for n, c in q.facet_system()
    ]
    dims = {}
    for f in face_closure(full, tight):
        pts = [cverts[i] for i in sorted(f)]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        dims[f] = rank(diffs) if diffs else 0
    return dims


def oracle_face_closure_cells(maximal_cells):
    """[(cell, dim, indices of the maximal cells it is a face of)], sorted by (dim, vertices)."""
    out = {}
    for k, cell in enumerate(maximal_cells):
        for f, d in oracle_face_index_sets(cell).items():
            face = LatticePolytope._trusted(cell.ambient_dim, [cell.vertices[i] for i in sorted(f)])
            out.setdefault(face, (d, set()))[1].add(k)
    return sorted(
        ((c, d, parents) for c, (d, parents) in out.items()), key=lambda t: (t[1], t[0].vertices)
    )


def oracle_cell_lattice(maximal_cells):
    """(points, cells, masks, parents) of the face closure, every face built as a polytope.

    Each maximal cell's faces come from its face lattice as bitmasks over
    its own vertices and are renumbered onto the shared points.  The top
    face of a maximal cell is the cell itself.
    """
    points = tuple(sorted({v for c in maximal_cells for v in c.vertices}))
    bit = {v: 1 << i for i, v in enumerate(points)}
    found = {}  # mask over points -> [cell, mask over maximal cells]
    for k, cell in enumerate(maximal_cells):
        bits = [bit[v] for v in cell.vertices]
        top = (1 << len(bits)) - 1
        for local, d in cell._face_masks().items():
            idx = _bits(local)
            mask = sum(bits[i] for i in idx)
            entry = found.get(mask)
            if entry is not None:
                entry[1] |= 1 << k
                continue
            if local == top:
                face = cell
            else:
                face = LatticePolytope._trusted(cell.ambient_dim, [cell.vertices[i] for i in idx])
                face._cache["dim"] = d
            found[mask] = [face, 1 << k]
    order = sorted(found.items(), key=lambda kv: (kv[1][0].dim(), kv[1][0].vertices))
    return (
        points,
        tuple(face for _, (face, _) in order),
        tuple(mask for mask, _ in order),
        tuple(parents for _, (_, parents) in order),
    )


def oracle_lies_in_boundary(p, points):
    return any(all(dot(n, x) == c for x in points) for n, c in p.facet_system())


def oracle_classify_cell(cell, seeds=None):
    q, _ = cell.normalize_full_dimensional()
    d = q.dim()
    if d <= 1:
        return CellClassTag("rational", "dimension at most one")
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


# -- agreement ---------------------------------------------------------------------------


def fresh(cell):
    """The same polytope with an empty cache, so the oracle recomputes everything."""
    return LatticePolytope._trusted(cell.ambient_dim, cell.vertices)


def assert_lattice_agrees(s):
    """Points, cells, order, dims, masks and parents equal the eager cell lattice's."""
    points, cells, masks, parents = oracle_cell_lattice(s.maximal_cells)
    assert (s.points, s.cell_masks, s.cell_parents) == (points, masks, parents)
    assert s.cell_dims == tuple(c.dim() for c in cells)
    assert len(s.cells) == len(cells)
    assert list(s.cells) == list(cells)
    assert [c.dim() for c in s.cells] == list(s.cell_dims)
    # A maximal cell is its own top face, the same object, so its caches are shared.
    for k, cell in enumerate(s.maximal_cells):
        assert s.cells[s.cells.index(cell)] is cell
        assert s.maximal_masks[k] == masks[s.cells.index(cell)]
    assert all(c in s.cells for c in cells)
    assert (s.polytope in s.cells) == (s.maximal_cells == (s.polytope,))


def assert_cells_agree(s):
    """Cells, order, dims, masks, parents and interior cells equal the oracles'."""
    assert_lattice_agrees(s)
    want = oracle_face_closure_cells(s.maximal_cells)
    assert [(c, c.dim()) for c in s.cells] == [(c, d) for c, d, _ in want]
    assert all(c.dim() == fresh(c).dim() for c in s.cells)
    index = {v: i for i, v in enumerate(s.points)}
    assert list(s.points) == sorted({v for c in s.maximal_cells for v in c.vertices})
    for c, mask, parents, (_, _, want_parents) in zip(s.cells, s.cell_masks, s.cell_parents, want):
        assert mask == sum(1 << index[v] for v in c.vertices)
        assert parents == sum(1 << k for k in want_parents)
    inner = interior_cells(s)
    assert inner == tuple(c for c in s.cells if not oracle_lies_in_boundary(s.polytope, c.vertices))
    return inner


def assert_boundary_agrees(s, midpoints):
    """lies_in_boundary on every cell; with midpoints, also on points that are no vertex."""
    p = s.polytope
    for c in s.cells:
        assert lies_in_boundary(p, c.vertices) == oracle_lies_in_boundary(p, c.vertices)
        if midpoints:
            mid = [tuple(Fraction(a + b, 2) for a, b in zip(c.vertices[0], v)) for v in c.vertices]
            assert lies_in_boundary(p, mid) == oracle_lies_in_boundary(p, mid)


def assert_tags_agree(s, seeds=None):
    """Every interior cell: the tag equals the oracle's, and width one lent by its parents is width one.

    The ledger's lenders settle every cell of dimension at least two that
    one of the earlier inherited certificates settled, and each cell they
    settle has width one by the oracle's chart search.  Returns how many
    cells they settled.
    """
    inherited = 0
    lenders = _Lenders(s)
    for j in _interior(s):
        cell = s.cells[j]
        want = oracle_classify_cell(fresh(cell), seeds)
        assert classify_cell(cell, seeds) == want, cell.vertices
        if cell.dim() >= 2 and lenders.width_one(j):
            assert want == CellClassTag("rational", "lattice width one"), cell.vertices
            inherited += 1
        elif cell.dim() >= 2:
            certificates = oracle_width_certificates(s, s.cell_parents[j])
            assert all(spread(l, cell) != 1 for l in certificates), cell.vertices
        if cell.dim() == 1:
            u, v = cell.vertices
            assert gcd(*(a - b for a, b in zip(u, v))) == 1 + fresh(cell).n_interior_points()
    return inherited


def spread(l, cell):
    values = [dot(l, v) for v in cell.vertices]
    return max(values) - min(values)


# -- inputs ----------------------------------------------------------------------------------


def test_dim4_pipeline():
    big = dilated_simplex(4, 4)
    s = regular_subdivision(big, distance_height(big, kollar_totaro(3, 4)))
    inner = assert_cells_agree(s)
    assert (len(s.maximal_cells), len(inner)) == (196, 727)
    assert_boundary_agrees(s, midpoints=False)
    seeds = builtin_seed_registry()
    seeds.register("kt34", kollar_totaro(3, 4), "double cover of P3 branched in a quartic")
    assert assert_tags_agree(s, seeds) >= 680


def test_staged_double_cone():
    dc = divisor_23_double_cone()
    s = regular_subdivision(
        dc.polytope, staged_distance_height(dc.polytope, dc.embedded_base(), dc.slices())
    )
    assert len(assert_cells_agree(s)) > 0
    assert len(s.cells) == 671
    assert_tags_agree(s)


def test_random_subdivisions():
    # The inputs of test_validate_oracle.py: criterion 11d's subdivisions and
    # random ones in dimensions 2-4.  Tags are compared on those from heights
    # 0-1, which leave many non-simplicial cells.
    rng = random.Random(SEED + 3)
    tagged, untagged = [], []
    for _ in range(100):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim, coord=3 if dim == 2 else 2)
        untagged.append(regular_subdivision(p, {x: rng.randint(0, 6) for x in p.lattice_points()}))
    rng = random.Random(2010)
    for trial in range(300):
        dim = (2, 3, 4)[trial % 3]
        p = _random_polytope(rng, dim, coord=(4, 3, 2)[dim - 2], extra=3)
        top = rng.choice([1, 6])
        s = regular_subdivision(p, {x: rng.randint(0, top) for x in p.lattice_points()})
        (tagged if top == 1 else untagged).append(s)
    for s in tagged + untagged:
        assert_cells_agree(s)
    inherited = sum(assert_tags_agree(s) for s in tagged)
    non_simplicial = sum(not c.is_simplex() for s in tagged for c in s.maximal_cells)
    assert inherited >= 1000 and non_simplicial >= 100, (inherited, non_simplicial)


def test_non_simplicial_cells():
    # Zero heights leave one maximal cell, the polytope itself: cubes, a
    # prism and an octahedron, and hand-built cells that cut a cube in two.
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    polytopes = [
        hull(cube),
        hull([(x, y, z, w) for x in (0, 1) for y in (0, 1) for z in (0, 1) for w in (0, 1)]),
        hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 3), (2, 0, 3), (0, 2, 3)]),
        hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
    ]
    for p in polytopes:
        s = regular_subdivision(p, {x: 0 for x in p.lattice_points()})
        assert s.maximal_cells == (p,) and not p.is_simplex()
        assert_cells_agree(s)
        assert_boundary_agrees(s, midpoints=True)
        assert_tags_agree(s)
    cut = [(1, y, z) for y in (0, 2) for z in (0, 2)]
    halves = [hull([v for v in cube if v[0] == 0] + cut), hull([v for v in cube if v[0] == 2] + cut)]
    s = make_subdivision(hull(cube), halves)
    assert sum(c.dim() == 2 for c in interior_cells(s)) == 1
    assert_cells_agree(s)
    assert_tags_agree(s)


def test_criterion_11b_images():
    # The unimodular image of each polytope of criterion 11b, and its facets;
    # a facet on which the image's width certificate spreads 1 has width one.
    rng = random.Random(SEED + 1)
    cuts = random.Random(SEED + 11)
    for _ in range(200):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim)
        m = _random_unimodular(rng, dim)
        q = m.apply_polytope(p)
        assert classify_cell(fresh(q)) == oracle_classify_cell(fresh(q))
        cert = q.lattice_width()[1]
        for facet in q.faces(dim - 1):
            want = oracle_classify_cell(fresh(facet))
            assert classify_cell(fresh(facet)) == want
            if facet.dim() >= 2 and spread(cert, facet) == 1:
                assert want == CellClassTag("rational", "lattice width one")
        # The image as one cell, and cut by heights 0-1 into cells that are often
        # not simplices; the heights have their own generator, so the images stay 11b's.
        assert_lattice_agrees(make_subdivision(q, [q]))
        heights = {x: cuts.randint(0, 1) for x in q.lattice_points()}
        assert_lattice_agrees(regular_subdivision(q, heights))


# -- cells are built when read ------------------------------------------------------------


def test_length_builds_no_cell(monkeypatch):
    dc = divisor_23_double_cone()
    heights = staged_distance_height(dc.polytope, dc.embedded_base(), dc.slices())
    built = []
    trusted = LatticePolytope._trusted
    monkeypatch.setattr(
        LatticePolytope, "_trusted", staticmethod(lambda *args: built.append(args) or trusted(*args))
    )
    s = regular_subdivision(dc.polytope, heights)
    assert len(built) == len(s.maximal_cells)  # the maximal cells only: the lift is no polytope
    del built[:]
    assert len(s.cells) == 671
    assert not built


def test_ledger_builds_only_interior_cells():
    big = dilated_simplex(4, 4)
    s = regular_subdivision(big, distance_height(big, kollar_totaro(3, 4)))
    seeds = builtin_seed_registry()
    seeds.register("kt34", kollar_totaro(3, 4), "double cover of P3 branched in a quartic")
    volume_ledger(big, s, seeds)
    # Of the 727 interior cells, only the 19 that reach classify_cell are
    # built: the 18 of dimension at most one and the seed.
    read = [j for j, c in enumerate(s.cells._cells) if c is not None]
    inner = _interior(s)
    assert len(inner) == 727 and set(read) <= set(inner)
    assert read == [j for j in inner if s.cell_dims[j] <= 1] + [s.cells.index(kollar_totaro(3, 4))]
    assert len(s.cells) == 2031


def test_subdivisions_from_the_same_heights_are_equal():
    big = dilated_simplex(4, 4)
    heights = distance_height(big, kollar_totaro(3, 4))
    s, t = regular_subdivision(big, heights), regular_subdivision(big, heights)
    interior_cells(s)  # reading cells of one changes neither equality nor hash
    assert s == t and hash(s) == hash(t)
    assert s != make_subdivision(big, s.maximal_cells)
