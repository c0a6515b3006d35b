"""validate's facet-pairing certificate against the pairwise-intersection oracle.

The oracle is the earlier validate: for every pair of maximal cells it
intersects the two halfspace systems, enumerates the vertices of the
intersection and checks that they span a common face of both cells, and
it checks the witness in the earlier Fraction form: a gradient and a
constant per cell, read off the stored integer lower facet.  The two must
give the same verdict and the same three witness flags on every input,
tampered witnesses included, and the same face verdict wherever the cells
cover the polytope once.
"""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import lcm

from sbvol.families import dilated_simplex, kollar_totaro
from sbvol.intlinalg import dot, rank
from sbvol.polytope import RationalPolytope, hull, slacks
from sbvol.subdivision import (
    ValidationReport,
    distance_height,
    make_subdivision,
    regular_subdivision,
    validate,
)
from sbvol.verification import SEED, _random_polytope


def pairwise_validate(s, p=None):
    """The earlier validate: every pair of cells must meet in a common face."""
    if p is None:
        p = s.polytope
    checks = []
    d = p.dim()

    integral = all(
        all(isinstance(x, int) for v in c.vertices for x in v) for c in s.maximal_cells
    )
    checks.append(("integral", integral, ""))

    dims_ok = all(c.dim() == d for c in s.maximal_cells)
    vol = sum((c.normalized_volume() for c in s.maximal_cells), 0)
    cover = dims_ok and vol == p.normalized_volume() and all(
        p.contains(v) for c in s.maximal_cells for v in c.vertices
    )
    checks.append(
        ("cover", cover, f"cell volume sum {vol} vs {p.normalized_volume()}")
    )

    faces_ok = True
    detail = ""
    adjacency = []
    for i, j in itertools.combinations(range(len(s.maximal_cells)), 2):
        a, b = s.maximal_cells[i], s.maximal_cells[j]
        combined = list(a.as_halfspaces().halfspaces) + list(b.as_halfspaces().halfspaces)
        inter = RationalPolytope(p.ambient_dim, combined)
        verts = inter.vertices()
        if not verts:
            continue
        vset = set(verts)
        ok_here = True
        for cell in (a, b):
            face = _smallest_face_containing(cell, verts)
            if face is None or set(face) != vset:
                ok_here = False
        if not ok_here:
            faces_ok = False
            detail = f"cells {i} and {j} do not meet in a common face"
        ivs = [v for v in verts]
        idim = rank(
            [[x - y for x, y in zip(v, ivs[0])] for v in ivs[1:]]
        ) if len(ivs) > 1 else 0
        if idim == d - 1:
            adjacency.append((i, j, vset))
    checks.append(("pairwise_faces", faces_ok, detail))

    if s.witness is not None:
        affine_ok = True
        dominated_ok = True
        hmap = s.height_map()
        witness_value = _fraction_witness(s)
        for idx, cell in enumerate(s.maximal_cells):
            for v in cell.vertices:
                if hmap is not None and witness_value(idx, v) != hmap[v]:
                    affine_ok = False
        if hmap is not None:
            for x, hx in hmap.items():
                for idx in range(len(s.maximal_cells)):
                    if witness_value(idx, x) > hx:
                        dominated_ok = False
        checks.append(("witness_affine", affine_ok, ""))
        checks.append(("witness_dominates", dominated_ok, ""))

        strict_ok = True
        for i, j, wall in adjacency:
            for u in s.maximal_cells[j].vertices:
                if tuple(Fraction(x) for x in u) in wall:
                    continue
                if not witness_value(i, u) < witness_value(j, u):
                    strict_ok = False
            for u in s.maximal_cells[i].vertices:
                if tuple(Fraction(x) for x in u) in wall:
                    continue
                if not witness_value(j, u) < witness_value(i, u):
                    strict_ok = False
        checks.append(("witness_strictly_convex", strict_ok, ""))

    ok = all(c[1] for c in checks)
    return ValidationReport(ok, tuple(checks))


def _fraction_witness(s):
    """The earlier witness: gradient and constant of each cell's piece, as Fractions.

    They are read off the stored lower facet (n, c) of the lifted points
    (x, h(x) * scale): the piece is h(x) = (c - <n', x>) / (n[-1] * scale).
    """
    scale = lcm(*(h.denominator for _, h in s.heights or ()))
    pieces = []
    for n, c in s.witness:
        grad = tuple(Fraction(-n[j], n[-1] * scale) for j in range(len(n) - 1))
        pieces.append((grad, Fraction(c, n[-1] * scale)))

    def witness_value(idx, x):
        grad, const = pieces[idx]
        return sum(g * Fraction(v) for g, v in zip(grad, x)) + const

    return witness_value


def _smallest_face_containing(cell, points):
    """Vertex set of the smallest face of the cell containing the given points."""
    system = cell.facet_system()
    rows = [tuple(slacks(system, pt)) for pt in points]
    if any(s < 0 for row in rows for s in row):
        return None
    tight = [nc for i, nc in enumerate(system) if all(row[i] == 0 for row in rows)]
    verts = [v for v in cell.vertices if all(dot(n, v) == c for n, c in tight)]
    return [tuple(Fraction(x) for x in v) for v in verts]


WITNESS_CHECKS = ("witness_affine", "witness_dominates", "witness_strictly_convex")


def assert_agrees(s):
    """Same verdict and witness flags; the same face verdict wherever the cover holds."""
    new, old = validate(s), pairwise_validate(s)
    assert [c[0] for c in new.checks] == [c[0] for c in old.checks]
    assert new.ok == old.ok, (s.maximal_cells, new.failed(), old.failed())
    flags, old_flags = {c[0]: c[1] for c in new.checks}, {c[0]: c[1] for c in old.checks}
    if flags["cover"]:
        assert flags["pairwise_faces"] == old_flags["pairwise_faces"], s.maximal_cells
    for name in WITNESS_CHECKS:
        assert flags.get(name) == old_flags.get(name), (name, s.maximal_cells, s.witness)
    return new


def drop_each_cell(s):
    """The subdivisions missing one maximal cell each: a gap at every cell."""
    cells = s.maximal_cells
    return [make_subdivision(s.polytope, cells[:i] + cells[i + 1 :]) for i in range(len(cells))]


def test_criterion_11d_subdivisions():
    # The 100 random subdivisions of verify-paper's criterion 11d.
    rng = random.Random(SEED + 3)
    for _ in range(100):
        dim = rng.choice([2, 2, 3])
        p = _random_polytope(rng, dim, coord=3 if dim == 2 else 2)
        heights = {x: rng.randint(0, 6) for x in p.lattice_points()}
        assert assert_agrees(regular_subdivision(p, heights)).ok


def test_random_regular_subdivisions_and_gaps():
    rng = random.Random(2010)
    gaps = 0
    for trial in range(300):
        dim = (2, 3, 4)[trial % 3]
        p = _random_polytope(rng, dim, coord=(4, 3, 2)[dim - 2], extra=3)
        top = rng.choice([1, 6])  # heights 0-1 leave many non-simplicial cells
        heights = {x: rng.randint(0, top) for x in p.lattice_points()}
        s = regular_subdivision(p, heights)
        assert assert_agrees(s).ok
        if 1 < len(s.maximal_cells) <= 8 and gaps < 225:
            for broken in drop_each_cell(s):
                assert not assert_agrees(broken).ok
                gaps += 1
    assert gaps >= 225


def test_dim4_pipeline_subdivision():
    # The distance subdivision of dim4_pipeline(4 * simplex4, kt(3, 4)).
    big = dilated_simplex(4, 4)
    s = regular_subdivision(big, distance_height(big, kollar_totaro(3, 4)))
    assert len(s.maximal_cells) == 196
    assert assert_agrees(s).ok


SQUARE = hull([(0, 0), (2, 0), (0, 2), (2, 2)])


def test_overlap():
    s = make_subdivision(SQUARE, [SQUARE, hull([(0, 0), (2, 0), (2, 2)])])
    assert not assert_agrees(s).ok


def test_gap():
    s = make_subdivision(SQUARE, [hull([(0, 0), (2, 0), (2, 2)])])
    assert not assert_agrees(s).ok


def test_t_joint():
    a = hull([(0, 0), (2, 0), (0, 1), (2, 1)])
    b = hull([(0, 1), (1, 1), (0, 2), (1, 2)])
    c = hull([(1, 1), (2, 1), (1, 2), (2, 2)])
    rep = assert_agrees(make_subdivision(SQUARE, [a, b, c]))
    assert dict((n, ok) for n, ok, _ in rep.checks) == {
        "integral": True,
        "cover": True,
        "pairwise_faces": False,
    }


def test_square_covered_twice_by_both_diagonals():
    corners = [(0, 0), (2, 0), (2, 2), (0, 2)]
    triangles = [hull(corners[:i] + corners[i + 1 :]) for i in range(4)]
    rep = assert_agrees(make_subdivision(SQUARE, triangles))
    assert not rep.ok
    assert ("cover", False) in [(n, ok) for n, ok, _ in rep.checks]


def test_prisms_over_crossing_diagonals():
    # Prisms over two triangles of the unit square: cut along one diagonal
    # they subdivide the cube; one from each diagonal overlap although
    # their volumes add up to the cube's.
    cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    low_a = hull([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)])
    low_b = hull([(0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)])
    good = make_subdivision(cube, [low_a, low_b])
    assert assert_agrees(good).ok
    tilted_a = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])
    tilted_b = hull([(1, 1, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 1), (0, 1, 1)])
    mixed = make_subdivision(cube, [low_a, tilted_b])
    assert not assert_agrees(mixed).ok
    assert assert_agrees(make_subdivision(cube, [tilted_a, tilted_b])).ok


def tampered(s, rng):
    """Copies of s with one witness broken: a constant moved by +-1, or two witnesses swapped."""
    w = list(s.witness)
    i = rng.randrange(len(w))
    out = []
    for step in (1, -1):
        moved = list(w)
        moved[i] = (w[i][0], w[i][1] + step)
        out.append(dataclasses.replace(s, witness=tuple(moved)))
    if len(w) > 1:
        j = rng.choice([k for k in range(len(w)) if k != i])
        swapped = list(w)
        swapped[i], swapped[j] = w[j], w[i]
        out.append(dataclasses.replace(s, witness=tuple(swapped)))
    return out


def test_tampered_witnesses_fail_each_check():
    # Rational heights, so the lifted scale is not 1; every witness flag
    # must agree with the Fraction oracle, and each check must fail.
    rng = random.Random(2024)
    failures = dict.fromkeys(WITNESS_CHECKS, 0)
    for trial in range(40):
        dim = (2, 3)[trial % 2]
        p = _random_polytope(rng, dim, coord=(3, 2)[dim - 2])
        heights = {x: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for x in p.lattice_points()}
        s = regular_subdivision(p, heights)
        assert assert_agrees(s).ok
        for broken in tampered(s, rng):
            rep = assert_agrees(broken)
            assert not rep.ok
            for name, ok, _ in rep.checks:
                failures[name] = failures.get(name, 0) + (not ok)
    assert all(failures[name] for name in WITNESS_CHECKS), failures
    assert failures["cover"] == failures["pairwise_faces"] == 0


def test_lowered_non_vertex_fails_only_domination():
    # One lattice point that is no cell vertex gets a lower height, by 1 or
    # by 20, with cells and witness unchanged.  The heights' denominators do
    # not change, so neither does the lifted scale: every other check still
    # passes, and domination reads the one piece of the cell containing the point.
    rng = random.Random(2025)
    verdicts = {True: 0, False: 0}
    for trial in range(60):
        dim = (2, 3)[trial % 2]
        p = _random_polytope(rng, dim, coord=(3, 2)[dim - 2])
        heights = {x: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for x in p.lattice_points()}
        s = regular_subdivision(p, heights)
        inner = [x for x in heights if x not in s.points]
        if not inner:
            continue
        x = rng.choice(inner)
        for drop in (1, 20):
            lowered = {**heights, x: heights[x] - drop}
            broken = dataclasses.replace(s, heights=tuple(sorted(lowered.items())))
            assert broken.height_scale == s.height_scale
            rep = assert_agrees(broken)
            flags = {name: ok for name, ok, _ in rep.checks}
            assert all(ok for name, ok in flags.items() if name != "witness_dominates"), flags
            verdicts[flags["witness_dominates"]] += 1
    assert verdicts[True] and verdicts[False] >= 20, verdicts


def test_flat_witness_fails_only_strict_convexity():
    # A corner cut off the square, both cells given the zero piece: affine
    # and dominating, but the pieces do not bend across the wall.
    heights = {x: int(x == (2, 2)) for x in SQUARE.lattice_points()}
    s = regular_subdivision(SQUARE, heights)
    assert len(s.maximal_cells) == 2
    flat = dataclasses.replace(
        s,
        heights=tuple((x, Fraction(0)) for x, _ in s.heights),
        witness=(((0, 0, 1), 0), ((0, 0, 1), 0)),
    )
    flags = {n: ok for n, ok, _ in assert_agrees(flat).checks}
    assert flags["witness_affine"] and flags["witness_dominates"]
    assert not flags["witness_strictly_convex"]
