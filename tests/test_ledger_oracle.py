"""volume_ledger's width-one rule against the earlier ledger, which handed certificates to classify_cell.

The oracle is the earlier `volume_ledger` with its `classify_cell`, which
took the width certificates of a cell's full-dimensional parents, checked
each one and charted and searched every cell none of them settled.  The
ledger now settles a cell of dimension at least two from its parents'
level masks and facet normals, and classifies only the cells left.  Both
must give equal ledgers, `describe()` included, on the dim4 pipeline and
its signed permutations, criterion 5, random regular subdivisions in
dimensions 2-4 and hand-built subdivisions, one with a lower-dimensional
maximal cell.  Each side reads its own subdivision, built from the same
maximal cells with empty caches.  CI also runs this file under
`python -O`, which strips the package's `assert` statements, so no part of
the width-one rule may rest on one.
"""

import random
from math import gcd

from sbvol.errors import SubdivisionError
from sbvol.families import builtin_seed_registry, dilated_simplex, kollar_totaro
from sbvol.intlinalg import dot
from sbvol.ledger import (
    CellClassTag,
    Ledger,
    LedgerEntry,
    SeedRegistry,
    dim4_pipeline,
    volume_ledger,
)
from sbvol.polytope import (
    AffineUnimodularMap,
    LatticePolytope,
    _as_int_tuple,
    _as_tuple,
    _bits,
    _instance,
    hull,
    unimodular_equivalence,
)
from sbvol.subdivision import (
    Subdivision,
    _interior,
    _subdivision,
    height_function,
    make_subdivision,
    regular_subdivision,
    validate,
)
from sbvol.toric import fine_interior
from sbvol.verification import SEED, _random_polytope

# -- the earlier routines, frozen ------------------------------------------------------


def oracle_classify_cell(
    cell: LatticePolytope, seeds: SeedRegistry | None = None, certificates=()
) -> CellClassTag:
    """Tag a subdivision cell by the reason its class is under control.

    Rationality rules come first (dimension at most one, width one, empty
    Fine interior in dimension at most three), then registered seeds, then
    interior lattice points, which certify strong variation on their own.
    The Fine interior is computed only for a cell with no interior lattice
    point: such a point m has <m, n> > ord(n), both integers, for every
    primitive n, so it lies in the Fine interior and the rule cannot fire.

    certificates is an iterable of integer functionals on the ambient
    space (anything else raises), such as the width certificates of the
    full-dimensional cells that contain this one.  One whose values on the
    cell's vertices spread exactly 1 proves lattice width one, in the
    lattice of the cell's own span too, without a chart or a width search;
    otherwise the cell is charted and its width searched.
    """
    d = _instance(cell, LatticePolytope, "a lattice polytope").dim()
    if seeds is not None:
        _instance(seeds, SeedRegistry, "a seed registry")
    if d <= 1:
        return CellClassTag("rational", "dimension at most one")
    for l in _as_tuple(certificates, "certificates"):
        l = _as_int_tuple(l, cell.ambient_dim, "certificate")
        values = [dot(l, v) for v in cell.vertices]
        if max(values) - min(values) == 1:
            return CellClassTag("rational", "lattice width one")
    q, _ = cell.normalize_full_dimensional()
    if q.lattice_width()[0] == 1:
        return CellClassTag("rational", "lattice width one")
    if d <= 3 and q.n_interior_points() == 0 and fine_interior(q).is_empty:
        return CellClassTag(
            "rational", "empty fine interior in dimension at most three"
        )
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
        return CellClassTag(
            "strongly_varying", "unique interior lattice point", None, True
        )
    if interior > 1:
        return CellClassTag(
            "strongly_varying", f"{interior} interior lattice points", None, True
        )
    return CellClassTag("unknown", "no rationality or variation rule applies")


def oracle_volume_ledger(
    p: LatticePolytope,
    s: Subdivision,
    seeds: SeedRegistry | None = None,
    check: bool = True,
) -> Ledger:
    """Signed sum of cell classes over the interior cells of a valid subdivision."""
    if seeds is not None:
        _instance(seeds, SeedRegistry, "a seed registry")
    if check:
        report = validate(s, p)
        if not report.ok:
            raise SubdivisionError(
                "refusing an invalid subdivision: "
                + ", ".join(name for name, ok, _ in report.checks if not ok)
            )
    interior = _interior(s, p)  # checks s and p before p is read
    sign = -1 if p.dim() % 2 else 1
    point_coeff = 0
    groups = []  # [normalized cell, tag, coeff, members]
    for j in interior:
        cell = s.cells[j]
        d = cell.dim()
        coeff = sign * (-1 if d % 2 else 1)
        tag = oracle_classify_cell(cell, seeds, oracle_width_certificates(s, s.cell_parents[j]))
        if tag.kind == "rational":
            if d == 0:
                mult = 0  # a single monomial has empty zero set in the torus
            elif d == 1:
                # 1 + its interior lattice points, the gcd of its edge vector
                mult = gcd(*(a - b for a, b in zip(*cell.vertices)))
            else:
                mult = 1
            point_coeff += coeff * mult
            continue
        q, _ = cell.normalize_full_dimensional()
        for g in groups:
            if g[1] == tag and unimodular_equivalence(q, g[0]).found:
                g[2] += coeff
                g[3] += 1
                break
        else:
            groups.append([q, tag, coeff, 1])
    entries = tuple(
        LedgerEntry(*g)
        for g in sorted(groups, key=lambda g: g[0].fingerprint())
        if g[2] != 0
    )
    return Ledger(point_coeff, entries)


def oracle_width_certificates(s: Subdivision, parents):
    """Width certificates of the full-dimensional maximal cells in the bitmask parents.

    classify_cell takes every certificate before it tests any, so each
    parent's width is searched; that costs nothing extra, since every
    maximal cell is an interior cell and is classified by its own width.
    A lower-dimensional cell's certificate is in its chart's coordinates,
    not the ambient ones, so it lends none.
    """
    for k in _bits(parents):
        cell = s.maximal_cells[k]
        if cell.is_full_dimensional():
            yield cell.lattice_width()[1]


# -- agreement ---------------------------------------------------------------------------


def fresh(cell):
    """The same polytope with an empty cache."""
    return LatticePolytope._trusted(cell.ambient_dim, cell.vertices)


def fresh_subdivision(s):
    """s rebuilt from copies of its maximal cells, so no cell or width is shared with s."""
    return _subdivision(
        fresh(s.polytope), tuple(fresh(c) for c in s.maximal_cells), s.heights, s.witness
    )


def assert_ledgers_agree(p, s, seeds=None, check=True):
    """The ledger equals the oracle's on a fresh copy of s, entry by entry and in describe()."""
    want = oracle_volume_ledger(fresh(p), fresh_subdivision(s), seeds, check)
    got = volume_ledger(p, s, seeds, check)
    assert got == want and got.describe() == want.describe()
    return got


def kt34_seeds():
    seeds = builtin_seed_registry()
    seeds.register("double-cover-3-4", kollar_totaro(3, 4), "double cover bound")
    return seeds


def signed_permutation(rng, n):
    """A random signed permutation of Z^n with a shift."""
    perm = rng.sample(range(n), n)
    linear = tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )
    return AffineUnimodularMap(linear, tuple(rng.randint(-3, 3) for _ in range(n)))


# -- inputs ----------------------------------------------------------------------------------


def test_dim4_pipeline_and_its_signed_permutations():
    # A signed permutation keeps the coordinate hyperplanes, where every
    # parent's certificate can spread 0 on a cell, but changes which axis
    # comes first in each width search.
    seeds = kt34_seeds()
    big, small = dilated_simplex(4, 4), kollar_totaro(3, 4)
    rng = random.Random(SEED + 32)
    maps = [AffineUnimodularMap.identity(4)] + [signed_permutation(rng, 4) for _ in range(8)]
    for m in maps:
        b, sm = m.apply_polytope(big), m.apply_polytope(small)
        res = dim4_pipeline(b, sm, seeds)
        led = assert_ledgers_agree(b, res.subdivision, seeds)
        assert led == res.ledger
        assert [e.tag.kind for e in led.entries] == ["seed"]


def test_criterion_5():
    p = dilated_simplex(4, 3)
    s = regular_subdivision(p, height_function(p, lambda v: abs(v[0] + v[1] + 2 * v[2] - 4)))
    led = assert_ledgers_agree(p, s)
    assert led.describe() == "2*[point] -1*[strongly_varying:unique interior lattice point]"


def test_random_regular_subdivisions():
    # The recipe of the invariant-batch workload: random polytopes in
    # dimensions 2-4 and integer heights 0..3 on their lattice points.
    rng = random.Random(SEED + 33)
    mix = ((2, 4, 3), (3, 3, 2), (4, 1, 3))
    rational = classified = 0
    for trial in range(330):
        dim, coord, extra = mix[trial % 3]
        p = _random_polytope(rng, dim, coord=coord, extra=extra)
        s = regular_subdivision(p, {x: rng.randint(0, 3) for x in p.lattice_points()})
        led = assert_ledgers_agree(p, s, check=trial % 2 == 0)
        rational += not led.entries
        classified += len(led.entries)
    assert rational >= 50 and classified >= 50, (rational, classified)


def test_hand_built_subdivisions():
    # Unchecked, hand-built: a tetrahedron and one of its facets as a second
    # "maximal" cell; the facet alone; two tetrahedra glued along a triangle
    # of width 2 in x = 0; a cube cut in two halves.
    p = hull([(x, y, z) for x in (0, 4) for y in (0, 4) for z in (0, 4)])
    tetra = hull([(1, 1, 1), (3, 1, 1), (1, 3, 1), (1, 1, 3)])
    facet = hull([(1, 1, 1), (3, 1, 1), (1, 3, 1)])
    left = hull([(-1, 0, 0), (0, 0, 0), (0, 2, 0), (0, 0, 2)])
    right = hull([(1, 0, 0), (0, 0, 0), (0, 2, 0), (0, 0, 2)])
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    cut = [(1, y, z) for y in (0, 2) for z in (0, 2)]
    halves = [hull([v for v in cube if v[0] == 0] + cut), hull([v for v in cube if v[0] == 2] + cut)]
    cases = [
        (p, [tetra, facet]),
        (p, [facet]),
        (p, [tetra]),
        (hull(left.vertices + right.vertices), [left, right]),
        (hull(cube), halves),
    ]
    for big, cells in cases:
        assert_ledgers_agree(big, make_subdivision(big, cells), check=False)
