"""The integer elimination kernel against the earlier Fraction Gauss-Jordan.

The oracle is the earlier `_gauss_jordan`, `solve_rational` and
`invert_rational`, copied below unchanged, with the earlier greedy `_frame`.
`adjugate` must return det a and det(a) a^{-1} exactly, and
`solve_rational` the same solution or None, on seeded random systems:
square and rectangular up to 8 x 8, singular, rank-deficient and
inconsistent, with int and Fraction entries.  The call sites are covered
on their real inputs: every Wolfe bordered system of the dim4 distance
heights and of the staged double-cone chain, every width and equivalence
frame of the dim4 pipeline, and every subcone frame of the dimension-4
inputs of criterion 11a.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import sbvol.polytope as polytope_module
import sbvol.subdivision as subdivision_module
import sbvol.toric as toric_module
from sbvol.errors import DegenerateInputError
from sbvol.families import builtin_seed_registry, dilated_simplex, divisor_23_double_cone, kollar_totaro
from sbvol.intlinalg import Matrix, adjugate, det, identity_matrix, rank, transpose
from sbvol.intlinalg import solve_rational as kernel_solve_rational
from sbvol.ledger import dim4_pipeline
from sbvol.polytope import _triangulate_cone, hull
from sbvol.subdivision import _translated, _vertex_list
from sbvol.toric import normal_fan
from sbvol.verification import SEED, _random_polytope


# -- the earlier routines, unchanged --------------------------------------------------


def _gauss_jordan(a: Matrix, rhs: Matrix):
    """Reduced row echelon form of [a | rhs] over Q, pivoting in the columns of a.

    Returns (pivot columns, the reduced right-hand part as Fraction rows).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(v) for v in extra] for row, extra in zip(a, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, [row[cols:] for row in m]


def solve_rational(a: Matrix, b) -> tuple | None:
    """One rational solution of a x = b (exact), or None when inconsistent."""
    cols = len(a[0]) if a else 0
    pivots, reduced = _gauss_jordan(a, [[v] for v in b])
    if any(row[0] != 0 for row in reduced[len(pivots) :]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(reduced, pivots):
        x[c] = row[0]
    return tuple(x)


def invert_rational(a: Matrix) -> Matrix:
    """Exact inverse of a nonsingular square matrix, as Fraction rows.

    One Gauss-Jordan elimination of [a | I]; a singular matrix raises
    DegenerateInputError.
    """
    n = len(a)
    pivots, inverse = _gauss_jordan(a, identity_matrix(n))
    if len(pivots) < n:
        raise DegenerateInputError("matrix is singular")
    return inverse


def _frame(diffs, d):
    """Indices of d linearly independent vectors of diffs, taken greedily."""
    idx = []
    for i, dv in enumerate(diffs):
        if rank([list(diffs[k]) for k in idx] + [list(dv)]) == len(idx) + 1:
            idx.append(i)
        if len(idx) == d:
            break
    return idx


# -- agreement -------------------------------------------------------------------------


def assert_adjugate_agrees(a):
    """adjugate(a) is (det a, det(a) a^{-1}) in ints, or both routes call a singular."""
    try:
        inverse = invert_rational(a)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError, match="singular"):
            adjugate(a)
        return False
    d, adj = adjugate(a)
    assert d == det(a)
    assert adj == [[x * d for x in row] for row in inverse]
    assert all(type(x) is int for row in adj for x in row)
    return True


def _entry(rng, fractional, sparse):
    if sparse and rng.random() < 0.5:
        return 0
    if fractional:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-5, 5)


def _random_system(rng):
    """(a, b, fractional): a product of factors of random inner size, so often rank-deficient."""
    rows = rng.randint(1, 8)
    cols = rows if rng.random() < 0.5 else rng.randint(1, 8)
    fractional, sparse = rng.random() < 0.3, rng.random() < 0.3
    inner = rng.randint(1, max(rows, cols))
    left = [[_entry(rng, fractional, sparse) for _ in range(inner)] for _ in range(rows)]
    right = [[_entry(rng, fractional, sparse) for _ in range(cols)] for _ in range(inner)]
    a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    if rng.random() < 0.5:  # consistent by construction
        x = [_entry(rng, fractional, False) for _ in range(cols)]
        b = [sum(c * v for c, v in zip(row, x)) for row in a]
    else:
        b = [_entry(rng, fractional, sparse) for _ in range(rows)]
    return a, b, fractional


def test_random_systems():
    rng = random.Random(1968)
    seen = {"square": 0, "rectangular": 0, "singular": 0, "inverted": 0}
    seen.update({"rank-deficient": 0, "inconsistent": 0, "fractional": 0})
    for _ in range(2400):
        a, b, fractional = _random_system(rng)
        want = solve_rational(a, b)
        assert kernel_solve_rational(a, b) == want, (a, b)
        r = rank([[x * 720720 for x in row] for row in a])  # 720720 clears every denominator
        seen["rank-deficient"] += r < min(len(a), len(a[0]))
        seen["inconsistent"] += want is None
        seen["fractional"] += fractional
        if len(a) != len(a[0]):
            seen["rectangular"] += 1
            continue
        seen["square"] += 1
        if not fractional:
            seen["inverted" if assert_adjugate_agrees(a) else "singular"] += 1
    assert all(count >= 100 for count in seen.values()), seen


def test_edge_shapes():
    assert adjugate([]) == (1, [])
    assert adjugate([[-7]]) == (-7, [[1]])
    # a row swap negates the row moved down, so the sign of the determinant holds
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert assert_adjugate_agrees([[0, 2, 1], [3, 0, 0], [0, 0, 5]])
    assert kernel_solve_rational([[0, 0]], [0]) == (0, 0)
    assert kernel_solve_rational([[0, 0]], [1]) is None
    assert kernel_solve_rational([[2], [4]], [Fraction(1, 3), Fraction(2, 3)]) == (Fraction(1, 6),)


# -- the call sites --------------------------------------------------------------------


def _recorded(monkeypatch, module, name):
    """Wrap module.name so that every call appends (args, result) to the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_wolfe_bordered_systems(monkeypatch):
    # Wolfe runs on every translated, integer-scaled vertex set that the dim4
    # distance heights and the staged double cone pose, points in the stage
    # included, though min_squared_distance settles those by containment.
    minimizers = _recorded(monkeypatch, subdivision_module, "_affine_minimizer")
    inverses = _recorded(monkeypatch, subdivision_module, "adjugate")
    dc = divisor_23_double_cone()
    for big, stages in [
        (dilated_simplex(4, 4), [kollar_totaro(3, 4)]),
        (dc.polytope, list(dc.slices()) + [dc.embedded_base()]),
    ]:
        for stage in stages:
            for x in big.lattice_points():
                subdivision_module._wolfe_min_norm(_translated(_vertex_list(stage), x)[0])
    assert len(minimizers) > 150
    assert len(inverses) == len(minimizers)  # one elimination per affine minimum
    assert {len(corral) for (corral,), _ in minimizers} >= {2, 3, 4, 5}
    for ((corral,), alpha), ((system,), _) in zip(minimizers, inverses):
        k = len(corral)
        assert system == [[sum(x * y for x, y in zip(p, q)) for q in corral] + [1] for p in corral] + [[1] * k + [0]]
        assert assert_adjugate_agrees(system)
        assert rank(system) == k + 1
        assert list(alpha) == list(solve_rational(system, [0] * k + [1])[:k])


def test_dim4_pipeline_frames(monkeypatch):
    frames = _recorded(monkeypatch, polytope_module, "_frame")
    inverses = _recorded(monkeypatch, polytope_module, "adjugate")
    seeds = builtin_seed_registry()
    seeds.register("double-cover-3-4", kollar_totaro(3, 4), "double cover bound")
    res = dim4_pipeline(dilated_simplex(4, 4), kollar_totaro(3, 4), seeds)
    assert res.verdict.status == "obstructed"
    assert len(frames) >= 5
    assert len(inverses) == len(frames)  # one inverse per frame, at width and equivalence
    # the frame the width search takes in every cell of positive dimension
    for cell in res.subdivision.cells:
        q, _ = cell.normalize_full_dimensional()
        if q.dim() >= 1:
            v0 = q.vertices[0]
            polytope_module._frame([tuple(a - b for a, b in zip(v, v0)) for v in q.vertices[1:]])
    assert len(frames) > 1000
    for (diffs,), idx in frames:
        assert idx == _frame(diffs, len(diffs[0]))
        assert assert_adjugate_agrees([list(diffs[i]) for i in idx])


def _criterion_11a_dim4_inputs():
    """The distinct dimension-4 polytopes of criterion 11a, drawn as it draws them."""
    rng = random.Random(SEED)
    out, done = {}, 0
    while done < 200:
        dim = rng.choice([2, 2, 2, 3, 3, 4])
        big = _random_polytope(rng, dim)
        pts = big.lattice_points()
        if len(pts) <= dim + 1:
            continue
        k = rng.randint(dim + 1, min(len(pts), dim + 4))
        small = hull(rng.sample(pts, k))
        if small.dim() != dim:
            continue
        done += 1
        if dim == 4:
            out.update({small.vertices: small, big.vertices: big})
    return list(out.values())


def test_criterion_11a_subcone_frames(monkeypatch):
    inverses = _recorded(monkeypatch, toric_module, "adjugate")
    frames = 0
    inputs = _criterion_11a_dim4_inputs()
    assert len(inputs) > 40
    for p in inputs:
        fan = normal_fan(p)
        for cone in fan.vertex_cones:
            for tri in _triangulate_cone([fan.rays[j] for j in sorted(cone)], 4):
                _, tcons, _, _, new_rays = toric_module._subcone_scan_frame(tri, 4)
                frames += 1
                # the earlier scan constraints: rows of |det M| M^{-1}
                m = transpose(new_rays)
                abs_det = abs(det(m))
                assert tcons == [(tuple(int(x * abs_det) for x in row), 0) for row in invert_rational(m)]
                assert assert_adjugate_agrees(m)
    assert len(inverses) == frames
