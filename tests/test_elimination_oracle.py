"""The integer elimination kernel against the earlier Fraction Gauss-Jordan and Smith form.

The oracle is the earlier `_gauss_jordan`, `solve_rational` and
`invert_rational`, copied below unchanged, with the earlier greedy `_frame`.
`adjugate` must return det a and det(a) a^{-1} exactly, and
`solve_rational` the same solution or None, on seeded random systems:
square and rectangular up to 8 x 8, singular, rank-deficient and
inconsistent, with int and Fraction entries.  The call sites are covered
on their real inputs: every Wolfe bordered system of the dim4 distance
heights and of the staged double-cone chain, every width and equivalence
frame of the dim4 pipeline, and every subcone adjugate and frame that
fine_interior builds on the dimension-4 inputs of criterion 11a.

`adjugate` runs its Gauss-Jordan on n x n storage; the earlier elimination
of [a | I], copied below as `_oracle_adjugate`, must give the identical
pair wherever the Fraction oracle is asked, and on sizes 0 to 8 with zero
pivots that force row swaps.  Singular, ragged and non-int input raises.

The Smith oracle is the earlier `smith_form`, copied below unchanged apart
from its name, with separate row and column passes.  The kernel clears
columns by the row pass on the transposes; S, U and V must be identical on
seeded random matrices up to 9 x 9 and on every ray pairing matrix of the
polytopes of criteria 2, 3 and 11c.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import sbvol.polytope as polytope_module
import sbvol.subdivision as subdivision_module
import sbvol.toric as toric_module
from sbvol.errors import DegenerateInputError, InternalConsistencyError
from sbvol.families import builtin_seed_registry, dilated_simplex, divisor_23_double_cone, kollar_totaro
from sbvol.intlinalg import (
    Matrix,
    SmithDecomposition,
    _bareiss_rref,
    adjugate,
    copy_matrix,
    det,
    identity_matrix,
    mat_mul,
    rank,
    smith_form,
    transpose,
)
from sbvol.intlinalg import solve_rational as kernel_solve_rational
from sbvol.ledger import dim4_pipeline
from sbvol.polytope import hull
from sbvol.subdivision import _translated, _vertex_list
from sbvol.toric import fine_interior
from sbvol.verification import (
    SEED,
    _c02_hpt,
    _c03_schreieder_class_groups,
    _c11c_condition_m_agreement,
    _random_polytope,
)


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


def _oracle_adjugate(a: Matrix) -> tuple:
    """(det a, det(a) a^{-1}) of a nonsingular square integer matrix, in integers.

    One fraction-free elimination of [a | I]; a singular matrix raises
    DegenerateInputError.
    """
    n = len(a)
    pivots, d, adj = _bareiss_rref([list(row) + e for row, e in zip(a, identity_matrix(n))], n)
    if len(pivots) < n:
        raise DegenerateInputError("matrix is singular")
    return d, adj


def _frame(diffs, d):
    """Indices of d linearly independent vectors of diffs, taken greedily."""
    idx = []
    for i, dv in enumerate(diffs):
        if rank([list(diffs[k]) for k in idx] + [list(dv)]) == len(idx) + 1:
            idx.append(i)
        if len(idx) == d:
            break
    return idx


def _oracle_smith_form(a: Matrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Pivot rule: smallest absolute value among nonzero entries, ties broken by
    lowest (row, col); this makes the decomposition deterministic.
    """
    m = copy_matrix(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    limit = min(rows, cols)

    def diagonalize(start):
        for t in range(start, limit):
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    e = m[i][j]
                    if e != 0 and (best is None or abs(e) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            while True:
                # Clear column t, then row t; restart if clearing reintroduces entries.
                for i in range(t + 1, rows):
                    if m[i][t] != 0:
                        q = m[i][t] // m[t][t]
                        row_op(i, t, q)
                        if m[i][t] != 0:  # remainder is a smaller pivot
                            swap_rows(t, i)
                if any(m[i][t] != 0 for i in range(t + 1, rows)):
                    continue
                for j in range(t + 1, cols):
                    if m[t][j] != 0:
                        q = m[t][j] // m[t][t]
                        col_op(j, t, q)
                        if m[t][j] != 0:
                            swap_cols(t, j)
                if any(m[t][j] != 0 for j in range(t + 1, cols)) or any(
                    m[i][t] != 0 for i in range(t + 1, rows)
                ):
                    continue
                break

    diagonalize(0)
    # Enforce the divisibility chain d_i | d_{i+1}: a column add exposes the
    # pair to a gcd step, then the block is re-diagonalized.
    while True:
        bad = None
        for i in range(limit - 1):
            a_, b_ = m[i][i], m[i + 1][i + 1]
            if a_ != 0 and b_ != 0 and b_ % a_ != 0:
                bad = i
                break
        if bad is None:
            break
        col_op(bad, bad + 1, -1)  # col_bad += col_{bad+1}
        diagonalize(bad)

    # Positive diagonal.
    for i in range(limit):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    if mat_mul(mat_mul(u, a), v) != m:
        raise InternalConsistencyError("Smith form: the transforms do not reproduce the form")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        raise InternalConsistencyError("Smith form: a transform is not unimodular")
    sd = SmithDecomposition(
        s=tuple(tuple(r) for r in m),
        u=tuple(tuple(r) for r in u),
        v=tuple(tuple(r) for r in v),
    )
    diag = sd.invariant_factors
    if any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
        raise InternalConsistencyError("Smith form: the invariant factors do not divide in turn")
    return sd


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
    assert (d, adj) == _oracle_adjugate(a)
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
    for a in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[]], [[0, 1], [1]]):  # non-square or ragged
        with pytest.raises(DegenerateInputError, match="square matrix of ints"):
            adjugate(a)
    assert kernel_solve_rational([[0, 0]], [0]) == (0, 0)
    assert kernel_solve_rational([[0, 0]], [1]) is None
    assert kernel_solve_rational([[2], [4]], [Fraction(1, 3), Fraction(2, 3)]) == (Fraction(1, 6),)


def test_adjugate_against_the_elimination_of_a_beside_the_identity():
    # Sizes 0 to 8; zeros on and above the diagonal, rows shuffled, force row
    # swaps, and a zero column or a repeated row makes a singular matrix.
    rng = random.Random(1969)
    seen = {"swapped": 0, "inverted": 0, "singular": 0}
    for trial in range(900):
        n = trial % 9
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.4:
                    a[i][j] = 0
        if n > 1 and trial % 7 == 0:
            a[rng.randrange(n)] = list(a[rng.randrange(n)])
        rng.shuffle(a)
        try:
            want = _oracle_adjugate(a)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError, match="^matrix is singular$"):
                adjugate(a)
            seen["singular"] += 1
            continue
        assert adjugate(a) == want, a
        assert want[0] == det(a)
        seen["inverted"] += 1
        seen["swapped"] += any(_leading_zero_pivot(a, t) for t in range(n))
    assert all(count >= 100 for count in seen.values()), seen


def _leading_zero_pivot(a, t):
    """True when the leading t x t minor is nonzero and the next one is 0: step t must swap."""
    return det([row[:t] for row in a[:t]]) != 0 and det([row[: t + 1] for row in a[: t + 1]]) == 0


def _smith_triple(a):
    sd = smith_form(a)
    want = _oracle_smith_form(a)
    assert (sd.s, sd.u, sd.v) == (want.s, want.u, want.v), a
    return sd


def test_random_smith_forms():
    rng = random.Random(1993)
    for a in ([], [[]], [[0]], [[0, 0], [0, 0]], [[-4]], [[2, 0], [0, 3]]):
        _smith_triple(a)
    nontrivial = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        a = [[0 if rng.random() < 0.35 else rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        nontrivial += any(d > 1 for d in _smith_triple(a).invariant_factors)
    assert nontrivial > 50


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
    for ((corral,), (alpha, e)), ((system,), _) in zip(minimizers, inverses):
        k = len(corral)
        assert system == [[sum(x * y for x, y in zip(p, q)) for q in corral] + [1] for p in corral] + [[1] * k + [0]]
        assert assert_adjugate_agrees(system)
        assert rank(system) == k + 1
        assert e > 0 and sum(alpha) == e
        assert [Fraction(a, e) for a in alpha] == list(solve_rational(system, [0] * k + [1])[:k])


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
    adjugates = _recorded(monkeypatch, toric_module, "adjugate")
    frames = _recorded(monkeypatch, toric_module, "_subcone_scan_frame")
    inputs = _criterion_11a_dim4_inputs()
    assert len(inputs) > 40
    for p in inputs:
        fine_interior(p)
    assert len(adjugates) > len(frames) > 40
    for (m,), _ in adjugates:
        assert assert_adjugate_agrees(m)  # the membership rows of one subcone
    for _, (_, tcons, new_rays) in frames:
        # the earlier scan constraints: rows of |det M| M^{-1} in the new coordinates
        m = transpose(new_rays)
        abs_det = abs(det(m))
        assert tcons == [(tuple(int(x * abs_det) for x in row), 0) for row in invert_rational(m)]


def test_class_group_smith_forms(monkeypatch):
    calls = _recorded(monkeypatch, toric_module, "smith_form")
    for criterion in (_c02_hpt, _c03_schreieder_class_groups, _c11c_condition_m_agreement):
        assert criterion()[0]
    assert len(calls) > 50
    for (a,), got in calls:
        want = _oracle_smith_form(a)
        assert (got.s, got.u, got.v) == (want.s, want.u, want.v), a
