"""Exact integer linear algebra: Hermite and Smith forms, kernels, linear solving.

Matrices are plain lists of lists of Python ints (rows); everything is
arbitrary precision and every decomposition is verified exactly before it
is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateInputError, InternalConsistencyError

Matrix = list  # list[list[int]], row major
Vector = tuple  # tuple[int, ...]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a: Matrix) -> Matrix:
    return [list(row) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, x) -> Vector:
    return tuple(sum(map(mul, row, x)) for row in a)


def vec_mat(x, a: Matrix) -> Vector:
    return tuple(sum(map(mul, x, col)) for col in zip(*a))


def dot(x, y) -> int:
    return sum(map(mul, x, y))


def vec_gcd(x) -> int:
    return gcd(*x)


def primitive(x) -> Vector:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = vec_gcd(x)
    if g <= 1:
        return tuple(x)
    return tuple(v // g for v in x)


def det(a: Matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    if not a or not a[0]:
        return 0
    m = copy_matrix(a)
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f1, f2 = m[i][c], m[r][c]
                m[i] = [f2 * x - f1 * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def hermite_form(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U*a = H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    m = copy_matrix(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity_matrix(rows)
    r = 0
    pivots = []
    for c in range(cols):
        # Euclidean elimination below row r in column c.
        while True:
            nz = [i for i in range(r, rows) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(m[i][c]), i))
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < rows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
                u[r] = [-x for x in u[r]]
            pivots.append((r, c))
            r += 1
            if r == rows:
                break
    # Reduce entries above each pivot.
    for r, c in pivots:
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
    if mat_mul(u, a) != m:
        raise InternalConsistencyError("Hermite form: the transform does not reproduce the form")
    return m, u


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = S with S diagonal, d_i | d_{i+1}, U and V unimodular."""

    s: tuple
    u: tuple
    v: tuple

    @property
    def diagonal(self) -> tuple:
        return tuple(self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0)))

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diagonal if d != 0)


def _clear(x: Matrix, w: Matrix, t: int) -> bool:
    """Euclid down column t of x below row t, mirrored on w; True when the column is clear."""
    for i in range(t + 1, len(x)):
        if x[i][t] != 0:
            q = x[i][t] // x[t][t]
            x[i] = [a - q * b for a, b in zip(x[i], x[t])]
            w[i] = [a - q * b for a, b in zip(w[i], w[t])]
            if x[i][t] != 0:  # remainder is a smaller pivot
                x[t], x[i], w[t], w[i] = x[i], x[t], w[i], w[t]
    return not any(x[i][t] for i in range(t + 1, len(x)))


def smith_form(a: Matrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Pivot rule: smallest absolute value among nonzero entries, ties broken by
    lowest (row, col); this makes the decomposition deterministic.  Column t is
    cleared by row steps on (m, u), and row t by the same pass on (m^T, v^T).
    """
    m = copy_matrix(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    limit = min(rows, cols)

    def diagonalize(start):
        for t in range(start, limit):
            nz = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
            if not nz:
                return
            _, i, j = min(nz)
            m[t], m[i], u[t], u[i] = m[i], m[t], u[i], u[t]
            for row in m + v:
                row[t], row[j] = row[j], row[t]
            # Clear column t, then row t; restart if clearing reintroduces entries.
            while True:
                if _clear(m, u, t):
                    mt, vt = transpose(m), transpose(v)
                    row_clear = _clear(mt, vt, t)
                    m[:], v[:] = transpose(mt), transpose(vt)
                    if row_clear and not any(m[i][t] for i in range(t + 1, rows)):
                        break

    diagonalize(0)
    # Enforce the divisibility chain d_i | d_{i+1}: a column add exposes the
    # pair to a gcd step, then the block is re-diagonalized.
    while True:
        d = [m[i][i] for i in range(limit)]
        bad = next((i for i in range(limit - 1) if d[i] != 0 and d[i + 1] % d[i] != 0), None)
        if bad is None:
            break
        for row in m + v:  # col_bad += col_{bad+1}
            row[bad] += row[bad + 1]
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


def integer_kernel(a: Matrix) -> list:
    """Basis of the lattice {x in Z^cols : a x = 0}.

    The kernel of an integer matrix is saturated, so the returned vectors are
    a genuine lattice basis of span(kernel) intersected with Z^cols.
    """
    if not a:
        return []
    cols = len(a[0])
    h, u = hermite_form(transpose(a))
    basis = [tuple(u[i]) for i in range(cols) if all(x == 0 for x in h[i])]
    if any(dot(row, b) for row in a for b in basis):
        raise InternalConsistencyError("integer kernel: a basis vector is not in the kernel")
    return basis


def _bareiss_rref(a: Matrix, cols: int):
    """Fraction-free (Bareiss) reduced row echelon form over Z, pivoting in the first cols columns.

    Returns (pivot columns, d, the reduced rest of each row), the pivot block being d I; for
    a = [b | rhs] with b square and nonsingular, d = det b and the rest is adj(b) rhs.  Each
    entry is a minor of the input, so the division by the previous pivot is exact, and a swap
    negates the row it moves down, so no step changes the determinant.  It serves the
    rectangular and rank-deficient cases, solve_rational and the frame of a point set;
    adjugate runs its own elimination on n x n storage.
    """
    rows = len(a)
    m = [list(row) for row in a]
    pivots, d = [], 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], [-x for x in m[r]]
        p = m[r][c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], m[r])]
        pivots.append(c)
        d = p
    return pivots, d, [row[cols:] for row in m]


def solve_rational(a: Matrix, b) -> tuple | None:
    """One rational solution of a x = b (exact), or None when inconsistent."""
    cols = len(a[0]) if a else 0
    ints = []
    for row, v in zip(a, b):
        q = lcm(*(x.denominator for x in row), v.denominator)
        ints.append([x.numerator * (q // x.denominator) for x in (*row, v)])
    pivots, d, reduced = _bareiss_rref(ints, cols)
    if any(row[0] != 0 for row in reduced[len(pivots) :]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(reduced, pivots):
        x[c] = Fraction(row[0], d)
    return tuple(x)


def adjugate(a: Matrix) -> tuple:
    """(det a, det(a) a^{-1}) of a nonsingular square integer matrix, in integers.

    Fraction-free (Bareiss) Gauss-Jordan of [a | I] on n x n storage: at step
    t, column t of the right block is stored where column t of the left block
    was, -f off the pivot row and the previous pivot d on it, so each step
    updates n columns, not 2n.  Every entry is a minor of the input, so the
    division by d is exact.  A swap negates the row it moves down, so the
    rows are a signed permutation P a with det(P a) = det a, and adj a =
    adj(P a) P undoes the swaps on the columns at the end.  A non-square or
    ragged matrix, an entry that is not an int (a bool included) and a
    singular matrix raise DegenerateInputError.
    """
    n = len(a)
    try:
        bad = any(len(row) != n for row in a) or not {type(x) for row in a for x in row} <= {int}
    except TypeError:  # a row that is not a sequence
        bad = True
    if bad:
        raise DegenerateInputError(f"adjugate needs a square matrix of ints, got {a!r}")
    m = [list(row) for row in a]
    swaps, d = [], 1
    for t in range(n):
        r = next((i for i in range(t, n) if m[i][t]), None)
        if r is None:
            raise DegenerateInputError("matrix is singular")
        if r != t:
            m[t], m[r] = m[r], [-x for x in m[t]]
            swaps.append((t, r))
        prow = m[t]
        p = prow[t]
        for i, row in enumerate(m):
            if i != t:
                f = row[t]
                m[i] = row = [(p * x - f * y) // d for x, y in zip(row, prow)]
                row[t] = -f
        prow[t], d = d, p
    for t, r in reversed(swaps):
        for row in m:
            row[t], row[r] = -row[r], row[t]
    return d, m


def invert_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix (again integer): det(a) adj(a)."""
    try:
        d, adj = adjugate(a)
    except DegenerateInputError:
        d = 0
    if abs(d) != 1:
        raise DegenerateInputError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]
