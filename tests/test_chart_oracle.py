"""The Hermite span chart against the pseudo-inverse chart oracle.

The oracle is the earlier AffineChart, copied unchanged below: it solves the
Gram system of the span basis for a Fraction pseudo-inverse and certifies
each image by mapping it back.  On random point sets of every span
dimension below the ambient one, both charts must agree exactly (Fraction
equality) on the basis, on chart coordinates, on rejecting points off the
span, and on what a lower-dimensional polytope derives through its chart:
normalized vertices, lattice points and the lattice width with its
certificate.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from sbvol import polytope
from sbvol.errors import DegenerateInputError, InternalConsistencyError
from sbvol.intlinalg import dot, integer_kernel, rank, solve_rational
from sbvol.polytope import LatticePolytope, hull


@dataclass(frozen=True)
class AffineChart:
    """Exact isomorphism between the affine lattice of a span and Z^dim."""

    ambient_dim: int
    dim: int
    base: tuple
    basis: tuple  # rows, each an ambient integer vector
    _pinv: tuple = field(repr=False, default=())  # Fraction rows, dim x ambient

    @staticmethod
    def identity(n):
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        pinv = tuple(tuple(Fraction(x) for x in row) for row in eye)
        return AffineChart(n, n, tuple([0] * n), eye, pinv)

    @staticmethod
    def for_points(points):
        """Chart of the affine span of integer points, base at the first point."""
        base = points[0]
        n = len(base)
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in points[1:]]
        diffs = [d for d in diffs if any(d)]
        if not diffs:
            return AffineChart(n, 0, tuple(base), (), ())
        d = rank([list(v) for v in diffs])
        if d == n:
            return AffineChart.identity(n)._rebase(tuple(base))
        equations = integer_kernel([list(v) for v in diffs])
        basis = integer_kernel([list(e) for e in equations])
        if len(basis) != d:
            raise InternalConsistencyError("span lattice basis has the wrong rank")
        b = [list(v) for v in basis]
        bbt = [[dot(r1, r2) for r2 in b] for r1 in b]
        rows = []
        for i in range(d):
            rhs = [Fraction(1) if j == i else Fraction(0) for j in range(d)]
            sol = solve_rational(bbt, rhs)
            rows.append(sol)
        pinv = tuple(
            tuple(sum(rows[i][k] * Fraction(b[k][j]) for k in range(d)) for j in range(n))
            for i in range(d)
        )
        return AffineChart(n, d, tuple(base), tuple(tuple(v) for v in basis), pinv)

    def _rebase(self, base):
        return AffineChart(self.ambient_dim, self.dim, base, self.basis, self._pinv)

    def is_identity(self):
        return self.dim == self.ambient_dim and all(x == 0 for x in self.base)

    def to_chart(self, x):
        """Chart coordinates of an ambient point; exact, raises off the span."""
        if self.is_identity():
            return tuple(x)
        diff = tuple(Fraction(a) - b for a, b in zip(x, self.base))
        lam = tuple(sum(row[j] * diff[j] for j in range(self.ambient_dim)) for row in self._pinv)
        back = self.from_chart(lam)
        if tuple(Fraction(v) for v in back) != tuple(Fraction(a) for a in x):
            raise DegenerateInputError(f"point {x!r} is not in the affine span")
        return tuple(int(v) if v.denominator == 1 else v for v in lam)

    def from_chart(self, y):
        if self.is_identity():
            return tuple(y)
        out = list(self.base)
        vals = [Fraction(v) for v in out]
        for coeff, row in zip(y, self.basis):
            for j in range(self.ambient_dim):
                vals[j] += Fraction(coeff) * row[j]
        return tuple(int(v) if v.denominator == 1 else v for v in vals)


def chart_image(chart, x):
    """(coordinates with their types) or "off" when the chart rejects x."""
    try:
        y = chart.to_chart(x)
    except DegenerateInputError:
        return "off"
    return tuple((v, type(v)) for v in y)


def oracle_polytope(p):
    """p with its chart cache holding the oracle chart of the same vertices."""
    q = LatticePolytope._trusted(p.ambient_dim, p.vertices)
    if not p.is_full_dimensional():
        q._cache["chart"] = AffineChart.for_points(q.vertices)
    return q


def assert_charts_agree(points, queries):
    new = polytope.AffineChart.for_points(points)
    old = AffineChart.for_points(points)
    assert (new.ambient_dim, new.dim, new.base, new.basis) == (old.ambient_dim, old.dim, old.base, old.basis)
    assert new.is_identity() == old.is_identity()
    for x in list(points) + list(queries):
        image = chart_image(new, x)
        assert image == chart_image(old, x), x
        if image != "off":
            y = tuple(v for v, _ in image)
            assert new.from_chart(y) == old.from_chart(y) == tuple(x)
    p = hull(points)
    q = oracle_polytope(p)
    assert p.chart().basis == q.chart().basis
    assert p.normalize_full_dimensional()[0].vertices == q.normalize_full_dimensional()[0].vertices
    assert p.lattice_points() == q.lattice_points()
    assert p.lattice_points(interior_only=True) == q.lattice_points(interior_only=True)
    if p.dim() >= 1:
        assert p.lattice_width() == q.lattice_width()


def span_case(rng):
    """(points, queries): integer points spanning a random affine subspace.

    The points are the base plus combinations with coefficients 0..2 of k
    random directions, so the differences often generate a proper sublattice
    of the span lattice.  Queries lie on the span (integer and rational
    combinations) and off it (one step off along an axis that leaves it).
    """
    n = rng.randint(2, 6)
    k = rng.randint(0, n - 1)
    base = tuple(rng.randint(-3, 3) for _ in range(n))
    dirs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
    top = 2 if k <= 3 else 1
    points = [base]
    for _ in range(k + rng.randint(0, 2)):
        coeffs = [rng.randint(0, top) for _ in dirs]
        points.append(tuple(b + sum(c * dv[j] for c, dv in zip(coeffs, dirs)) for j, b in enumerate(base)))
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    queries = []
    for _ in range(4):
        t = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in diffs]
        on = tuple(b + sum(c * dv[j] for c, dv in zip(t, diffs)) for j, b in enumerate(base))
        queries.append(tuple(int(v) if v.denominator == 1 else v for v in on))
        m = [rng.randint(-3, 3) for _ in diffs]
        queries.append(tuple(b + sum(c * dv[j] for c, dv in zip(m, diffs)) for j, b in enumerate(base)))
    span_rank = rank(diffs) if diffs else 0
    for j in range(n):
        axis = [1 if i == j else 0 for i in range(n)]
        if (rank(diffs + [axis]) if diffs else 1) > span_rank:
            for step in (1, Fraction(1, 2)):
                queries.append(tuple(v + step * a for v, a in zip(queries[0], axis)))
            break
    return points, queries


def test_random_span_charts_agree_with_oracle():
    rng = random.Random(20240505)
    dims = set()
    for _ in range(320):
        points, queries = span_case(rng)
        assert_charts_agree(points, queries)
        dims.add((len(points[0]), polytope.AffineChart.for_points(points).dim))
    # every ambient dimension 2..6 occurs with every span dimension 0..n-1
    assert dims >= {(n, k) for n in range(2, 7) for k in range(n)}


def test_full_dimensional_and_point_charts_agree_with_oracle():
    for points in ([(1, 2)], [(2, 1), (2, 1)], [(1, 1), (3, 1), (1, 2)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        assert_charts_agree(points, [(5,) * len(points[0]), (Fraction(1, 2),) * len(points[0])])


def test_hypothesis_charts_agree_with_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def span_points(draw):
        n = draw(st.integers(2, 5))
        k = draw(st.integers(0, n - 1))
        coord = st.integers(-2, 2)
        base = draw(st.tuples(*[st.integers(-3, 3)] * n))
        dirs = draw(st.lists(st.tuples(*[coord] * n), min_size=k, max_size=k))
        coeffs = draw(st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=1, max_size=k + 2))
        points = [base] + [
            tuple(b + sum(c * dv[j] for c, dv in zip(cs, dirs)) for j, b in enumerate(base)) for cs in coeffs
        ]
        queries = draw(st.lists(st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * n), max_size=3))
        return points, [tuple(int(v) if v.denominator == 1 else v for v in x) for x in queries]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(span_points())
    def check(case):
        points, queries = case
        assert_charts_agree(points, queries)

    check()
