"""The exact kernels against their earlier generator loops.

The oracles are the earlier dot, mat_vec, vec_mat, mat_mul, vec_gcd,
primitive, AffineChart.from_chart and subdivision._combination, copied
below.  The package now runs their inner loops through sum(map(mul, ...))
and the variadic math.gcd.  On drawn int and Fraction inputs of lengths 0
to 8, with negative entries and zero vectors, both must give the same
value with the same type in every entry, so no int turns into a Fraction
or the other way round.  The combination is gone: Wolfe's point is now
vec_mat of int weights over one denominator, held to the same point.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

from sbvol import intlinalg
from sbvol.polytope import AffineChart, _check_ambient, _eye, _lowest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)

# -- the earlier kernels ----------------------------------------------------------------


def oracle_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def oracle_mat_vec(a, x):
    return tuple(sum(c * v for c, v in zip(row, x)) for row in a)


def oracle_vec_mat(x, a):
    return tuple(sum(x[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def oracle_dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def oracle_vec_gcd(x):
    g = 0
    for v in x:
        g = gcd(g, abs(v))
    return g


def oracle_primitive(x):
    g = oracle_vec_gcd(x)
    if g <= 1:
        return tuple(x)
    return tuple(v // g for v in x)


def oracle_from_chart(chart, y):
    y = _check_ambient(chart.dim, y)
    if chart.is_identity():
        return y
    return tuple(
        _lowest(b + sum(c * row[j] for c, row in zip(y, chart.basis)))
        for j, b in enumerate(chart.base)
    )


def oracle_combination(points, weights):
    den = lcm(*(w.denominator for w in weights))
    ints = [int(w * den) for w in weights]
    return tuple(sum(c * p[t] for c, p in zip(ints, points)) for t in range(len(points[0]))), den


# -- the comparison ---------------------------------------------------------------------


def same(got, want):
    """Equal, with the same type at every level: a tuple stays a tuple, an int an int."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            same(g, w)
    else:
        assert got == want


ints = st.integers(-50, 50)
rationals = st.one_of(ints, st.fractions(-20, 20, max_denominator=7))


def vectors(entries, n):
    """Vectors of length n, a zero vector among them."""
    return st.one_of(st.tuples(*[entries] * n), st.just((0,) * n))


def matrices(entries, rows, cols):
    return st.lists(vectors(entries, cols), min_size=rows, max_size=rows)


@settings
@hypothesis.given(st.data(), st.sampled_from([ints, rationals]))
def test_dot_and_mat_vec(data, entries):
    n = data.draw(st.integers(0, 8))
    x, y = data.draw(vectors(entries, n)), data.draw(vectors(entries, n))
    same(intlinalg.dot(x, y), oracle_dot(x, y))
    a = data.draw(matrices(entries, data.draw(st.integers(0, 8)), n))
    same(intlinalg.mat_vec(a, x), oracle_mat_vec(a, x))


@settings
@hypothesis.given(st.data(), st.sampled_from([ints, rationals]))
def test_vec_mat_and_mat_mul(data, entries):
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 8))
    a = data.draw(matrices(entries, rows, cols))
    x = data.draw(vectors(entries, rows))
    same(intlinalg.vec_mat(x, a), oracle_vec_mat(x, a))
    b = data.draw(matrices(entries, data.draw(st.integers(0, 8)), rows))
    same(intlinalg.mat_mul(b, a), oracle_mat_mul(b, a))


@settings
@hypothesis.given(st.integers(0, 8).flatmap(lambda n: vectors(ints, n)))
def test_vec_gcd_and_primitive(x):
    same(intlinalg.vec_gcd(x), oracle_vec_gcd(x))
    same(intlinalg.primitive(x), oracle_primitive(x))
    same(intlinalg.primitive(list(x)), oracle_primitive(list(x)))


def test_gcd_of_fractions_raises_in_both():
    for kernel in (intlinalg.vec_gcd, oracle_vec_gcd):
        with pytest.raises(TypeError):
            kernel((Fraction(1, 2), 3))


@settings
@hypothesis.given(st.data(), st.sampled_from([ints, rationals]))
def test_from_chart(data, entries):
    n = data.draw(st.integers(0, 8))
    k = data.draw(st.integers(0, n))
    base = data.draw(st.one_of(vectors(ints, n), vectors(entries, n)))
    basis = tuple(data.draw(matrices(ints, k, n)))
    chart = AffineChart(n, k, base, basis, _eye(n))  # from_chart does not read the transform
    y = data.draw(vectors(entries, k))
    same(chart.from_chart(y), oracle_from_chart(chart, y))


def test_from_chart_of_named_charts():
    charts = [
        AffineChart.for_points([(3, -1, 2)]),  # a point: dimension 0, no basis
        AffineChart.for_points([(2, 5), (2, 5)]),
        AffineChart.for_points([(1, 1), (3, 1), (1, 2)]),  # full, base off the origin
        AffineChart.for_points([(0, 0, 0), (1, 2, 3), (2, 0, 1)]),
        AffineChart.identity(3),
        AffineChart.identity(0),
    ]
    for chart in charts:
        for y in ((0,) * chart.dim, (4,) * chart.dim, (Fraction(-1, 3),) * chart.dim):
            same(chart.from_chart(y), oracle_from_chart(chart, y))


@settings
@hypothesis.given(st.data())
def test_combination(data):
    # Wolfe's point is Y / D with Y = vec_mat(L, points), its weights L_i / D
    # over one denominator: the point of the earlier combination, in ints.
    n, k = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 8))
    points = data.draw(st.lists(vectors(ints, n), min_size=k, max_size=k))
    weights, den = data.draw(st.lists(ints, min_size=k, max_size=k)), data.draw(st.integers(1, 60))
    want, want_den = oracle_combination(points, [Fraction(w, den) for w in weights])
    big = intlinalg.vec_mat(weights, points)
    same(tuple(c * want_den for c in big), tuple(c * den for c in want))
