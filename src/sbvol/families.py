"""Named polytope families, double cones, degree-budget extensions, bound tables."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from inspect import signature
from math import gcd

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidParameterError,
)
from .ledger import SeedRegistry
from .polytope import (
    AffineUnimodularMap,
    LatticePolytope,
    RationalPolytope,
    _as_tuple,
    _instance,
    _int_in,
    _pair,
    cartesian_product,
    dilate,
    hull,
    slacks,
)


def _unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def _add(*vs):
    return tuple(sum(x) for x in zip(*vs))


def _cyclic_chain(m, w, start):
    """e_start, w e_start + e_{start+1}, ..., w e_{m-2} + e_{m-1}, w e_{m-1} in Z^m."""
    e = [_unit(i, m) for i in range(m + 1)]  # e[m] = 0
    return [e[start]] + [tuple(w * a + b for a, b in zip(e[i], e[i + 1])) for i in range(start, m)]


def standard_simplex(n: int) -> LatticePolytope:
    _int_in(n, "standard_simplex: n", 0, error=InvalidParameterError)
    return hull([tuple([0] * n)] + [_unit(i, n) for i in range(n)])


def dilated_simplex(d: int, n: int) -> LatticePolytope:
    _int_in(d, "dilated_simplex: d", 1, error=InvalidParameterError)
    _int_in(n, "dilated_simplex: n", 1, error=InvalidParameterError)
    return dilate(standard_simplex(n), d)


def simplex_product(factors) -> LatticePolytope:
    """d_1 Delta_{n_1} x ... x d_r Delta_{n_r}."""
    factors = _as_tuple(factors, "simplex_product factors", InvalidParameterError)
    factors = [_pair(f, "simplex_product factor (d, n)", InvalidParameterError) for f in factors]
    if not factors:
        raise InvalidParameterError(f"simplex_product needs pairs (d, n), got {factors!r}")
    out = dilated_simplex(*factors[0])
    for d, n in factors[1:]:
        out = cartesian_product(out, dilated_simplex(d, n))
    return out


def hpt() -> LatticePolytope:
    """The bidegree (2,2) divisor polytope in Z^5 with class group Z x Z/2 x Z/2."""
    e = lambda i: _unit(i - 1, 5)
    return hull(
        [
            (0, 0, 0, 0, 0),
            _add(e(1), e(1)),
            _add(e(2), e(2)),
            _add(e(2), e(3), e(3)),
            _add(e(1), e(4), e(4)),
            _add(e(1), e(2), e(5), e(5)),
        ]
    )


def kollar_totaro(n: int, d: int) -> LatticePolytope:
    """Newton polytope of a double cover branched along a cyclic degree-d form."""
    _int_in(n, "kollar_totaro: n", 2, error=InvalidParameterError)
    _int_in(d, "kollar_totaro: d", 2, error=InvalidParameterError)
    return hull([(2,) + (0,) * n] + _cyclic_chain(n + 1, d - 1, 1))


def cubic_empty(n: int) -> LatticePolytope:
    """Rational empty simplices from cyclic cubics; n must be odd."""
    _int_in(n, "cubic_empty: n", error=InvalidParameterError)
    if n < 3 or n % 2 == 0:
        raise InvalidParameterError("cubic_empty needs odd n >= 3")
    return hull(_cyclic_chain(n, 3, 0))


def tpq(p: int, q: int) -> LatticePolytope:
    """The empty tetrahedron Conv{0, e1, e3, p e1 + q e2 + e3}."""
    _int_in(p, "tpq: p", error=InvalidParameterError)
    _int_in(q, "tpq: q", error=InvalidParameterError)
    if not (1 <= p <= q) or gcd(p, q) != 1:
        raise InvalidParameterError("tpq needs 1 <= p <= q with gcd(p, q) = 1")
    return hull([(0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1)])


def double_cover(d: int, n: int) -> LatticePolytope:
    """Newton polytope of a double cover of projective n-space branched in degree d."""
    _int_in(d, "double_cover: d", 1, error=InvalidParameterError)
    _int_in(n, "double_cover: n", 1, error=InvalidParameterError)
    m = n + 1
    verts = [tuple([0] * m)]
    verts += [tuple(d if j == i else 0 for j in range(m)) for i in range(n)]
    verts.append(tuple(2 if j == n else 0 for j in range(m)))
    return hull(verts)


# -- the hypersurface family with small support --------------------------------------


def exponent_tuples(n: int):
    """All 0/1 tuples of length n with coordinate sum at most n - 2, the pinned order."""
    _int_in(n, "exponent_tuples: n", 2, error=InvalidParameterError)
    out = [t for t in itertools.product((0, 1), repeat=n) if sum(t) <= n - 2]
    zero = tuple([0] * n)
    rest = sorted(t for t in out if t != zero)
    return [zero] + rest


@dataclass(frozen=True)
class SchreiederData:
    n: int
    degree: int
    rho: tuple  # rho[k] = epsilon tuple whose column is 2n + k + 1 (1-based)
    polytope: LatticePolytope

    def column_of(self, eps) -> int:
        """0-based coordinate index carrying the doubled variable of eps."""
        return 2 * self.n + self.rho.index(tuple(eps))


def schreieder(n: int) -> SchreiederData:
    """The degree-(n+2) hypersurface polytope with 2^n + n vertices in Z^(2^n+n-1).

    The bijection rho assigns each admissible exponent tuple its extra
    coordinate; it pins the zero tuple first and orders the rest
    lexicographically.
    """
    _int_in(n, "schreieder: n", error=InvalidParameterError)
    if n < 3:
        raise InvalidParameterError(
            "schreieder needs n >= 3: for n = 2 no reduced ample monomial covers "
            "the first coordinate rays"
        )
    d = n + 2
    rho = tuple(exponent_tuples(n))
    dim = 2**n + n - 1
    verts = [tuple([0] * dim)]
    for i in range(2 * n):
        verts.append(tuple(d if j == i else 0 for j in range(dim)))
    for k, eps in enumerate(rho):
        v = [0] * dim
        for i, bit in enumerate(eps):
            v[i] = bit
        v[2 * n + k] = 2
        verts.append(tuple(v))
    p = hull(verts)
    if len(p.vertices) != 2**n + n or not p.is_simplex():
        raise InternalConsistencyError("the Schreieder construction did not give a simplex")
    return SchreiederData(n, d, rho, p)


# -- double cones ---------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleConeResult:
    polytope: LatticePolytope
    base: LatticePolytope  # in the original ambient space
    pairs: tuple  # (v_plus, v_minus) in the enlarged space

    @property
    def r(self):
        return len(self.pairs)

    def embedded_base(self) -> LatticePolytope:
        n, r = self.base.ambient_dim, self.r
        return LatticePolytope._trusted(
            n + r, [v + tuple([0] * r) for v in self.base.vertices]
        )

    def slices(self):
        """The nested stage chain, outermost first, excluding the base itself."""
        if self.r == 0:
            return []
        out = [self.polytope]
        system = self.polytope.facet_system()
        n = self.base.ambient_dim
        for i in range(1, self.r):
            halves = [(a, Fraction(c)) for a, c in system]
            for k in range(i):
                axis = _unit(n + k, n + self.r)
                halves.append((axis, Fraction(0)))
                halves.append((tuple(-x for x in axis), Fraction(0)))
            out.append(RationalPolytope(n + self.r, halves))
        return out


def double_cone(p: LatticePolytope, pairs) -> DoubleConeResult:
    """Hull of the embedded polytope with cone point pairs over new coordinates.

    Pair k must project to plus and minus the k-th new coordinate; the
    original polytope sits in the slice where all new coordinates vanish.
    """
    n = _instance(p, LatticePolytope, "a lattice polytope").ambient_dim
    pairs = _as_tuple(pairs, "cone point pairs")
    r = len(pairs)
    checked = []
    for k, pair in enumerate(pairs):
        vp, vm = (_as_tuple(v, "cone point") for v in _pair(pair, f"cone point pair {k}"))
        if len(vp) != n + r or len(vm) != n + r:
            raise DegenerateInputError("cone points live in the enlarged space")
        for j in range(r):
            want = 1 if j == k else 0
            if vp[n + j] != want or vm[n + j] != -want:
                raise DegenerateInputError(
                    f"pair {k}: new coordinates must project to plus and minus e_{k + 1}"
                )
        checked.append((vp, vm))
    verts = [v + tuple([0] * r) for v in p.vertices]
    for vp, vm in checked:
        verts += [vp, vm]
    return DoubleConeResult(hull(verts), p, tuple(checked))


def divisor_23_double_cone() -> DoubleConeResult:
    """The 10-vertex double cone over the hpt polytope inside Z^7."""
    base = hpt()
    e = lambda i: _unit(i - 1, 7)

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    pairs = [
        (_add(e(1), e(4), e(6)), sub(e(1), e(6))),
        (_add(e(1), e(5), e(7)), sub(e(1), e(7))),
    ]
    return double_cone(base, pairs)


def divisor_23_certificate_map() -> AffineUnimodularMap:
    """The explicit unimodular map placing the 10-vertex polytope in 2D3 x 3D4.

    Columns give the images of the basis vectors; the map is applied after
    translating by e1, so its translation is the image of e1, column one.
    """
    cols = [
        (0, 0, 0, 0, 1, 0, 0),  # e1 -> e5
        (0, 0, 0, 1, 0, 0, 0),  # e2 -> e4
        (0, 0, 1, 0, 0, 0, 0),  # e3 -> e3
        (0, 1, 0, 0, -1, 1, 0),  # e4 -> e2 - e5 + e6
        (1, 0, 0, 0, -1, 0, 1),  # e5 -> e1 - e5 + e7
        (0, 0, 0, 0, 1, -1, 0),  # e6 -> e5 - e6
        (0, 0, 0, 0, 1, 0, -1),  # e7 -> e5 - e7
    ]
    linear = tuple(tuple(col[i] for col in cols) for i in range(7))
    return AffineUnimodularMap(linear, cols[0])


# -- degree-budget extensions ---------------------------------------------------------


def extend_schreieder(data: SchreiederData, steps) -> LatticePolytope:
    """Grow the polytope one double-cone step at a time without raising the degree.

    Each step picks an admissible exponent tuple, adds a coordinate with a
    cone point pair, and shears so that all coordinates stay nonnegative
    with coordinate sums at most the degree.  Tuple eps supports
    floor((n - |eps|) / 2) steps; the total budget is 2^(n-2) (n-1).

    A step is built as its image: the double cone with the pair e_new,
    e_col - e_new, sheared by x_new += x_col, is the hull of each point v
    lifted to (v, v_col) together with e_new and e_col.  The lift is linear
    and the budget convex, so the steps carry and check the generating
    points, and one hull of the last step's points is the result.
    """
    n, d = data.n, data.degree
    points = list(data.polytope.vertices)
    used = {}
    for eps in _as_tuple(steps, "extension steps", InvalidParameterError):
        eps = _as_tuple(eps, "exponent tuple", InvalidParameterError)
        if eps not in data.rho:
            raise InvalidParameterError(f"{eps!r} is not an admissible exponent tuple")
        allowance = (n - sum(eps)) // 2
        used[eps] = used.get(eps, 0) + 1
        if used[eps] > allowance:
            raise InvalidParameterError(
                f"{eps!r} supports only {allowance} extension steps"
            )
        cur = len(points[0])
        col = data.column_of(eps)
        points = [v + (v[col],) for v in points] + [_unit(cur, cur + 1), _unit(col, cur + 1)]
        if any(min(v) < 0 or sum(v) > d for v in points):
            raise InvalidParameterError("extension broke the nonnegative degree budget")
    return hull(points)


# -- containment certificates ---------------------------------------------------------


@dataclass(frozen=True)
class ContainmentCertificate:
    contained: bool
    violated_halfspace: tuple | None
    violating_vertex: tuple | None


def containment_certificate(
    p: LatticePolytope, target: LatticePolytope, mapping: AffineUnimodularMap | None = None
) -> ContainmentCertificate:
    """Apply the map and verify every image vertex against the target halfspaces."""
    _instance(p, LatticePolytope, "a lattice polytope")
    _instance(target, LatticePolytope, "a lattice polytope")
    if mapping is None:
        mapping = AffineUnimodularMap.identity(p.ambient_dim)
    _instance(mapping, AffineUnimodularMap, "an affine unimodular map")
    if not p.ambient_dim == mapping.dim == target.ambient_dim:
        raise DimensionMismatchError(
            f"containment needs one space: p in Z^{p.ambient_dim}, map on Z^{mapping.dim},"
            f" target in Z^{target.ambient_dim}"
        )
    system = target.facet_system()
    for v in p.vertices:
        w = mapping.apply(v)
        for halfspace, sl in zip(system, slacks(system, w)):
            if sl < 0:
                return ContainmentCertificate(False, halfspace, w)
    return ContainmentCertificate(True, None, None)


# -- the closed-form sum and bound tables ---------------------------------------------


def sum_identity(n: int):
    """(enumerated sum, closed form, equal) of the per-tuple extension allowances."""
    _int_in(n, "sum_identity: n", 2, error=InvalidParameterError)
    lhs = sum((n - sum(eps)) // 2 for eps in exponent_tuples(n))
    rhs = 2 ** (n - 2) * (n - 1)
    return lhs, rhs, lhs == rhs


@dataclass(frozen=True)
class BoundsRow:
    n: int
    degree: int
    n_min: int
    n_max_baseline: int
    n_max: int


def bounds_table(n_values, kind: str = "hypersurface"):
    """Rows of (degree, covered dimension range) and Figure-style grid data.

    Hypersurfaces of degree n+2 are covered for N between n + 2^(n-1) - 2
    and n + 2^n - 2 + 2^(n-2)(n-1); the last term is exactly the enumerated
    extension budget.  Double covers lose floor(n/2) extension steps and
    have even degree 2 ceil(n/2) + 2.
    """
    if kind not in ("hypersurface", "double_cover"):
        raise InvalidParameterError(f"unknown bounds table kind {kind!r}")
    rows = []
    for n in _as_tuple(n_values, "bounds_table: n values", InvalidParameterError):
        _int_in(n, "bounds_table: n", 2, error=InvalidParameterError)
        lhs, rhs, equal = sum_identity(n)
        if not equal:
            raise InternalConsistencyError(f"the extension budget identity fails at n = {n}")
        base_extra = 2**n - 2
        if kind == "hypersurface":
            degree = n + 2
            extra = base_extra + rhs
        else:
            degree = 2 * ((n + 1) // 2) + 2
            extra = base_extra + rhs - n // 2
        rows.append(
            BoundsRow(
                n=n,
                degree=degree,
                n_min=n + 2 ** (n - 1) - 2,
                n_max_baseline=n + base_extra,
                n_max=n + extra,
            )
        )
    grid = []
    for row in rows:
        for big_n in range(3, row.n_max + 3):
            if big_n <= row.n_max_baseline:
                status = "paper-baseline"
            elif big_n <= row.n_max:
                status = "new"
            else:
                status = "open"
            grid.append((big_n, row.degree, status))
    return rows, grid


# -- family dispatcher and built-in seeds ----------------------------------------------


FAMILIES = {
    "hpt": lambda: hpt(),
    "kollar_totaro": kollar_totaro,
    "cubic_empty": cubic_empty,
    "tpq": tpq,
    "double_cover": double_cover,
    "schreieder": lambda n: schreieder(n).polytope,
    "dilated_simplex": dilated_simplex,
    "simplex_product": simplex_product,
}


def build(family: str, *args):
    if family not in FAMILIES:
        raise InvalidParameterError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    try:
        signature(FAMILIES[family]).bind(*args)
    except TypeError as exc:
        raise InvalidParameterError(f"{family}: {exc}") from None
    return FAMILIES[family](*args)


def builtin_seed_registry() -> SeedRegistry:
    """Registry of polytopes consumed axiomatically as not stably rational."""
    reg = SeedRegistry()
    reg.register(
        "hpt",
        hpt(),
        "very general (2,2) divisor in P3 x P2; not stably rational",
        condition_m=True,
    )
    reg.register(
        "double-cover-4-4",
        kollar_totaro(4, 4),
        "double cover of P4 branched in a very general quartic; not stably rational",
        condition_m=False,
    )
    return reg
