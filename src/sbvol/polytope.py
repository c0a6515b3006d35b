"""Exact lattice polytopes: hulls, faces, lattice points, width, classification.

A LatticePolytope stores exactly its extreme points (sorted); everything
else (facets, faces, lattice points, width) is derived on demand and
cached.  Lower-dimensional polytopes are handled by chart-normalizing onto
the saturated lattice of their affine span, so counts, widths and interior
points always refer to the intrinsic lattice structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import ceil, floor, gcd, lcm

from . import dd
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
)
from .intlinalg import (
    _bareiss_rref,
    adjugate,
    det,
    dot,
    hermite_form,
    identity_matrix,
    integer_kernel,
    mat_mul,
    rank,
    transpose,
    vec_gcd,
    vec_mat,
)

DEFAULT_POINT_BUDGET = 5_000_000  # nodes of each integer-point scan; read when the scan starts
DEFAULT_FACE_BUDGET = 120_000  # faces of one face lattice
EQUIVALENCE_BUDGET = 200_000  # complete frames (search leaves) of one unimodular_equivalence


def _is_rational(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _int_in(x, what, lo=None, hi=None, error=DegenerateInputError):
    """x when it is an int in lo..hi (a bound of None is open); a bool or a float raises `error`."""
    if type(x) is not int or (lo is not None and x < lo) or (hi is not None and x > hi):
        bounds = f" in {lo}..{hi}" if hi is not None else "" if lo is None else f" >= {lo}"
        raise error(f"{what} must be an int{bounds}, got {x!r}")
    return x


def _rational(x, what):
    """x as a Fraction when it is an int or a Fraction; a float or a bool raises."""
    if not _is_rational(x):
        raise DegenerateInputError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def _flag(x, what):
    """x when it is a bool; anything else, 1 and "no" included, raises InvalidParameterError."""
    if type(x) is not bool:
        raise InvalidParameterError(f"{what} must be True or False, got {x!r}")
    return x


def _as_tuple(x, what, error=DegenerateInputError):
    """x as a tuple; an argument that cannot be iterated raises `error`."""
    try:
        items = iter(x)
    except TypeError:
        raise error(f"{what} must be a sequence, got {x!r}") from None
    return tuple(items)


def _pair(x, what, error=DegenerateInputError):
    """x as a 2-tuple; anything that is not a sequence of two items raises `error`."""
    t = _as_tuple(x, what, error)
    if len(t) != 2:
        raise error(f"{what} must be a pair, got {x!r}")
    return t


def _as_int_tuple(v, n=None, what="integer vector"):
    """v as a tuple of ints, of length n when n is given; integral Fractions are accepted."""
    t = _as_tuple(v, what)
    for x in t:
        if not _is_rational(x) or x.denominator != 1:
            raise DegenerateInputError(f"{what} must have integer entries, got {v!r}")
    if n is not None and len(t) != n:
        raise DimensionMismatchError(f"{what} must have length {n}, got {t!r}")
    return tuple(int(x) for x in t)


def _instance(x, kind, what):
    """x when it is an instance of kind, a class or a tuple of classes; anything else raises."""
    if not isinstance(x, kind):
        raise DegenerateInputError(f"{x!r} is not {what}")
    return x


def _check_ambient(n, x):
    """x as a tuple when it is a point of Q^n with int or Fraction coordinates."""
    x = _as_tuple(x, "point")
    if len(x) != n:
        raise DimensionMismatchError(f"{x!r} is not a point of Q^{n}")
    if not all(_is_rational(v) for v in x):
        raise DegenerateInputError(f"{x!r} is not a point with int or Fraction coordinates")
    return x


def _lowest(v):
    """An int when the rational v is integral, else v."""
    return v.numerator if v.denominator == 1 else v


@cache
def _eye(n):
    return tuple(map(tuple, identity_matrix(n)))


def _rows(x, what):
    """x as a tuple of tuples; anything that is not a sequence of sequences raises."""
    return tuple(_as_tuple(r, what) for r in _as_tuple(x, what))


@dataclass(frozen=True)
class AffineChart:
    """Exact isomorphism between the affine lattice of a span and Z^dim.

    A chart of dimension ambient_dim whose basis and transform are the
    identity is a shift: the coordinates of x are x - base.
    """

    ambient_dim: int
    dim: int
    base: tuple
    basis: tuple  # rows, each an ambient integer vector
    _transform: tuple = field(repr=False, default=())  # unimodular U with U B^T = [I; 0]

    def __post_init__(self):
        n = _int_in(self.ambient_dim, "chart ambient dimension", 0)
        d = _int_in(self.dim, "chart dimension", 0, n)
        base = _as_tuple(self.base, "chart base")
        basis = _rows(self.basis, "chart basis")
        transform = _rows(self._transform, "chart transform")
        if len(base) != n:
            raise DegenerateInputError(f"chart base {base!r} is not a point of Q^{n}")
        if len(basis) != d or any(len(r) != n for r in basis):
            raise DegenerateInputError(f"chart basis {basis!r} is not {d} vectors of Z^{n}")
        if len(transform) != n or any(len(r) != n for r in transform):
            raise DegenerateInputError(f"chart transform {transform!r} is not {n} x {n}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_transform", transform)
        object.__setattr__(self, "_shift", d == n and basis == transform == _eye(n))

    @staticmethod
    def identity(n):
        return AffineChart(n, n, tuple([0] * n), _eye(n), _eye(n))

    @staticmethod
    def for_points(points):
        """Chart of the affine span of integer points, base at the first point.

        The basis B is the saturated lattice of the span, the kernel of the
        kernel of the differences.  One Hermite transform U with
        U B^T = [I; 0] certifies that B is a lattice basis and is the whole
        chart: the first dim entries of U (x - base) are the coordinates of
        x, and the others vanish exactly when x lies in the span.  Points
        that span the ambient space get the shift chart, whose B and U are
        the identity, on the rank of their differences alone.
        """
        base = tuple(points[0])
        n = len(base)
        diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
        diffs = [v for v in diffs if any(v)]
        if not diffs:
            return AffineChart(n, 0, base, (), _eye(n))
        if len(diffs) >= n and rank(diffs) == n:
            return AffineChart(n, n, base, _eye(n), _eye(n))
        equations = integer_kernel(diffs)
        basis = integer_kernel(equations)
        d = len(basis)
        h, u = hermite_form(transpose(basis))
        if h != [row[:d] for row in identity_matrix(n)]:
            raise InternalConsistencyError("span lattice basis is not saturated")
        return AffineChart(n, d, base, tuple(basis), tuple(tuple(r) for r in u))

    def is_identity(self):
        return self._shift and not any(self.base)

    def to_chart(self, x):
        """Chart coordinates of an ambient point; exact, raises off the span."""
        x = _check_ambient(self.ambient_dim, x)
        if self.is_identity():
            return x
        diff = [a - b for a, b in zip(x, self.base)]
        image = [_lowest(dot(row, diff)) for row in self._transform]
        if any(image[self.dim :]):
            raise DegenerateInputError(f"point {x!r} is not in the affine span")
        return tuple(image[: self.dim])

    def from_chart(self, y):
        y = _check_ambient(self.dim, y)
        if self.is_identity():
            return y
        if not self.dim:
            return tuple(map(_lowest, self.base))
        return tuple(_lowest(b + s) for b, s in zip(self.base, vec_mat(y, self.basis)))


@dataclass(frozen=True)
class PolytopeClassification:
    is_empty_polytope: bool
    is_empty_simplex: bool
    is_hollow: bool
    relatively_empty_facets: tuple

    @property
    def is_relatively_empty(self):
        return len(self.relatively_empty_facets) > 0


@dataclass(frozen=True)
class AffineUnimodularMap:
    """x -> linear @ x + translation with |det linear| = 1."""

    linear: tuple
    translation: tuple

    def __post_init__(self):
        linear = tuple(_as_tuple(r, "map row") for r in _as_tuple(self.linear, "linear part"))
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", _as_tuple(self.translation, "translation"))
        n = len(self.linear)
        if len(self.translation) != n:
            raise DimensionMismatchError(f"translation {self.translation!r} does not fit Z^{n}")
        for r in (*self.linear, self.translation):
            if len(r) != n:
                raise DegenerateInputError(f"{self.linear}, {self.translation}: no square int map")
            for x in r:
                _int_in(x, "map entry")
        if abs(det([list(r) for r in self.linear])) != 1:
            raise DegenerateInputError("linear part is not unimodular")

    @staticmethod
    def identity(n):
        return AffineUnimodularMap(_eye(n), tuple([0] * n))

    @property
    def dim(self):
        return len(self.translation)

    def apply(self, x):
        x = _check_ambient(self.dim, x)
        return tuple(dot(r, x) + t for r, t in zip(self.linear, self.translation))

    def apply_polytope(self, p: "LatticePolytope") -> "LatticePolytope":
        _instance(p, LatticePolytope, "a lattice polytope")
        return LatticePolytope._trusted(self.dim, sorted(self.apply(v) for v in p.vertices))


class LatticePolytope:
    """Convex hull of finitely many lattice points, stored by vertex set."""

    __slots__ = ("ambient_dim", "vertices", "_cache")

    def __init__(self, points):
        built = hull(points)
        object.__setattr__(self, "ambient_dim", built.ambient_dim)
        object.__setattr__(self, "vertices", built.vertices)
        object.__setattr__(self, "_cache", built._cache)

    @staticmethod
    def _trusted(ambient_dim, vertices):
        p = object.__new__(LatticePolytope)
        object.__setattr__(p, "ambient_dim", ambient_dim)
        object.__setattr__(p, "vertices", tuple(tuple(v) for v in sorted(vertices)))
        object.__setattr__(p, "_cache", {})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("LatticePolytope is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        return f"LatticePolytope(dim {self.dim()} in Z^{self.ambient_dim}, {len(self.vertices)} vertices)"

    # -- basic geometry ----------------------------------------------------

    def dim(self) -> int:
        """The dimension; ambient_dim + 1 vertices try the simplex's one adjugate first.

        A nonzero determinant proves the simplex full-dimensional, and the
        same adjugate gives its normalized volume, facets and tight sets,
        which are cached with it.  Any other vertex set is ranked.
        """
        if "dim" not in self._cache:
            n = self.ambient_dim
            simplex = dd.simplex_facets(self.vertices) if len(self.vertices) == n + 1 > 1 else None
            if simplex is not None:
                nvol, facets, tight = simplex
                self._cache.update(nvol=nvol, facets=tuple(facets), tight=tuple(tight), dim=n)
            else:
                v0 = self.vertices[0]
                diffs = [[x - y for x, y in zip(v, v0)] for v in self.vertices[1:]]
                self._cache["dim"] = rank(diffs) if diffs else 0
        return self._cache["dim"]

    def is_full_dimensional(self) -> bool:
        return self.dim() == self.ambient_dim

    def is_simplex(self) -> bool:
        return len(self.vertices) == self.dim() + 1

    def chart(self) -> AffineChart:
        if "chart" not in self._cache:
            if self.is_full_dimensional():
                self._cache["chart"] = AffineChart.identity(self.ambient_dim)
            else:
                self._cache["chart"] = AffineChart.for_points(self.vertices)
        return self._cache["chart"]

    def normalize_full_dimensional(self):
        """(P', chart) with P' the same polytope in the lattice of its span."""
        if self.is_full_dimensional():
            return self, self.chart()
        if "normal" not in self._cache:
            ch = self.chart()
            verts = sorted(ch.to_chart(v) for v in self.vertices)
            self._cache["normal"] = (LatticePolytope._trusted(ch.dim, verts), ch)
        return self._cache["normal"]

    def facet_system(self):
        """Tuple of (primitive inner normal, offset) with <n, x> >= offset tight on facets."""
        if "facets" not in self._cache:
            if not self.is_full_dimensional():
                raise DegenerateInputError(
                    "facet system requires a full-dimensional polytope; normalize first"
                )
            if "facets" not in self._cache:  # else a simplex's dim() has just found them
                facets, tight = dd.facet_normals_from_points(self.vertices) if self.dim() else ((), ())
                self._cache["facets"], self._cache["tight"] = tuple(facets), tuple(tight)
        return self._cache["facets"]

    def _tight_sets(self):
        """One bitmask over self.vertices per facet of facet_system(), from the same DD run."""
        self.facet_system()
        return self._cache["tight"]

    def _vertex_carriers(self):
        """One carrier per vertex, over facet_system(): bit i is set when it lies on facet i."""
        if "vertex_carriers" not in self._cache:
            self._cache["vertex_carriers"] = _transpose(self._tight_sets(), len(self.vertices))
        return self._cache["vertex_carriers"]

    def as_halfspaces(self) -> "RationalPolytope":
        sys = self.facet_system()
        return RationalPolytope(self.ambient_dim, tuple((n, Fraction(c)) for n, c in sys))

    def contains(self, x) -> bool:
        x = _check_ambient(self.ambient_dim, x)
        if self.is_full_dimensional():
            return all(s >= 0 for s in slacks(self.facet_system(), x))
        ch = self.chart()
        try:
            y = ch.to_chart(x)
        except DegenerateInputError:
            return False
        q, _ = self.normalize_full_dimensional()
        return q.contains(y)

    # -- lattice points ------------------------------------------------------

    def _carriers(self, budget=None):
        """Every lattice point, sorted, mapped to its carrier.

        The carrier is a bitmask over the chart's facet system: bit i is set
        when the point lies on facet i.  A point lies in the relative interior
        of exactly the face its carrier cuts out, so one scan answers every
        face's count.  A lower-dimensional polytope reads its chart's table.
        """
        if budget is not None:
            _int_in(budget, "LatticePolytope.lattice_points: budget", 0, error=InvalidParameterError)
        if "points" not in self._cache:
            q, ch = self.normalize_full_dimensional()
            if q is not self:
                table = sorted((ch.from_chart(y), c) for y, c in q._carriers(budget).items())
            else:
                facets = self.facet_system()
                pts = _box_scan(facets, self.vertices, budget, "LatticePolytope.lattice_points")
                table = [(x, carrier(facets, x)) for x in pts]
            self._cache["points"] = dict(table)
        return self._cache["points"]

    def lattice_points(self, interior_only=False, budget=None):
        """All lattice points, or only the relative interior ones, from the one cached table.
        `budget` (None: DEFAULT_POINT_BUDGET) caps the scan that fills it; later calls read it."""
        _flag(interior_only, "LatticePolytope.lattice_points: interior_only")
        table = self._carriers(budget)
        return tuple(x for x, c in table.items() if not c) if interior_only else tuple(table)

    def n_lattice_points(self) -> int:
        return len(self.lattice_points())

    def n_interior_points(self) -> int:
        return len(self.lattice_points(interior_only=True))

    # -- faces ---------------------------------------------------------------

    def _face_masks(self):
        """Every nonempty face as a bitmask over self.vertices, mapped to its dimension.

        A simplex's faces are its nonempty vertex subsets.  Any other
        polytope's are the face lattice of its facets' tight sets.
        """
        if "face_masks" not in self._cache:
            nv = len(self.vertices)
            if self.is_simplex():
                masks = dict(_simplex_faces((1 << nv) - 1))
            else:
                q, ch = self.normalize_full_dimensional()
                at = {ch.to_chart(v): i for i, v in enumerate(self.vertices)}  # index in self
                tight = [sum(1 << at[q.vertices[j]] for j in _bits(m)) for m in q._tight_sets()]
                masks = face_lattice((1 << nv) - 1, tight, q.dim())
            self._cache["face_masks"] = masks
        return self._cache["face_masks"]

    def faces(self, k=None):
        """All k-faces as LatticePolytopes (all faces grouped by dim when k is None)."""
        by_dim = {}
        for d, idx in sorted((d, list(_bits(m))) for m, d in self._face_masks().items()):
            cell = LatticePolytope._trusted(self.ambient_dim, [self.vertices[i] for i in idx])
            cell._cache["dim"] = d
            by_dim.setdefault(d, []).append(cell)
        if k is None:
            return by_dim
        return by_dim.get(_int_in(k, "face dimension", 0, self.dim()), [])

    def f_vector(self):
        out = [0] * (self.dim() + 1)
        for d in self._face_masks().values():
            out[d] += 1
        return tuple(out)

    # -- invariants ------------------------------------------------------------

    def normalized_volume(self) -> int:
        """dim! times the volume, pulled from vertex 0 over the facets; 0 only for points."""
        if "nvol" not in self._cache:
            q, _ = self.normalize_full_dimensional()
            if q is not self:
                self._cache["nvol"] = q.normalized_volume()
            elif "nvol" not in self._cache:  # else a simplex's dim() has just found it
                # On the rows (v, 1), (v0, 1) is coned over each facet off v0, triangulated;
                # each simplicial cone's |det| is the normalized volume of the simplex it lifts.
                lifted = [v + (1,) for v in q.vertices]
                facets = [[lifted[i] for i in _bits(t)] for t in q._tight_sets() if not t & 1]
                cones = (c + lifted[:1] for f in facets for c in _triangulate_cone(f, q.ambient_dim))
                self._cache["nvol"] = sum(abs(det(c)) for c in cones)
        return self._cache["nvol"]

    def lattice_width(self):
        """(width, certificate) with the certificate a primitive chart dual vector."""
        if "width" not in self._cache:
            if self.dim() == 0:
                raise DegenerateInputError("width of a single point is undefined here")
            q, _ = self.normalize_full_dimensional()
            self._cache["width"] = _width_search(q)
        return self._cache["width"]

    def classify(self) -> PolytopeClassification:
        """A facet is relatively empty when exactly one lattice point lies off it."""
        if "classify" not in self._cache:
            table = self._carriers()
            empty = len(table) == len(self.vertices)
            simplex = empty and len(self.vertices) == self.dim() + 1
            if self.dim() == 0:
                hollow = False
                rel = ()
            else:
                hollow = all(table.values())
                q, _ = self.normalize_full_dimensional()
                # Facet i keyed by the sorted indices of its vertices: faces(dim - 1) order.
                facets = sorted(
                    (tuple(k for k, v in enumerate(self.vertices) if table[v] >> i & 1), i)
                    for i in range(len(q.facet_system()))
                )
                off = [sum(not c >> i & 1 for c in table.values()) for _, i in facets]
                rel = tuple(idx for idx, n in enumerate(off) if n == 1)
            self._cache["classify"] = PolytopeClassification(empty, simplex, hollow, rel)
        return self._cache["classify"]

    def fingerprint(self):
        """Unimodular-invariant summary, dimension first: the order of the ledger's entries.

        It is exported as the `fingerprint` of each `sbvol ledger` entry;
        `unimodular_equivalence` does not read it.
        """
        if "fingerprint" not in self._cache:
            d = self.dim()
            base = (
                d,
                len(self.vertices),
                self.n_lattice_points(),
                self.n_interior_points(),
                self.normalized_volume(),
            )
            extras = []
            if d >= 1:
                extras.append(self.lattice_width()[0])
            if len(self.vertices) <= 16:
                extras.append(self.f_vector())
            self._cache["fingerprint"] = base + tuple(extras)
        return self._cache["fingerprint"]


class RationalPolytope:
    """Intersection of halfspaces <a, x> >= c with integer a and rational c."""

    __slots__ = ("ambient_dim", "halfspaces", "_cache")

    def __init__(self, ambient_dim, halfspaces):
        object.__setattr__(self, "ambient_dim", _int_in(ambient_dim, "ambient dimension", 0))
        cleaned = []
        for h in _as_tuple(halfspaces, "halfspaces"):
            a, c = _pair(h, "halfspace (normal, offset)")
            a = _as_int_tuple(a, ambient_dim, "halfspace normal")
            c = _rational(c, "halfspace offset")
            g = vec_gcd(a)
            if g == 0:
                if c > 0:
                    raise DegenerateInputError("halfspace 0 >= c with c > 0 is infeasible")
                continue
            if g > 1:
                a = tuple(x // g for x in a)
                c = c / g
            cleaned.append((a, c))
        object.__setattr__(self, "halfspaces", tuple(sorted(set(cleaned))))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolytope is immutable")

    def __repr__(self):
        return f"RationalPolytope({len(self.halfspaces)} halfspaces in Q^{self.ambient_dim})"

    def vertices(self):
        if "vertices" not in self._cache:
            vs = dd.vertices_from_halfspaces(
                [(a, c) for a, c in self.halfspaces], self.ambient_dim
            )
            self._cache["vertices"] = tuple(vs)
        return self._cache["vertices"]

    def is_empty(self) -> bool:
        return len(self.vertices()) == 0

    def dim(self) -> int:
        vs = self.vertices()
        if not vs:
            return -1
        diffs = [[a - b for a, b in zip(v, vs[0])] for v in vs[1:]]
        return rank(diffs) if diffs else 0

    def is_lattice(self) -> bool:
        return all(all(Fraction(x).denominator == 1 for x in v) for v in self.vertices())

    def contains(self, x) -> bool:
        x = _check_ambient(self.ambient_dim, x)
        return all(s >= 0 for s in slacks(self.halfspaces, x))

    def lattice_points(self):
        vs = self.vertices()
        if not vs:
            return ()
        routine = "RationalPolytope.lattice_points"
        return tuple(_box_scan(self.halfspaces, vs, None, routine))


# -- module-level operations ---------------------------------------------------


def hull(points) -> LatticePolytope:
    """Convex hull; vertices are exactly the extreme points of the input.

    Affinely independent points (a point, or a simplex: in full dimension dim()'s one
    adjugate proves it) are all vertices; any other set gets one DD, charted if flat.
    """
    pts = [_as_int_tuple(p) for p in _as_tuple(points, "point set")]
    if not pts:
        raise DegenerateInputError("hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatchError("points live in different ambient dimensions")
    pts = sorted(set(pts))
    out = LatticePolytope._trusted(n, pts)
    d = out.dim()
    if len(pts) == d + 1:
        return out
    ch = AffineChart.for_points(pts) if d < n else None
    facets, tight = dd.facet_normals_from_points([ch.to_chart(p) for p in pts] if ch else pts)
    carriers = _transpose(tight, len(pts))
    vertices = _bits(_vertex_mask(carriers))
    out = LatticePolytope._trusted(n, [pts[i] for i in vertices])
    out._cache["dim"] = d
    if d == n:
        out._cache["facets"] = tuple(facets)
        out._cache["tight"] = _transpose([carriers[i] for i in vertices], len(tight))
    return out


def _vertex_mask(carriers):
    """Bitmask of the points that are vertices, from each point's carrier over the facets.

    A vertex is the only point on all the facets it lies on.  Any other point lies
    in a face of dimension one or more, whose vertices have strictly larger carriers.
    This holds for the facets of any pointed polyhedron whose vertices are among the points.
    """
    distinct = set(carriers)
    alone = {m for m in distinct if not any(o != m and o & m == m for o in distinct)}
    return sum(1 << i for i, m in enumerate(carriers) if m in alone)


def face_closure(full, tight_sets):
    """All nonempty faces as index sets or int bitmasks: the tight sets closed under intersection."""
    faces = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for f in frontier:
            for t in tight_sets:
                g = f & t
                if g and g not in faces:
                    faces.add(g)
                    nxt.append(g)
                    if len(faces) > DEFAULT_FACE_BUDGET:
                        size = full.bit_count() if isinstance(full, int) else len(full)
                        _face_budget_error(len(faces), size, len(tight_sets))
        frontier = nxt
    return faces


def face_lattice(full, tight_sets, d):
    """Every nonempty face of a d-polytope as an int bitmask, mapped to its dimension.

    The faces are the closure of the facets' tight sets.  A facet of a face
    f is f & t for some facet t of the polytope, and every f & t is a face
    of f, so a face lies one dimension below the lowest face it is a
    proper f & t of; faces are graded from the top, each after all of its
    supersets (Kaibel and Pfetsch, Comput. Geom. 23, 2002).
    """
    dims = {full: d}
    for f in sorted(face_closure(full, tight_sets), key=int.bit_count, reverse=True):
        below = dims[f] - 1
        for t in tight_sets:
            g = f & t
            if g and g != f and dims.get(g, d) > below:
                dims[g] = below
    return dims


def _simplex_faces(full):
    """Ascending (mask, dim) of each nonempty submask of a simplex vertex mask, within budget."""
    n = full.bit_count()
    if (1 << n) - 1 > DEFAULT_FACE_BUDGET:
        _face_budget_error(DEFAULT_FACE_BUDGET + 1, n, n)
    sub = full & -full
    while sub:
        yield sub, sub.bit_count() - 1
        sub = (sub - full) & full


def _face_budget_error(reached, n_vertices, n_facets):
    raise ResourceLimitError(
        f"face_closure: face enumeration reached {reached} faces, over its budget of"
        f" {DEFAULT_FACE_BUDGET} ({n_vertices} vertices, {n_facets} facets)"
    )


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(masks, n):
    """The transposed bit matrix: n masks, bit i of the j-th set exactly when masks[i] has bit j."""
    out = [0] * n
    for i, m in enumerate(masks):
        for j in _bits(m):
            out[j] |= 1 << i
    return tuple(out)


def dilate(p: LatticePolytope, k: int) -> LatticePolytope:
    _instance(p, LatticePolytope, "a lattice polytope")
    if _int_in(k, "dilation factor", 0) == 0:
        return LatticePolytope._trusted(p.ambient_dim, [tuple([0] * p.ambient_dim)])
    return LatticePolytope._trusted(p.ambient_dim, [tuple(k * x for x in v) for v in p.vertices])


def translate(p: LatticePolytope, v) -> LatticePolytope:
    _instance(p, LatticePolytope, "a lattice polytope")
    v = _as_int_tuple(v, p.ambient_dim, "translation vector")
    return LatticePolytope._trusted(
        p.ambient_dim, [tuple(a + b for a, b in zip(w, v)) for w in p.vertices]
    )


def cartesian_product(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    _instance(p, LatticePolytope, "a lattice polytope")
    _instance(q, LatticePolytope, "a lattice polytope")
    verts = [a + b for a in p.vertices for b in q.vertices]
    return LatticePolytope._trusted(p.ambient_dim + q.ambient_dim, verts)


def convex_union(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    _instance(p, LatticePolytope, "a lattice polytope")
    _instance(q, LatticePolytope, "a lattice polytope")
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatchError("convex union needs a common ambient space")
    return hull(list(p.vertices) + list(q.vertices))


@dataclass(frozen=True)
class EquivalenceResult:
    status: str  # "found" | "inequivalent"
    ambient_map: AffineUnimodularMap | None

    @property
    def found(self):
        return self.status == "found"


def unimodular_equivalence(p: LatticePolytope, q: LatticePolytope):
    """Search for an affine unimodular map with T(p) = q.

    Both inputs are taken to the lattice of their spans.  Each vertex v
    gets its distance row: the lattice distances <n, v> - c to the facets
    (n, c), sorted.  The normals are primitive, so each entry is an integer
    that a unimodular map keeps, and the zeros of a row count the facets at
    its vertex.  The inputs are inequivalent unless the dimension, the
    normalized volume and the sorted rows agree.  Otherwise a
    vertex-anchored frame search decides, sending each frame vertex only
    to vertices of the same row, which cuts only frames that cannot map;
    it tries at most EQUIVALENCE_BUDGET complete frames, and a spent
    budget raises ResourceLimitError instead of reading as either answer.
    The ambient map is provided when both inputs are full-dimensional in
    the same ambient space, or are points of one space.
    """
    pa, chart_p = _instance(p, LatticePolytope, "a lattice polytope").normalize_full_dimensional()
    qa, chart_q = _instance(q, LatticePolytope, "a lattice polytope").normalize_full_dimensional()
    d = pa.dim()
    p_rows, q_rows = (
        [tuple(sorted(dot(n, v) - c for n, c in a.facet_system())) for v in a.vertices]
        for a in (pa, qa)
    )
    if (d, pa.normalized_volume(), sorted(p_rows)) != (
        qa.dim(), qa.normalized_volume(), sorted(q_rows)
    ):
        return EquivalenceResult("inequivalent", None)
    if d == 0:
        shift = tuple(a - b for a, b in zip(q.vertices[0], p.vertices[0]))
        m = AffineUnimodularMap.identity(p.ambient_dim)
        amb = AffineUnimodularMap(m.linear, shift) if p.ambient_dim == q.ambient_dim else None
        return EquivalenceResult("found", amb)

    pv = list(pa.vertices)
    qv = list(qa.vertices)
    v0 = pv[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in pv[1:]]
    frame_idx = _frame(diffs)
    # A maps frame row f_j to the picked w_j, so A^T = F^{-1} W for W with
    # rows w_j; with D = det F, the integer matrix D F^{-1} is computed once.
    det_f, adj = adjugate([list(diffs[i]) for i in frame_idx])

    frame_rows = [p_rows[i + 1] for i in frame_idx]
    q_row_of = dict(zip(qv, q_rows))

    nodes = 0
    for w0 in qv:
        if q_row_of[w0] != p_rows[0]:
            continue
        cands = [
            [tuple(a - b for a, b in zip(w, w0)) for w in qv if w != w0 and q_row_of[w] == row]
            for row in frame_rows
        ]

        def search(depth, picked):
            nonlocal nodes
            if depth == d:
                nodes += 1
                if nodes > EQUIVALENCE_BUDGET:
                    raise ResourceLimitError(
                        f"unimodular_equivalence: frame search spent {nodes} nodes, over its"
                        f" budget of {EQUIVALENCE_BUDGET} (dimension {d}, {len(pv)} vertices)"
                    )
                scaled = transpose(mat_mul(adj, picked))  # D A
                if any(x % det_f for row in scaled for x in row):
                    return None
                lin = tuple(tuple(x // det_f for x in row) for row in scaled)
                trans = tuple(w - dot(r, v0) for w, r in zip(w0, lin))
                # one nonzero volume: a map of pv onto qv is unimodular, as its constructor checks
                if sorted(tuple(dot(r, v) + t for r, t in zip(lin, trans)) for v in pv) == qv:
                    return AffineUnimodularMap(lin, trans)
                return None
            for cand in cands[depth]:
                if rank([list(x) for x in picked + [cand]]) != depth + 1:
                    continue
                got = search(depth + 1, picked + [cand])
                if got is not None:
                    return got
            return None

        m = search(0, [])
        if m is not None:
            same = chart_p.is_identity() and chart_q.is_identity() and p.ambient_dim == q.ambient_dim
            return EquivalenceResult("found", m if same else None)
    return EquivalenceResult("inequivalent", None)


# -- internal helpers ----------------------------------------------------------


def _frame(diffs):
    """Indices of a basis of the span of diffs, taken greedily: the pivot columns of diffs^T."""
    return _bareiss_rref(transpose(diffs), len(diffs))[0]


# -- exact kernels -------------------------------------------------------------


def integer_points(constraints, lo, hi, budget, routine):
    """Integer points x of the box lo <= x <= hi with <a, x> >= c for every (a, c).

    Exact branch and bound over integer a and c, in lexicographic order:
    the interval of each coordinate is cut from the fixed prefix and the
    box bounds on the free suffix, so the last coordinate's interval is
    exact and no leaf is wasted.  The root and every tried coordinate value
    count as nodes; past `budget` nodes (None: DEFAULT_POINT_BUDGET, read
    here when the scan starts) a ResourceLimitError names `routine`; a
    budget that is not a nonnegative int raises InvalidParameterError.  A
    box of dimension 0 is its root alone: the empty point, when every c <= 0.
    """
    if budget is None:
        budget = DEFAULT_POINT_BUDGET
    _int_in(budget, f"{routine}: budget", 0, error=InvalidParameterError)
    d = len(lo)
    if d == 0:
        if all(c <= 0 for _, c in constraints):
            yield ()
        return
    # rest[j][i]: max over the box of sum_{k >= j} a_i[k] x_k
    rest = [[0] * len(constraints) for _ in range(d + 1)]
    for j in range(d - 1, -1, -1):
        rest[j] = [
            r + max(a[j] * lo[j], a[j] * hi[j]) for r, (a, _) in zip(rest[j + 1], constraints)
        ]

    def interval(j, part):
        low, high = lo[j], hi[j]
        for (a, c), s, r in zip(constraints, part, rest[j + 1]):
            need = c - s - r  # a[j] * x[j] must reach this
            aj = a[j]
            if aj > 0:
                low = max(low, -(-need // aj))
            elif aj < 0:
                high = min(high, need // aj)
            elif need > 0:
                return low, low - 1
        return low, high

    nodes = 1
    x = [0] * d
    top = [0] * d
    part = [[0] * len(constraints)] * (d + 1)  # part[j]: <a, x> over the prefix x[:j]
    low, top[0] = interval(0, part[0])
    x[0] = low - 1
    j = 0
    while j >= 0:
        x[j] += 1
        if x[j] > top[j]:
            j -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(
                f"{routine}: integer point scan spent {nodes} nodes, over its budget of"
                f" {budget} (dimension {d}, {len(constraints)} constraints)"
            )
        if j == d - 1:
            yield tuple(x)
            continue
        xj = x[j]
        part[j + 1] = [s + a[j] * xj for s, (a, _) in zip(part[j], constraints)]
        j += 1
        low, top[j] = interval(j, part[j])
        x[j] = low - 1


def _box_scan(system, vertices, budget, routine):
    """integer_points of the halfspaces <n, x> >= c in the box of the rational vertices.

    Integer points of <n, x> >= c are those of <n, x> >= ceil(c), and the
    box is rounded inward; on integer input both roundings are the identity.
    """
    lo = [ceil(min(xs)) for xs in zip(*vertices)]
    hi = [floor(max(xs)) for xs in zip(*vertices)]
    return integer_points([(n, ceil(c)) for n, c in system], lo, hi, budget, routine)


def carrier(system, x):
    """Bitmask of the halfspaces <n, y> >= c of system that are tight at x."""
    return sum(1 << i for i, (n, c) in enumerate(system) if dot(n, x) == c)


def slacks(system, x):
    """For each halfspace <n, y> >= c, an integer with the sign of <n, x> - c.

    The denominators of the rational point x are cleared once: with q their
    lcm and X = q x, the value is (<n, X> - c q) times the denominator of c,
    so it is zero exactly on the hyperplane.  Offsets are ints or Fractions.
    """
    q = lcm(*(v.denominator for v in x))
    big = [v.numerator * (q // v.denominator) for v in x]
    for n, c in system:
        yield dot(n, big) * c.denominator - c.numerator * q


def _triangulate_cone(rays, k):
    """Split a pointed k-dimensional cone, given by its extreme rays, into simplicial subcones.

    Pulls from the first ray: it is coned over a triangulation of every facet
    off it, a (k - 1)-cone on the rays of its zero set; k rays are simplicial.
    The DD reads the ambient dimension off the rays.
    """
    if len(rays) == k:
        return [list(rays)]
    _, _, zero_sets = dd.extreme_rays(rays, len(rays[0]))
    out = []
    for z in zero_sets:
        if z & 1:
            continue  # a facet through rays[0]
        for t in _triangulate_cone([rays[i] for i in _bits(z)], k - 1):
            out.append(t + [rays[0]])
    return out


def _width_search(q):
    """Exact lattice width of a full-dimensional chart polytope.

    The incumbent is the first axis direction or facet normal of least
    spread, in that order.  The first of spread 1 is certified at once and
    ends the scan: a full-dimensional polytope gives every nonzero integer
    functional a spread of at least 1.  A dual vector l beats width w only
    if |<l, v - v0>| < w at every vertex v; then t = F l, for the rows of
    F a frame of d independent vertex differences, has entries below w,
    which bounds |l_j| by the L1 norm of row j of F^{-1} times w - 1.  The
    first such l whose spread beats the incumbent replaces it and the
    search restarts; the width is certified once no such l is left.
    """
    d = q.ambient_dim
    verts = q.vertices
    v0 = verts[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in verts[1:]]

    def spread(l):
        vals = [dot(l, v) for v in verts]
        return max(vals) - min(vals)

    def normalized(l):
        """l made primitive with its first nonzero entry positive."""
        g = gcd(*l) if next(x for x in l if x) > 0 else -gcd(*l)
        return tuple(x // g for x in l)

    best_l = None
    for l in (*_eye(d), *(n for n, _ in q.facet_system())):
        w = spread(l)
        if w == 1:
            return 1, normalized(l)
        if best_l is None or w < best:
            best_l, best = l, w
    best_l = normalized(best_l)
    det_f, adj = adjugate([diffs[i] for i in _frame(diffs)])
    norms = [sum(abs(x) for x in row) for row in adj]
    while True:
        cons = [(f, 1 - best) for f in diffs] + [(tuple(-x for x in f), 1 - best) for f in diffs]
        bound = [nm * (best - 1) // abs(det_f) for nm in norms]
        box = ([-b for b in bound], bound)
        for l in integer_points(cons, *box, None, "LatticePolytope.lattice_width"):
            if 0 < spread(l) < best:
                best_l = normalized(l)
                best = spread(best_l)
                break
        else:
            return best, best_l
