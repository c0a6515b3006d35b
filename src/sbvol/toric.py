"""The toric layer: normal fans, Fine interiors, class groups.

All computations are exact.  The central objects are the inward normal fan
of a full-dimensional lattice polytope and the divisor class group
presented as the cokernel of the ray pairing matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InternalConsistencyError,
)
from .intlinalg import (
    adjugate,
    dot,
    hermite_form,
    invert_unimodular,
    mat_vec,
    primitive,
    smith_form,
    transpose,
    vec_gcd,
    vec_mat,
)
from .polytope import (
    LatticePolytope,
    RationalPolytope,
    _as_int_tuple,
    _as_tuple,
    _bits,
    _instance,
    _int_in,
    _rational,
    _triangulate_cone,
    integer_points,
)

@dataclass(frozen=True)
class NormalFan:
    """Inward normal fan of a full-dimensional lattice polytope."""

    polytope: LatticePolytope
    rays: tuple  # primitive inner facet normals, one per facet
    offsets: tuple  # ord values: min over the polytope of <., ray>
    vertex_cones: tuple  # per vertex, frozenset of ray indices tight at it

    @property
    def n_rays(self):
        return len(self.rays)

    def ample_coefficients(self):
        """Coefficients of the distinguished ample divisor: a_ray = -ord(ray)."""
        return tuple(-c for c in self.offsets)


def normal_fan(p: LatticePolytope) -> NormalFan:
    """The normal fan of p, built once and kept with p."""
    if "fan" not in _instance(p, LatticePolytope, "a lattice polytope")._cache:
        if not p.is_full_dimensional():
            raise DegenerateInputError("normal fan requires a full-dimensional polytope")
        if p.dim() == 0:
            raise DegenerateInputError("normal fan of a point is empty")
        system = p.facet_system()
        rays = tuple(n for n, _ in system)
        offsets = tuple(c for _, c in system)
        cones = tuple(frozenset(_bits(m)) for m in p._vertex_carriers())
        p._cache["fan"] = NormalFan(p, rays, offsets, cones)
    return p._cache["fan"]


def ord_value(p: LatticePolytope, n) -> int:
    """min over the polytope of the pairing with the dual vector n."""
    _instance(p, LatticePolytope, "a lattice polytope")
    n = _as_int_tuple(n, p.ambient_dim, "dual vector")
    return min(dot(v, n) for v in p.vertices)


# -- Fine interior -----------------------------------------------------------------


@dataclass(frozen=True)
class FineInteriorResult:
    polytope: RationalPolytope
    is_empty: bool
    dim: int  # -1 when empty
    is_lattice: bool
    generators: tuple  # dual vectors whose shifted halfspaces cut the interior

    def vertices(self):
        return self.polytope.vertices()

    @property
    def kodaira_dimension(self):
        """-inf when empty, else the dim, less one at the full dim of the ambient space."""
        if self.is_empty:
            return float("-inf")
        if self.dim == self.polytope.ambient_dim:
            return self.dim - 1
        return self.dim


def _subcone_scan_frame(tri, rows):
    """Scan data (uinv, tcons, rays) for one simplicial subcone: a coordinate
    change making the ray matrix triangular, and the membership constraints
    and rays in the new coordinates.

    The coordinate change U is the transform of the Hermite form H of the
    ray matrix M, its columns the rays in their given order, with its rows
    flipped: ray i then lives in the last i + 1 coordinates, so the prefix
    x[:j+1] is a triangular image of the last j + 1 rays alone.  The new
    rays U M are the columns of H with its rows flipped, and the membership
    rows (the rows of |det M| M^{-1}) become rows . U^{-1}.
    """
    h, u = hermite_form(transpose(tri))
    uinv = invert_unimodular(u[::-1])
    tcons = [(vec_mat(row, uinv), 0) for row in rows]
    return uinv, tcons, list(zip(*h[::-1]))


def _no_violator(pair, gcds, m, abs_det):
    """Whether the scan region {t >= 0, sum_j pair_j t_j <= m - 1} of a
    subcone provably holds no nonzero lattice point.

    Every pair_j >= m, so every t_j <= (m - 1) / m < 1.  The rays are
    primitive, so a nonzero point has at least two t_j > 0, and each
    a_j = |det M| t_j = <tcons[j], n'> is then a positive multiple of g_j,
    the gcd of membership row j, in any unimodular coordinates.  So a
    point needs the two smallest pair_j g_j to
    sum to at most (m - 1) |det M|.  Each pair_j g_j is at least m, so at
    m = 1 or |det M| <= 2 they never do.
    """
    return sum(sorted(c * g for c, g in zip(pair, gcds))[:2]) > (m - 1) * abs_det


def fine_interior(p: LatticePolytope) -> FineInteriorResult:
    """Intersection of all supporting halfspaces shifted inward by one.

    Strategy: start from the facet normals and iterate.  If m satisfies the
    shifted facet inequalities at a vertex v, then for any dual vector
    n = sum t_j u_j in the normal cone at v with sum t_j >= 1 the shifted
    inequality for n follows by superadditivity.  So only dual vectors
    under the ray-sum-one slab of some vertex cone can cut further; those
    violating the current candidate are found by exact branch and bound
    and added until none remain.  The final generator set is therefore a
    certified cutting description of the Fine interior.

    Each round considers every (candidate vertex, simplicial vertex
    subcone) pair, and runs an integer scan only where a violator can
    exist.  Two exact rules skip the rest:
    1. The subcones are split once the first candidate is nonempty; an
       empty one needs no scan.
    2. A (subcone, candidate) pair is skipped when _no_violator proves,
       from the pairings, |det M| and the gcds of the membership rows,
       that its region holds no nonzero lattice point; this covers every
       subcone with |det M| <= 2, unimodular ones among them.
    The membership rows (rows of |det M| M^{-1}, for M with the rays as
    columns) and |det M| come from one adjugate of M; a subcone's scan
    frame is built at its first scan.  Every scan that runs has
    polytope.DEFAULT_POINT_BUDGET as its node cap; a scan over it raises
    ResourceLimitError.  The scan region is
    {t >= 0, sum_i pair_i t_i <= m - 1} in the subcone's triangular frame,
    and it carries the region's exact projection onto each prefix of the
    coordinates as d - 1 more constraints: they hold on the whole region,
    so the scan yields the same points in the same order, and every prefix
    it extends lies in the projection of the region.  The loop ends: every
    round that does not return adds a new primitive vector, and all of
    them lie in the subcones' slabs {0 <= t_j <= m / pair_j <= 1}, a finite set.
    """
    fan = normal_fan(p)
    d = p.ambient_dim
    halfspaces = {u: c + 1 for u, c in zip(fan.rays, fan.offsets)}

    subcones = None  # (vertex, rays, membership rows, |det M|, row gcds) per subcone, rule 1
    frames = {}  # scan frame per subcone index, built at its first scan
    while True:
        poly = RationalPolytope(d, [(u, Fraction(c)) for u, c in halfspaces.items()])
        verts = poly.vertices()
        if not verts:
            return FineInteriorResult(poly, True, -1, False, tuple(sorted(halfspaces)))
        if subcones is None:
            subcones = []
            for i, v in enumerate(p.vertices):
                cone_rays = [fan.rays[j] for j in sorted(fan.vertex_cones[i])]
                for tri in _triangulate_cone(cone_rays, d):
                    # |det M| M^{-1} = sign(det M) adj M
                    det_m, adj = adjugate(transpose(tri))
                    rows = [tuple(x if det_m > 0 else -x for x in row) for row in adj]
                    subcones.append((v, tri, rows, abs(det_m), [vec_gcd(r) for r in rows]))
        # Each candidate vertex q once in integers: Q = m q, m the lcm of its denominators.
        cleared = []
        for q in verts:
            m = lcm(*(x.denominator for x in q))
            cleared.append((m, [x.numerator * (m // x.denominator) for x in q]))
        found = set()
        for idx, (v, rays, rows, abs_det, gcds) in enumerate(subcones):
            for m, big in cleared:
                pair = [dot(big, r) - m * dot(v, r) for r in rays]  # m <q - v, r>
                if any(c < m for c in pair):
                    raise InternalConsistencyError("candidate vertex violates a shifted facet")
                if _no_violator(pair, gcds, m, abs_det):
                    continue
                if idx not in frames:
                    frames[idx] = _subcone_scan_frame(rays, rows)
                uinv, tcons, new_rays = frames[idx]
                # m <q - v, n> <= m - 1, that is <m v - Q, n> >= 1 - m.
                cut = (vec_mat([m * a - b for a, b in zip(v, big)], uinv), 1 - m)
                # The region satisfies 0 <= t_j <= m / pair_j, so its box is the
                # bounding box of that scaled slab; den clears the pairings.
                den = lcm(*pair)
                spans = [[r[k] * (den // c) for r, c in zip(new_rays, pair)] for k in range(d)]
                lo = [-(-m * sum(min(0, x) for x in span) // den) for span in spans]
                hi = [m * sum(max(0, x) for x in span) // den for span in spans]
                # The prefix x[:j+1] sees only the last j + 1 rays, so the region's
                # exact projection onto it is sum_{i >= d-1-j} pair_i t_i <= m - 1.
                prefix = [0] * d
                cuts = []
                for i in range(d - 1, 0, -1):
                    prefix = [s - pair[i] * a for s, a in zip(prefix, tcons[i][0])]
                    cuts.append((tuple(prefix), (1 - m) * abs_det))
                scan = integer_points(tcons + [cut] + cuts, lo, hi, None, "fine_interior")
                for n_t in itertools.islice(filter(any, scan), 4):
                    n = mat_vec(uinv, n_t)
                    # n must lie in this normal cone and violate the candidate.
                    if ord_value(p, n) != dot(v, n) or dot(big, n) - m * dot(v, n) >= m:
                        raise InternalConsistencyError("scan returned a dual vector outside its region")
                    found.add(primitive(n))
        new = [n for n in found if n not in halfspaces]
        if not new:
            return FineInteriorResult(
                poly, False, poly.dim(), poly.is_lattice(), tuple(sorted(halfspaces))
            )
        for n in new:
            halfspaces[n] = ord_value(p, n) + 1


# -- divisors and the class group ------------------------------------------------------


def divisor_polytope(fan: NormalFan, coefficients) -> RationalPolytope:
    """P_D = {m : <m, u_ray> + a_ray >= 0} for D = sum a_ray D_ray."""
    coefficients = _as_tuple(coefficients, "divisor coefficient vector")
    if len(coefficients) != fan.n_rays:
        raise DimensionMismatchError(
            f"divisor coefficient vector must have length {fan.n_rays}, got {coefficients!r}"
        )
    halfspaces = [(u, -_rational(a, "divisor coefficient")) for u, a in zip(fan.rays, coefficients)]
    return RationalPolytope(fan.polytope.ambient_dim, halfspaces)


def facet_shift(p: LatticePolytope, ray_index: int) -> RationalPolytope:
    """Shift the supporting halfspace of one facet inward by one, keep the rest."""
    fan = normal_fan(p)
    _int_in(ray_index, "ray index", 0, fan.n_rays - 1)
    coeffs = list(fan.ample_coefficients())
    coeffs[ray_index] -= 1
    return divisor_polytope(fan, coeffs)


@dataclass(frozen=True)
class ClassElement:
    """An element of a group Z^free x prod Z/d_i, stored per presentation."""

    free: tuple
    torsion: tuple


@dataclass(frozen=True)
class DivisorClassGroup:
    """Cokernel of the ray pairing matrix m -> (<m, u_ray>)_ray.

    Presented through a Smith decomposition: classes carry a free part in
    Z^free_rank and residues modulo the invariant factors > 1.
    """

    fan: NormalFan
    u_matrix: tuple  # unimodular, rows transform divisor vectors
    invariant_factors: tuple  # the invariant factors > 1, in divisibility order
    torsion_positions: tuple
    free_positions: tuple

    @property
    def free_rank(self):
        return len(self.free_positions)

    def degree(self, coefficients) -> ClassElement:
        coefficients = _as_int_tuple(coefficients, self.fan.n_rays, "divisor coefficient vector")
        t = mat_vec([list(r) for r in self.u_matrix], coefficients)
        tor = tuple(t[i] % m for i, m in zip(self.torsion_positions, self.invariant_factors))
        free = tuple(t[i] for i in self.free_positions)
        return ClassElement(free, tor)

    def ray_degree(self, i) -> ClassElement:
        e = [0] * self.fan.n_rays
        e[_int_in(i, "ray index", 0, self.fan.n_rays - 1)] = 1
        return self.degree(e)

    def ample_class(self) -> ClassElement:
        return self.degree(self.fan.ample_coefficients())

    def describe(self):
        """(free_rank, invariant factors) in the canonical order."""
        return (self.free_rank, self.invariant_factors)


def class_group(p: LatticePolytope) -> DivisorClassGroup:
    """The divisor class group of p's normal fan, built once and kept with p."""
    if "class_group" not in _instance(p, LatticePolytope, "a lattice polytope")._cache:
        fan = normal_fan(p)
        pairing = [list(u) for u in fan.rays]  # rays x dim
        sd = smith_form(pairing)
        diag = sd.diagonal
        if any(d == 0 for d in diag):
            raise DegenerateInputError("the ray pairing matrix must have full column rank")
        torsion_positions = tuple(i for i, d in enumerate(diag) if d > 1)
        p._cache["class_group"] = DivisorClassGroup(
            fan=fan,
            u_matrix=sd.u,
            invariant_factors=tuple(diag[i] for i in torsion_positions),
            torsion_positions=torsion_positions,
            free_positions=tuple(range(len(diag), len(pairing))),
        )
    return p._cache["class_group"]
